"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Expected-value provenance: exact equalities are checked against
independent exhaustive enumeration (see conftest) wherever an enumeration
at that scale is feasible.
"""

import itertools
import random
import time

from conftest import brute_mat_contains
from patex.constructions import (
    all_ones,
    block_sequence,
    column,
    corner_join,
    diagonal,
    four_forcing_patterns,
    insert_column,
    l_shape,
    pattern_from_sequence,
    row,
)
from patex.containment import mat_contains, seq_contains
from patex.envelopes import (
    Polynomial,
    lower_envelope,
    realizable_extract,
    realize_lines,
    verify_envelope,
    verify_pointwise,
)
from patex.extractors import (
    dichotomy_extract,
    erdos_szekeres_extract,
    isqrt_ceil,
    probabilistic_extract,
)
from patex.matrices import BitMatrix
from patex.sequences import Sequence, alternation, parse_sequence
from patex.solvers import (
    ex_exact,
    lsm_exact,
    lsp_upper,
    lss_exact,
    restricted_growth_strings,
    sm_oracle,
    ss_oracle,
)
from patex.sweeps import report, sweep_sm_allones, sweep_ss_block


def _report(num: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def test_criterion_01_block_sequence_sandwich():
    failures = []
    start = time.perf_counter()
    for k in (2, 3, 4, 5):
        value = lss_exact(block_sequence(k), parse_sequence("abab")).value
        if not k <= value <= 3 * k - 1:
            failures.append((k, value))
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s over 5 min target")
    _report(1, "block-sequence sandwich k<=lss<=3k-1", failures)


def test_criterion_02_trivial_exact_values():
    failures = []
    for k in (2, 3):
        same = Sequence((0,) * k)
        distinct = Sequence(tuple(range(k)))
        for m in range(k - 1, 9):
            for v in (same, distinct):
                got = ss_oracle(m, v).value
                if got != k - 1:
                    failures.append(("ss", k, m, tuple(v.letters), got))
        for m in range(max(1, k - 1), 6):
            for p in (row(k), column(k), diagonal(k)):
                got = sm_oracle(m, p).value
                if got != k - 1:
                    failures.append(("sm", k, m, p.dense(), got))
    _report(2, "degenerate patterns give value k-1 exactly", failures)


def test_criterion_03_dichotomy_lower_bound():
    failures = []
    patterns = [parse_sequence("aba"), parse_sequence("abab")]
    for m in range(1, 10):
        threshold = isqrt_ceil(m)
        for letters in restricted_growth_strings(m):
            u = Sequence(letters)
            rep = dichotomy_extract(u)
            if rep.size < threshold:
                failures.append(("size", letters, rep.size))
            for v in patterns:
                if lss_exact(u, v).value < threshold:
                    failures.append(("lss", letters, tuple(v.letters)))
                if seq_contains(rep.witness, v) is not None:
                    failures.append(("witness-not-free", letters, tuple(v.letters)))
    _report(3, "sqrt(m) lower bound, exhaustive m<=9", failures)


def test_criterion_04_probabilistic_extractor():
    failures = []
    start = time.perf_counter()
    pattern = all_ones(2, 2)
    trials = 500
    records, fit = sweep_sm_allones(2, [64, 256, 1024], trials=trials, seed=0)
    for rec in records:
        floor_mean = 0.9 * (7.0 / 16.0) * rec.m ** (2.0 / 3.0)
        if rec.value < floor_mean:
            failures.append(("mean", rec.m, rec.value, floor_mean))
    if not 0.56 <= fit.exponent <= 0.76:
        failures.append(("exponent", fit.exponent))
    # freeness of every output, rechecked explicitly (spot brute checks too)
    from patex.constructions import upper_construction_allones
    from patex.sweeps import _child_seed

    for m in (64, 256, 1024):
        host = upper_construction_allones(m, 2)
        for t in range(trials):
            rep = probabilistic_extract(host, pattern, seed=_child_seed(0, m, t))
            if mat_contains(rep.witness, pattern) is not None:
                failures.append(("not-free", m, t))
            if m == 64 and t % 100 == 0 and brute_mat_contains(rep.witness, pattern):
                failures.append(("brute-disagrees", m, t))
    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.0f}s over 10 min target")
    _report(4, "probabilistic extractor mean and exponent", failures)


def test_criterion_05_erdos_szekeres_extractor():
    failures = []
    pats = four_forcing_patterns()
    for m in (25, 100, 400):
        for s in range(100):
            rng = random.Random(1000 * m + s)
            side = 2 * isqrt_ceil(m)
            cells = rng.sample([(r, c) for r in range(side) for c in range(side)], m)
            host = BitMatrix.from_ones(side, side, cells)
            rep = erdos_szekeres_extract(host)
            if rep.size < isqrt_ceil(m):
                failures.append(("size", m, s, rep.size))
            for p in pats:
                if mat_contains(rep.witness, p) is not None:
                    failures.append(("pattern", m, s, p.dense()))
    _report(5, "monotone extractor: 300 seeded hosts, zero failures", failures)


def test_criterion_06_ex_sm_bridge():
    failures = []
    j2 = all_ones(2, 2)
    third = BitMatrix.from_dense([[0, 1], [1, 1]])
    for n in (2, 3):
        for p in (j2, l_shape(), third):
            via_lsm = lsm_exact(all_ones(n, n), p).value
            via_ex = ex_exact(n, p).value
            if via_lsm != via_ex:
                failures.append((n, p.dense(), via_lsm, via_ex))
    # independent enumeration of all 2^9 matrices for ex(3, J2)
    best = 0
    for mask in range(1 << 9):
        cells = tuple((i // 3, i % 3) for i in range(9) if mask >> i & 1)
        if len(cells) > best and not brute_mat_contains(BitMatrix.from_ones(3, 3, cells), j2):
            best = len(cells)
    if best != 6 or ex_exact(3, j2).value != 6:
        failures.append(("enumeration", best, ex_exact(3, j2).value))
    _report(6, "full-host solve equals extremal count", failures)


def test_criterion_07_operation_lemmas():
    failures = []
    p = all_ones(2, 2)
    for r_matrix in (insert_column(p, 0, 0), corner_join(p, 2)):
        for m in range(1, 5):
            base = sm_oracle(m, p).value
            grown = sm_oracle(m, r_matrix).value
            if not base <= grown <= 2 * base:
                failures.append((m, r_matrix.dense(), base, grown))
    _report(7, "column insertion and corner join stay within 2x", failures)


def test_criterion_08_envelope_alternation_bound():
    failures = []
    for k in (1, 2, 3, 4):
        forbidden = alternation(k + 2)
        for i in range(200):
            rng = random.Random(1000 * k + i)
            n = rng.randint(2, 6)
            polys = [
                Polynomial(tuple(rng.uniform(-1.0, 1.0) for _ in range(k + 1)))
                for _ in range(n)
            ]
            try:
                env = lower_envelope(polys, tol=1e-9)
            except Exception as exc:  # any numeric refusal is a failure here
                failures.append((k, i, repr(exc)))
                continue
            if seq_contains(env.sequence(), forbidden) is not None:
                failures.append(("alternation", k, i))
            try:
                verify_pointwise(polys, env, samples=100, seed=i, tol=1e-6)
            except Exception as exc:
                failures.append(("pointwise", k, i, repr(exc)))
    _report(8, "800 random envelopes avoid the alternation", failures)


def test_criterion_09_realization_roundtrip():
    failures = []
    for n in range(1, 8):
        u = Sequence(tuple(range(n)))
        if not verify_envelope(realize_lines(u), u):
            failures.append(("roundtrip", n))
    for i in range(100):
        rng = random.Random(i)
        m = rng.randint(1, 36)
        alpha = rng.randint(1, isqrt_ceil(m) + 2)
        u = Sequence(tuple(rng.randrange(alpha) for _ in range(m)))
        for k in (1, 2):
            res = realizable_extract(u, k)
            if len(res.witness) < isqrt_ceil(m):
                failures.append(("short", i, k, len(res.witness)))
            if len(res.witness) > lsp_upper(u, k).value:
                failures.append(("exceeds-upper", i, k))
            if tuple(u.letters[p] for p in res.positions) != res.witness.letters:
                failures.append(("positions", i, k))
    _report(9, "line realization round-trip and witness sandwich", failures)


def test_criterion_10_sequence_to_matrix_reduction():
    from patex.extractors import sequence_to_matrix

    failures = []
    patterns = [parse_sequence(v) for v in ("aba", "abab", "aab")]
    for k in (1, 2, 3):
        host = block_sequence(k)
        for size in range(k * k + 1):
            for pos in itertools.combinations(range(k * k), size):
                a = sequence_to_matrix(pos, k)
                s = Sequence(tuple(host.letters[p] for p in pos))
                for v in patterns:
                    if mat_contains(a, pattern_from_sequence(v)) is not None:
                        if seq_contains(s, v) is None:
                            failures.append((k, pos, tuple(v.letters)))
    _report(10, "matrix containment implies sequence containment", failures)


def test_criterion_11_determinism():
    failures = []
    for fmt in ("csv", "json", "svg"):
        a = report(sweep_ss_block(2, 4), fmt)
        b = report(sweep_ss_block(2, 4), fmt)
        if a != b:
            failures.append(("ss-block", fmt))
        r1, _ = sweep_sm_allones(2, [64, 256, 1024], trials=60, seed=11)
        r2, _ = sweep_sm_allones(2, [64, 256, 1024], trials=60, seed=11)
        if report(r1, fmt) != report(r2, fmt):
            failures.append(("sm-allones", fmt))
    _report(11, "same seed, byte-identical sweep outputs", failures)
