import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_lsm, brute_lss
from patex.constructions import all_ones, column, diagonal, row
from patex.containment import mat_contains, seq_contains
from patex.errors import BudgetExceededError, PreconditionError
from patex.matrices import BitMatrix
from patex.sequences import Sequence, normalize, parse_sequence
from patex.solvers import (
    ex_exact,
    lsm_exact,
    lsp_upper,
    _placements,
    lss_exact,
    restricted_growth_strings,
    sm_oracle,
    ss_oracle,
)

letters_lists = st.lists(st.integers(min_value=0, max_value=3), max_size=10)
patterns = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4)


# ---------------------------------------------------------------------------
# lss
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "u,v,value",
    [
        ("abab", "abab", 3),
        ("aaaa", "aa", 1),
        ("abcabcabc", "abab", 5),  # frozen from exhaustive 2^9 enumeration
        ("abab", "aba", 3),  # frozen from exhaustive enumeration ("abb" qualifies)
    ],
)
def test_lss_examples(u, v, value):
    assert lss_exact(parse_sequence(u), parse_sequence(v)).value == value


def test_lss_empty_host():
    res = lss_exact(Sequence(), parse_sequence("ab"))
    assert res.value == 0 and res.witness == ()


def test_lss_rejects_empty_pattern():
    with pytest.raises(PreconditionError):
        lss_exact(parse_sequence("ab"), Sequence())


@given(letters_lists, patterns)
@settings(max_examples=200, deadline=None)
def test_lss_matches_enumeration_and_witness_is_free(u, v):
    host = Sequence(tuple(u))
    pat = Sequence(tuple(v))
    res = lss_exact(host, pat)
    assert res.value == brute_lss(u, v)
    kept = Sequence(tuple(u[i] for i in res.witness))
    assert len(kept) == res.value
    assert seq_contains(kept, pat) is None


@given(letters_lists, patterns)
@settings(max_examples=200, deadline=None)
def test_lss_full_length_iff_host_avoids(u, v):
    host = Sequence(tuple(u))
    pat = Sequence(tuple(v))
    full = lss_exact(host, pat).value == len(u)
    assert full == (seq_contains(host, pat) is None)


def test_lss_budget_error():
    with pytest.raises(BudgetExceededError):
        lss_exact(parse_sequence("abcabcabc"), parse_sequence("abab"), budget=5)


def test_lss_witness_lexicographically_smallest():
    # brute force: smallest optimal position set of "abab" in host below
    host = parse_sequence("abab")
    res = lss_exact(host, parse_sequence("aba"))
    assert res.witness == (0, 1, 3)


# ---------------------------------------------------------------------------
# lsm / ex
# ---------------------------------------------------------------------------

def test_lsm_examples():
    j2 = all_ones(2, 2)
    assert lsm_exact(j2, j2).value == 3
    assert lsm_exact(j2, BitMatrix(1, 1, (0,))).value == 0
    assert lsm_exact(all_ones(3, 3), j2).value == 6


def test_lsm_rejects_empty_pattern():
    with pytest.raises(PreconditionError):
        lsm_exact(all_ones(2, 2), BitMatrix(1, 1))


def cells_in(rows, cols):
    return st.sets(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), max_size=10
    )


@given(cells_in(4, 4), cells_in(2, 3).filter(lambda s: s))
@settings(max_examples=120, deadline=None)
def test_lsm_matches_enumeration_and_witness_avoids(acells, pcells):
    a = BitMatrix.from_ones(4, 4, acells)
    p = BitMatrix.from_ones(2, 3, pcells)
    res = lsm_exact(a, p)
    assert res.value == brute_lsm(a, p)
    kept = BitMatrix.from_ones(a.rows, a.cols, res.witness)
    assert kept.one_count == res.value
    assert mat_contains(kept, p) is None


@pytest.mark.parametrize(
    "n,p,value",
    [
        (2, all_ones(2, 2), 3),
        (3, all_ones(2, 2), 6),
        (4, BitMatrix(1, 1, (0,)), 0),
    ],
)
def test_ex_examples(n, p, value):
    assert ex_exact(n, p).value == value


def test_ex_equals_lsm_on_full_host():
    for n in (2, 3):
        for p in (all_ones(2, 2), diagonal(2), row(2)):
            assert ex_exact(n, p).value == lsm_exact(all_ones(n, n), p).value


def test_ex_budget_error():
    with pytest.raises(BudgetExceededError):
        ex_exact(3, all_ones(2, 2), budget=3)


# ---------------------------------------------------------------------------
# instance enumeration
# ---------------------------------------------------------------------------

def test_rgs_counts_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for m, b in enumerate(bell):
        assert sum(1 for _ in restricted_growth_strings(m)) == b


def test_rgs_yields_normalized_sequences_in_lex_order():
    seen = list(restricted_growth_strings(4))
    assert seen == sorted(seen)
    for letters in seen:
        assert normalize(Sequence(letters)).letters == letters


def test_matrices_with_ones_have_no_empty_lines():
    mats = list(_placements(3))
    for r, c, cells in mats:
        assert len(cells) == 3
        assert {x // c for x in cells} == set(range(r))
        assert {x % c for x in cells} == set(range(c))
    assert len(mats) == len(_matrices_by_filter(3))


def _growth_strings_by_filter(m):
    """Every tuple over range(m) in lexicographic order, kept by the growth rule."""
    return [
        u
        for u in itertools.product(range(m), repeat=m)
        if all(u[i] <= max(u[:i], default=-1) + 1 for i in range(m))
    ]


def _matrices_by_filter(m):
    """Every m-subset of the cells of every r x c grid, in combinations order,
    kept when it leaves no row and no column empty."""
    out = []
    for r in range(1, m + 1):
        for c in range(1, m + 1):
            for combo in itertools.combinations(range(r * c), m):
                rows = {x // c for x in combo}
                cols = {x % c for x in combo}
                if len(rows) == r and len(cols) == c:
                    out.append(BitMatrix(r, c, combo))
    return out


@pytest.mark.parametrize("m", range(7))
def test_rgs_equals_filtered_product(m):
    assert list(restricted_growth_strings(m)) == _growth_strings_by_filter(m)


@pytest.mark.parametrize("m", range(1, 6))
def test_matrices_with_ones_equals_filtered_combinations(m):
    assert [BitMatrix(*host) for host in _placements(m)] == _matrices_by_filter(m)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "m,v,value",
    [
        (5, "aa", 1),
        (5, "ab", 1),
        (4, "abab", 3),
    ],
)
def test_ss_oracle_examples(m, v, value):
    res = ss_oracle(m, parse_sequence(v))
    assert res.value == value
    assert lss_exact(res.argmin, parse_sequence(v)).value == value


def test_ss_oracle_argmin_for_abab_is_the_block():
    assert ss_oracle(4, parse_sequence("abab")).argmin.letters == (0, 1, 0, 1)


def test_ss_oracle_limit():
    with pytest.raises(BudgetExceededError):
        ss_oracle(11, parse_sequence("ab"))


def test_ss_oracle_monotone_in_m():
    for v in ("aa", "aba", "abab"):
        pat = parse_sequence(v)
        vals = [ss_oracle(m, pat).value for m in range(1, 7)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_ss_oracle_sqrt_lower_bound_when_pattern_has_aa_and_ab():
    # patterns containing both a doubled letter and two distinct letters
    from patex.extractors import isqrt_ceil

    for v in ("aba", "abab", "aab"):
        pat = parse_sequence(v)
        for m in range(1, 8):
            assert ss_oracle(m, pat).value >= isqrt_ceil(m)


@pytest.mark.parametrize(
    "m,p,value",
    [
        (4, BitMatrix(1, 1, (0,)), 0),
        (4, row(3), 2),
        (3, diagonal(2), 1),
        (4, column(3), 2),
    ],
)
def test_sm_oracle_examples(m, p, value):
    res = sm_oracle(m, p)
    assert res.value == value
    assert lsm_exact(res.argmin, p).value == value


def test_sm_oracle_limit():
    with pytest.raises(BudgetExceededError):
        sm_oracle(6, diagonal(2))


def test_sm_oracle_monotone_in_m():
    for p in (diagonal(2), row(2), all_ones(2, 2)):
        vals = [sm_oracle(m, p).value for m in range(1, 5)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def _plain_minimum(instances, solve):
    """(value, first minimizer, total nodes) of solve over instances, stopping
    at the first zero like the oracles do."""
    best = best_x = None
    nodes = 0
    for x in instances:
        res = solve(x)
        nodes += res.nodes
        if best is None or res.value < best:
            best, best_x = res.value, x
            if best == 0:
                break
    return best, best_x, nodes


@pytest.mark.parametrize("m,v", [(7, "abab"), (6, "aba"), (6, "abc"), (4, "a")])
def test_ss_oracle_equals_plain_loop_over_filtered_strings(m, v):
    pat = parse_sequence(v)
    value, argmin, nodes = _plain_minimum(
        _growth_strings_by_filter(m), lambda u: lss_exact(Sequence(u), pat)
    )
    res = ss_oracle(m, pat)
    assert (res.value, res.argmin.letters, res.nodes) == (value, argmin, nodes)


@pytest.mark.parametrize(
    "m,p",
    [
        (5, all_ones(2, 2)),
        (4, diagonal(2)),
        (4, row(3)),
        (3, BitMatrix(1, 1, (0,))),
    ],
)
def test_sm_oracle_equals_plain_loop_over_filtered_matrices(m, p):
    value, argmin, nodes = _plain_minimum(_matrices_by_filter(m), lambda a: lsm_exact(a, p))
    res = sm_oracle(m, p)
    assert (res.value, res.argmin, res.nodes) == (value, argmin, nodes)


@pytest.mark.parametrize(
    "oracle,m,pattern,solve,instances",
    [
        (ss_oracle, 6, parse_sequence("abab"), lss_exact, _growth_strings_by_filter),
        (sm_oracle, 4, all_ones(2, 2), lsm_exact, _matrices_by_filter),
    ],
    ids=["ss", "sm"],
)
def test_oracle_budget_caps_the_total(oracle, m, pattern, solve, instances):
    # a budget no instance reaches on its own still stops the oracle
    total = oracle(m, pattern).nodes
    largest = max(solve(x, pattern).nodes for x in instances(m))
    assert largest < total - 1
    for budget in (largest, total - 1):
        with pytest.raises(BudgetExceededError) as exc:
            oracle(m, pattern, budget=budget)
        assert exc.value.nodes == budget + 1
    assert oracle(m, pattern, budget=total).nodes == total


# ---------------------------------------------------------------------------
# lsp upper bound
# ---------------------------------------------------------------------------

def test_lsp_upper_examples():
    # frozen from exhaustive enumeration: longest aba-free subsequence of
    # abab has length 3
    assert lsp_upper(parse_sequence("abab"), 1).value == 3
    distinct = parse_sequence("abcdef")
    assert lsp_upper(distinct, 1).value == 6
    assert lsp_upper(parse_sequence("a" * 7), 2).value == 7


def test_lsp_upper_rejects_bad_degree():
    with pytest.raises(PreconditionError):
        lsp_upper(parse_sequence("ab"), 0)


def test_lsp_upper_never_below_realizable_witness():
    from patex.envelopes import realizable_extract

    rng = random.Random(2)
    for _ in range(30):
        m = rng.randint(1, 16)
        u = Sequence(tuple(rng.randrange(3) for _ in range(m)))
        witness_len = len(realizable_extract(u, 1).witness)
        assert witness_len <= lsp_upper(u, 1).value
