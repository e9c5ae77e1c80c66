import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patex.constructions import all_ones, block_sequence, l_shape, upper_construction_allones
from patex.containment import mat_contains, seq_contains
from patex.errors import PreconditionError
from patex.extractors import (
    _deletion_parameters,
    alternate_thinning,
    dichotomy_extract,
    erdos_szekeres_extract,
    isqrt_ceil,
    probabilistic_extract,
    sequence_to_matrix,
)
from patex.matrices import BitMatrix
from patex.sequences import Sequence, parse_sequence


def random_matrix(m, seed, side=None):
    rng = random.Random(seed)
    side = side or 2 * isqrt_ceil(m)
    cells = rng.sample([(r, c) for r in range(side) for c in range(side)], m)
    return BitMatrix.from_ones(side, side, cells)


def test_isqrt_ceil():
    assert [isqrt_ceil(m) for m in (0, 1, 2, 4, 5, 9, 10)] == [0, 1, 2, 2, 3, 3, 4]


# ---------------------------------------------------------------------------
# probabilistic deletion + repair
# ---------------------------------------------------------------------------

def test_probabilistic_guarantee_arithmetic():
    # m=64, r=2: keep probability 1/8, expectation 64/8 - (1/8)^4 * 64^2 = 7
    rep = probabilistic_extract(all_ones(8, 8), all_ones(2, 2), seed=0)
    assert rep.guarantee == 7


def test_probabilistic_always_pattern_free():
    p = all_ones(2, 2)
    a = all_ones(8, 8)
    for seed in range(40):
        rep = probabilistic_extract(a, p, seed=seed)
        assert mat_contains(rep.witness, p) is None
        assert rep.witness.one_count == rep.size
        assert set(rep.witness.ones) <= set(a.ones)


def test_probabilistic_lshape_variant():
    p = l_shape()
    a = all_ones(16, 16)
    for seed in range(20):
        rep = probabilistic_extract(a, p, seed=seed)
        assert rep.method == "prob-lshape"
        assert mat_contains(rep.witness, p) is None


def test_probabilistic_single_one_host():
    a = BitMatrix(1, 1, (0,))
    rep = probabilistic_extract(a, all_ones(2, 2), seed=1)
    assert rep.size in (0, 1)
    assert mat_contains(rep.witness, all_ones(2, 2)) is None


def test_probabilistic_deterministic_per_seed():
    a = all_ones(8, 8)
    p = all_ones(2, 2)
    assert probabilistic_extract(a, p, seed=5).witness == probabilistic_extract(a, p, seed=5).witness


def test_probabilistic_rejects_unsupported_pattern():
    with pytest.raises(PreconditionError):
        probabilistic_extract(all_ones(4, 4), BitMatrix.from_dense([[0, 1], [1, 1]]))
    with pytest.raises(PreconditionError):
        probabilistic_extract(all_ones(4, 4), BitMatrix(1, 1, (0,)))


def rebuild_extract(a, p, seed):
    """The repair loop written plainly: rebuild the kept matrix and search
    it with mat_contains before every deletion.  Returns the witness and
    the number of copies deleted."""
    keep_p, _, _ = _deletion_parameters(p, a.one_count)
    rng = random.Random(seed)
    kept = [cell for cell in a.ones if rng.random() < keep_p]
    repairs = 0
    while True:
        occ = mat_contains(BitMatrix.from_ones(a.rows, a.cols, kept), p)
        if occ is None:
            break
        kept.remove(max(occ.cells(p)))
        repairs += 1
    return BitMatrix.from_ones(a.rows, a.cols, kept), repairs


@pytest.mark.parametrize(
    "host, pattern",
    [(upper_construction_allones(4096, 2), all_ones(2, 2)), (all_ones(64, 64), l_shape())],
    ids=["allones2", "lshape"],
)
def test_probabilistic_matches_rebuild_loop(host, pattern):
    total = 0
    for seed in range(20):
        rep = probabilistic_extract(host, pattern, seed=seed)
        witness, repairs = rebuild_extract(host, pattern, seed)
        assert rep.witness == witness and rep.size == witness.one_count
        assert rep.repairs == repairs
        total += repairs
    assert total >= 20  # the repair path ran


def test_probabilistic_mean_size_tracks_expectation():
    # m=64: expectation bound is 7; the sample mean over 300 seeds stays
    # within a close band above it
    a = all_ones(8, 8)
    p = all_ones(2, 2)
    sizes = [probabilistic_extract(a, p, seed=s).size for s in range(300)]
    mean = sum(sizes) / len(sizes)
    assert mean >= 0.9 * (7 / 16) * 64 ** (2 / 3)


# ---------------------------------------------------------------------------
# monotone extraction
# ---------------------------------------------------------------------------

def test_es_identity_keeps_everything():
    a = BitMatrix.from_ones(4, 4, ((i, i) for i in range(4)))
    rep = erdos_szekeres_extract(a)
    assert rep.size == 4
    assert rep.witness == a


def test_es_guarantee_met_on_small_hosts():
    rep = erdos_szekeres_extract(all_ones(2, 2))
    assert rep.size >= 2


@pytest.mark.parametrize("m", [10, 25, 60])
def test_es_random_hosts_avoid_all_four_patterns(m, four_patterns):
    for seed in range(30):
        a = random_matrix(m, seed=997 * m + seed)
        rep = erdos_szekeres_extract(a)
        assert rep.size >= isqrt_ceil(m)
        assert set(rep.witness.ones) <= set(a.ones)
        for p in four_patterns:
            assert mat_contains(rep.witness, p) is None


def test_es_prefers_nondecreasing_on_ties():
    # a strictly decreasing diagonal: both directions tie only on length-1
    # scans of single rows; anti-diagonal gives non-increasing of length 3
    a = BitMatrix.from_ones(3, 3, ((0, 2), (1, 1), (2, 0)))
    rep = erdos_szekeres_extract(a)
    assert rep.size == 3
    assert rep.witness == a


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

def test_dichotomy_examples():
    rep = dichotomy_extract(parse_sequence("aabbcc"))
    assert rep.kind == "rainbow"
    assert rep.witness.letters == (0, 1, 2)
    rep = dichotomy_extract(parse_sequence("aaaa"))
    assert rep.kind == "repeated"
    assert rep.witness.letters == (0, 0, 0, 0)


def test_dichotomy_prefers_repeated():
    # both branches qualify at m=4 with threshold 2
    rep = dichotomy_extract(parse_sequence("aabb"))
    assert rep.kind == "repeated"
    assert rep.witness.letters == (0, 0)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
@settings(max_examples=300)
def test_dichotomy_guarantee_and_freeness(letters):
    u = Sequence(tuple(letters))
    rep = dichotomy_extract(u)
    assert rep.size >= isqrt_ceil(len(u))
    assert tuple(u.letters[i] for i in rep.positions) == rep.witness.letters
    if rep.kind == "rainbow":
        assert seq_contains(rep.witness, parse_sequence("aa")) is None
    else:
        assert seq_contains(rep.witness, parse_sequence("ab")) is None


# ---------------------------------------------------------------------------
# thinning
# ---------------------------------------------------------------------------

def test_thinning_examples():
    a = BitMatrix.from_ones(1, 4, ((0, 0), (0, 1), (0, 2), (0, 3)))
    assert alternate_thinning(a).ones == ((0, 0), (0, 2))
    single = BitMatrix.from_ones(2, 2, ((1, 1),))
    assert alternate_thinning(single) == single
    empty = BitMatrix(0, 0)
    assert alternate_thinning(empty) == empty


@given(
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=30)
)
def test_thinning_halves_at_worst_and_breaks_adjacency(cells):
    a = BitMatrix.from_ones(6, 8, cells)
    out = alternate_thinning(a)
    assert set(out.ones) <= set(a.ones)
    assert 2 * out.one_count >= a.one_count
    for r in range(6):
        orig = [c for rr, c in a.ones if rr == r]
        kept = {c for rr, c in out.ones if rr == r}
        assert len(kept) >= (len(orig) + 1) // 2
        # no two kept ones were consecutive in the original row order
        for x, y in zip(orig, orig[1:]):
            assert not (x in kept and y in kept)


# ---------------------------------------------------------------------------
# block-sequence incidence matrix
# ---------------------------------------------------------------------------

def test_sequence_to_matrix_examples():
    assert sequence_to_matrix([0, 4, 5, 6], 3).ones == ((0, 0), (0, 2), (1, 1), (2, 1))
    k = 3
    full = sequence_to_matrix(range(k * k), k)
    assert full == all_ones(k, k)


def test_sequence_to_matrix_validates_positions():
    with pytest.raises(PreconditionError):
        sequence_to_matrix([2, 1], 2)
    with pytest.raises(PreconditionError):
        sequence_to_matrix([4], 2)
    with pytest.raises(PreconditionError):
        sequence_to_matrix([0, 0], 2)


@given(st.integers(1, 4), st.data())
def test_sequence_to_matrix_size_bound(k, data):
    positions = data.draw(st.sets(st.integers(0, k * k - 1), max_size=k * k))
    a = sequence_to_matrix(sorted(positions), k)
    assert a.one_count <= len(positions)
    assert (a.rows, a.cols) == (k, k)


@given(st.sets(st.integers(0, 15), max_size=16))
@settings(max_examples=400)
def test_sequence_to_matrix_containment_implication_k4(positions):
    # matrix containment of the encoded pattern forces sequence containment
    from patex.constructions import pattern_from_sequence

    k = 4
    host = block_sequence(k)
    pos = sorted(positions)
    a = sequence_to_matrix(pos, k)
    s = Sequence(tuple(host.letters[p] for p in pos))
    for v in ("aba", "abab", "aab", "abcd"):
        pat = parse_sequence(v)
        if mat_contains(a, pattern_from_sequence(pat)) is not None:
            assert seq_contains(s, pat) is not None
