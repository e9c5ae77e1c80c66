import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_mat_contains, brute_seq_contains
from patex.containment import (
    check_mat_occurrence,
    check_seq_occurrence,
    count_pattern_copies,
    mat_contains,
    seq_contains,
)
from patex.constructions import all_ones
from patex.matrices import BitMatrix
from patex.sequences import Sequence

letters_lists = st.lists(st.integers(min_value=0, max_value=3), max_size=10)
patterns = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4)


def cells_in(rows, cols):
    return st.sets(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), max_size=rows * cols
    )


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def test_seq_contains_examples():
    occ = seq_contains("abcabc", "abab")
    assert occ is not None and check_seq_occurrence("abcabc", "abab", occ)
    assert seq_contains("aaabc", "abab") is None
    occ = seq_contains("aba", "aa")
    assert occ is not None and occ.positions == (0, 2)


def test_empty_pattern_contained_everywhere():
    assert seq_contains("abc", "") is not None
    assert seq_contains("", "") is not None


def test_witness_is_lexicographically_smallest():
    # both (0,1,3,4) and (0,2,3,5) etc. exist; the first must be returned
    assert seq_contains("abcabc", "abab").positions == (0, 1, 3, 4)


@given(letters_lists, patterns)
@settings(max_examples=300)
def test_seq_contains_matches_enumeration(u, v):
    got = seq_contains(Sequence(tuple(u)), Sequence(tuple(v)))
    want = brute_seq_contains(u, v)
    assert (got is not None) == want
    if got is not None:
        assert check_seq_occurrence(Sequence(tuple(u)), Sequence(tuple(v)), got)


@given(letters_lists, patterns, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_avoidance_is_hereditary(u, v, rng):
    # u v-free => every subsequence of u is v-free
    if seq_contains(Sequence(tuple(u)), Sequence(tuple(v))) is None:
        w = [x for x in u if rng.random() < 0.6]
        assert seq_contains(Sequence(tuple(w)), Sequence(tuple(v))) is None


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_mat_contains_examples():
    p = BitMatrix.from_dense([[1, 0], [1, 1]])
    assert mat_contains(BitMatrix.from_dense([[1, 0], [0, 1]]), p) is None
    occ = mat_contains(all_ones(2, 2), p)
    assert occ is not None
    assert occ.row_indices == (0, 1) and occ.col_indices == (0, 1)
    ident = BitMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    occ = mat_contains(ident, BitMatrix.from_dense([[1, 0], [0, 1]]))
    assert occ is not None and check_mat_occurrence(ident, BitMatrix.from_dense([[1, 0], [0, 1]]), occ)


def test_empty_matrix_pattern_contained_everywhere():
    assert mat_contains(BitMatrix(1, 1), BitMatrix(0, 0)) is not None
    assert mat_contains(BitMatrix(2, 2), BitMatrix(2, 2)) is not None


@given(cells_in(4, 4), cells_in(3, 3).filter(lambda s: s))
@settings(max_examples=300)
def test_mat_contains_matches_enumeration(acells, pcells):
    a = BitMatrix.from_ones(4, 4, acells)
    p = BitMatrix.from_ones(3, 3, pcells)
    got = mat_contains(a, p)
    assert (got is not None) == brute_mat_contains(a, p)
    if got is not None:
        assert check_mat_occurrence(a, p, got)


def _full_support(cells):
    # the invariance below presumes every pattern row and column carries a
    # one; patterns with all-zero lines gain room from padding
    if not cells:
        return False
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    return rows == set(range(max(rows) + 1)) and cols == set(range(max(cols) + 1))


@given(cells_in(3, 4), cells_in(2, 3).filter(_full_support))
@settings(max_examples=150)
def test_mat_contains_invariant_under_zero_padding(acells, pcells):
    rows = 1 + max(r for r, _ in pcells)
    cols = 1 + max(c for _, c in pcells)
    a = BitMatrix.from_ones(3, 4, acells)
    p = BitMatrix.from_ones(rows, cols, pcells)
    # same ones inside a larger all-zero frame (one zero row/col before and after)
    padded = BitMatrix.from_ones(5, 6, ((r + 1, c + 1) for r, c in acells))
    assert (mat_contains(a, p) is None) == (mat_contains(padded, p) is None)


def test_mat_contains_pattern_with_zero_row_needs_room():
    p = BitMatrix(2, 1, (0,))  # one over an all-zero row
    host_tall = BitMatrix(2, 1, (0,))
    host_flat = BitMatrix(1, 1, (0,))
    assert mat_contains(host_tall, p) is not None
    assert mat_contains(host_flat, p) is None


# ---------------------------------------------------------------------------
# copy counting
# ---------------------------------------------------------------------------

def test_count_pattern_copies_examples():
    j2 = all_ones(2, 2)
    assert count_pattern_copies(j2, j2) == 1
    assert count_pattern_copies(all_ones(3, 3), j2) == 9  # C(3,2)^2


def test_count_bounded_by_diagonal_choices():
    # every copy of the r x r all-ones pattern is pinned by its r diagonal
    # ones, so the count stays below m^r
    rng = random.Random(5)
    j2 = all_ones(2, 2)
    for trial in range(25):
        m = rng.randint(1, 12)
        cells = rng.sample([(r, c) for r in range(6) for c in range(6)], m)
        a = BitMatrix.from_ones(6, 6, cells)
        assert count_pattern_copies(a, j2) < m**2
