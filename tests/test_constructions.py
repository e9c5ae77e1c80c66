import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from patex.cli import main
from patex.constructions import (
    MAX_CELLS,
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
    upper_construction_allones,
)
from patex.containment import mat_contains
from patex.errors import PreconditionError
from patex.matrices import BitMatrix
from patex.sequences import parse_sequence


# ---------------------------------------------------------------------------
# block sequences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "k,expected",
    [(2, "0 1 0 1"), (3, "0 1 2 0 1 2 0 1 2"), (1, "0")],
)
def test_block_sequence_examples(k, expected):
    assert block_sequence(k).letters == tuple(int(t) for t in expected.split())


@given(st.integers(min_value=1, max_value=8))
def test_block_sequence_shape(k):
    u = block_sequence(k)
    assert len(u) == k * k
    assert u.distinct == k
    # every window of k+1 letters repeats some letter
    for i in range(len(u) - k):
        window = u.letters[i : i + k + 1]
        assert len(set(window)) <= k


# ---------------------------------------------------------------------------
# simple matrices
# ---------------------------------------------------------------------------

def test_simple_builders():
    assert all_ones(2, 2).dense() == [[1, 1], [1, 1]]
    assert all_ones(1, 3).dense() == [[1, 1, 1]]
    assert diagonal(2).dense() == [[1, 0], [0, 1]]
    assert row(3).dense() == [[1, 1, 1]]
    assert column(1).dense() == [[1]]
    assert l_shape().dense() == [[1, 0], [1, 1]]


@pytest.mark.parametrize(
    "call",
    [lambda: all_ones(0, 1), lambda: diagonal(0), lambda: row(0), lambda: column(0)],
)
def test_builders_reject_zero(call):
    with pytest.raises(PreconditionError):
        call()


# ---------------------------------------------------------------------------
# the hard instance
# ---------------------------------------------------------------------------

def test_upper_construction_perfect_power():
    a = upper_construction_allones(64, 2)
    assert (a.rows, a.cols) == (16, 4)
    assert a.one_count == 64


def test_upper_construction_floors():
    a = upper_construction_allones(81, 2)
    assert (a.rows, a.cols) == (18, 4)
    assert a.one_count <= 81


def test_upper_construction_rejects_r1():
    with pytest.raises(PreconditionError):
        upper_construction_allones(8, 1)


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=2, max_value=4))
def test_upper_construction_dimensions_exact_roots(m, r):
    a = upper_construction_allones(m, r)
    assert a.rows ** (r + 1) <= m**r < (a.rows + 1) ** (r + 1)
    assert a.cols ** (r + 1) <= m < (a.cols + 1) ** (r + 1)
    assert a.one_count <= m


# ---------------------------------------------------------------------------
# insert_column / corner_join
# ---------------------------------------------------------------------------

def test_insert_column_examples():
    assert insert_column(BitMatrix.from_dense([[1, 1]]), 0, 0).dense() == [[1, 1, 1]]
    assert insert_column(all_ones(2, 2), 0, 0).dense() == [[1, 1, 1], [1, 0, 1]]
    with pytest.raises(PreconditionError):
        insert_column(BitMatrix.from_dense([[1, 0], [1, 1]]), 0, 0)


@pytest.mark.parametrize(
    "p,at",
    [
        (all_ones(2, 2), (0, 0)),
        (all_ones(2, 3), (1, 1)),
        (BitMatrix.from_dense([[1, 1, 0], [0, 1, 1]]), (0, 0)),
    ],
)
def test_insert_column_output_contains_input(p, at):
    r = insert_column(p, *at)
    assert r.cols == p.cols + 1
    assert mat_contains(r, p) is not None
    new_col = [c for _, c in r.ones if c == at[1] + 1]
    assert len(new_col) == 1


def test_corner_join_examples():
    assert corner_join(all_ones(2, 2), 2).dense() == [[0, 1, 1], [1, 1, 1], [1, 1, 0]]
    p = all_ones(2, 2)
    assert corner_join(p, 1) == p
    with pytest.raises(PreconditionError):
        corner_join(diagonal(2), 2)
    with pytest.raises(PreconditionError):
        # top-right corner of the L-shape is a zero
        corner_join(l_shape(), 2)


@pytest.mark.parametrize(
    "p",
    [all_ones(2, 2), all_ones(3, 2), BitMatrix.from_dense([[0, 1], [1, 1]])],
)
@pytest.mark.parametrize("copies", [1, 2, 3])
def test_corner_join_ones_count_and_containment(p, copies):
    r = corner_join(p, copies)
    assert r.one_count == copies * p.one_count - (copies - 1)
    assert mat_contains(r, p) is not None


# ---------------------------------------------------------------------------
# sequence pattern encoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "v,dense",
    [
        ("abab", [[1, 0, 1, 0], [0, 1, 0, 1]]),
        ("a", [[1]]),
        ("aab", [[1, 1, 0], [0, 0, 1]]),
    ],
)
def test_pattern_from_sequence_examples(v, dense):
    assert pattern_from_sequence(parse_sequence(v)).dense() == dense


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_pattern_from_sequence_one_per_column(letters):
    from patex.sequences import Sequence

    p = pattern_from_sequence(Sequence(tuple(letters)))
    assert p.cols == len(letters)
    per_col = {}
    for _, c in p.ones:
        per_col[c] = per_col.get(c, 0) + 1
    assert all(per_col.get(c, 0) == 1 for c in range(p.cols))


def test_pattern_from_sequence_rejects_empty():
    with pytest.raises(PreconditionError):
        pattern_from_sequence(parse_sequence(""))


# ---------------------------------------------------------------------------
# the four fixed patterns
# ---------------------------------------------------------------------------

def test_four_patterns():
    pats = four_forcing_patterns()
    assert len(pats) == 4
    assert pats[0].dense() == [[0, 1, 0], [1, 0, 1]]
    assert pats[1].dense() == [[0, 0, 1], [1, 1, 0]]
    assert pats[2].dense() == [[0, 1], [1, 1]]
    assert pats[3].dense() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


# ---------------------------------------------------------------------------
# size guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "all-ones", "--r", "100000", "--c", "100000"],
        ["construct", "block", "--k", "1000000"],
        ["construct", "diagonal", "--k", "1000000"],
        ["construct", "row", "--k", str(10**12)],
        ["construct", "column", "--k", str(10**12)],
        ["construct", "lemma3", "--m", str(10**12), "--r", "2"],
        ["construct", "lemma3", "--m", "100", "--r", "100000"],
        ["construct", "corner-join", "--pattern", "J2", "--copies", "1000000"],
        ["construct", "corner-join", "--pattern", "ONE", "--copies", str(10**12)],
        ["ex", "--n", "100000", "--pattern", "J2"],
        ["sweep", "sm-allones", "--r", "2", "--m-list", f"64,{10**12}", "--trials", "1"],
        ["sweep", "sm-allones", "--r", "100000", "--m-list", "64", "--trials", "1"],
    ],
)
def test_oversized_requests_exit_2_before_building(capsys, tmp_path, argv):
    files = {"J2": tmp_path / "j2.mat", "ONE": tmp_path / "one.mat"}
    files["J2"].write_text("11\n11\n")
    files["ONE"].write_text("1\n")
    start = time.perf_counter()
    code = main([str(files[tok]) if tok in files else tok for tok in argv])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_size_guard_allows_exactly_max_cells():
    from patex.constructions import _check_size

    _check_size(MAX_CELLS, "x")
    with pytest.raises(PreconditionError):
        _check_size(MAX_CELLS + 1, "x")


def test_upper_construction_with_large_r():
    # m**r is far past a float here; the roots stay exact integers
    m, r = 100, 400
    a = upper_construction_allones(m, r)
    assert a.rows**(r + 1) <= m**r < (a.rows + 1) ** (r + 1)
    assert a.cols**(r + 1) <= m < (a.cols + 1) ** (r + 1)
    assert (a.rows, a.cols, a.one_count) == (98, 1, 98)
