import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patex.errors import PreconditionError
from patex.matrices import BitMatrix, format_matrix, parse_matrix


def test_from_dense_and_back():
    grid = [[1, 0], [0, 1]]
    a = BitMatrix.from_dense(grid)
    assert a.rows == 2 and a.cols == 2
    assert a.ones == ((0, 0), (1, 1))
    assert a.dense() == grid


def test_ones_sorted_row_major():
    a = BitMatrix.from_ones(2, 3, ((1, 2), (0, 1), (1, 0)))
    assert a.ones == ((0, 1), (1, 0), (1, 2))
    assert a.cells == (1, 3, 5)


def test_out_of_range_coordinate_rejected():
    with pytest.raises(PreconditionError):
        BitMatrix.from_ones(2, 2, ((2, 0),))


def test_duplicate_coordinate_rejected():
    with pytest.raises(PreconditionError):
        BitMatrix.from_ones(2, 2, ((0, 0), (0, 0)))


@pytest.mark.parametrize(
    "cells",
    [
        (0, True),  # a bool
        (0, 2, 1),  # unsorted
        (0, 1, 1),  # duplicate
        (-1, 0),  # below 0
        (0, 6),  # rows * cols
        (5, 9),  # past rows * cols
        [0, 1],  # a list
        (0, 1.0),  # a float
        ((0, 1),),  # a pair
    ],
)
def test_bitmatrix_rejects_cells_not_in_stored_form(cells):
    with pytest.raises(PreconditionError):
        BitMatrix(2, 3, cells)


def test_bitmatrix_keeps_stored_cells_as_they_are():
    for rows, cols, cells in ((2, 3, (0, 2, 5)), (2, 3, ()), (0, 0, ()), (1, 1, (0,))):
        assert BitMatrix(rows, cols, cells).cells is cells


def test_parse_matrix():
    a = parse_matrix("10\n01\n")
    assert a.dense() == [[1, 0], [0, 1]]
    assert parse_matrix("").one_count == 0


def test_parse_matrix_rejects_ragged_and_bad_chars():
    with pytest.raises(PreconditionError):
        parse_matrix("10\n011\n")
    with pytest.raises(PreconditionError):
        parse_matrix("1x\n00\n")


def test_format_parse_roundtrip():
    a = BitMatrix.from_ones(3, 2, ((0, 1), (2, 0)))
    assert parse_matrix(format_matrix(a)) == a


def reference_ones(rows, cols, ones):
    """The ones of BitMatrix.from_ones(rows, cols, ones), or the message of
    the error it raises: convert to int pairs, sort, then check range and
    duplicates in that order."""
    if rows < 0 or cols < 0:
        return "matrix dimensions must be >= 0"
    cells = sorted((int(r), int(c)) for r, c in ones)
    for r, c in cells:
        if not (0 <= r < rows and 0 <= c < cols):
            return f"coordinate ({r},{c}) outside {rows}x{cols}"
    if len(set(cells)) != len(cells):
        return "duplicate coordinates in ones list"
    return tuple(cells)


coordinate = st.one_of(st.integers(-2, 6), st.booleans())
FLAWS = ("none", "bool", "swap", "duplicate", "row below", "row above", "col below", "col above")


@st.composite
def ones_lists(draw):
    """Ones for a small matrix, as a list or a tuple: either cells drawn
    anywhere around it (bools, duplicates, out of range), sorted or not,
    or sorted, valid pairs with at most one flaw put at the edge of the
    order or the range, where a check has to catch it."""
    rows, cols = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
    if draw(st.booleans()):
        cells = draw(st.lists(st.tuples(coordinate, coordinate), max_size=10))
        if draw(st.booleans()):
            cells.sort()
        return rows, cols, draw(st.sampled_from([tuple, list]))(cells)
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)))))
    cells = [(r, c) for r, c in cells if r < rows and c < cols]
    flaw = draw(st.sampled_from(FLAWS))
    if cells:
        i = draw(st.integers(0, len(cells) - 1))
        first = [j for j, cell in enumerate(cells) if j == 0 or cells[j - 1][0] < cell[0]]
        last = [j - 1 for j in first[1:]] + [len(cells) - 1]
        if flaw == "bool":
            k = draw(st.sampled_from([0, 1]))
            cells[i] = tuple(bool(x) if j == k and x in (0, 1) else x for j, x in enumerate(cells[i]))
        elif flaw == "swap" and i > 0:
            cells[i - 1], cells[i] = cells[i], cells[i - 1]
        elif flaw == "duplicate":
            cells.insert(i, cells[i])
        elif flaw == "row below":
            cells[0] = (-1, cells[0][1])
        elif flaw == "row above":
            cells[-1] = (rows, cells[-1][1])
        elif flaw == "col below":
            j = draw(st.sampled_from(first))
            cells[j] = (cells[j][0], -1)
        elif flaw == "col above":
            j = draw(st.sampled_from(last))
            cells[j] = (cells[j][0], cols)
    return rows, cols, draw(st.sampled_from([tuple, tuple, list]))(cells)


@settings(max_examples=400, deadline=None)
@given(ones_lists())
def test_bitmatrix_matches_reference_normaliser(case):
    rows, cols, ones = case
    want = reference_ones(rows, cols, ones)
    if isinstance(want, str):
        with pytest.raises(PreconditionError) as info:
            BitMatrix.from_ones(rows, cols, ones)
        assert str(info.value) == want
        return
    a = BitMatrix.from_ones(rows, cols, ones)
    assert a.ones == want
    assert type(a.ones) is tuple
    assert all(type(cell) is tuple and len(cell) == 2 for cell in a.ones)
    assert all(type(x) is int for cell in a.ones for x in cell)
    assert a.cells == tuple(r * cols + c for r, c in want)
    assert all(type(x) is int for x in a.cells)
    assert BitMatrix(rows, cols, a.cells).cells is a.cells  # the stored form is kept as it is


@pytest.mark.parametrize(
    "ones",
    [
        ((0, 0), (2, 1), (1, 2)),  # out of order
        ((0, 0), (1, 1), (1, 1)),  # duplicate
        ((-1, 2), (0, 0)),  # row below the range, first
        ((0, 0), (3, 1)),  # row above the range, last
        ((0, 1), (1, -1), (1, 0)),  # column below the range, first of its row
        ((0, 0), (0, 3), (2, 0)),  # column above the range, last of its row
        ((0, 0), (True, 1)),  # bool row
        ((2, False), (2, 2)),  # bool column
        ((0, 0), [1, 1]),  # a list cell
    ],
)
def test_bitmatrix_flawed_tuples_take_the_checked_path(ones):
    want = reference_ones(3, 3, ones)
    if isinstance(want, str):
        with pytest.raises(PreconditionError, match=re.escape(want)):
            BitMatrix.from_ones(3, 3, ones)
    else:
        a = BitMatrix.from_ones(3, 3, ones)
        assert a.ones == want and a.ones is not ones
        assert all(type(cell) is tuple and type(cell[0]) is int is type(cell[1]) for cell in a.ones)
        assert a.cells == tuple(r * 3 + c for r, c in want)


def test_bitmatrix_rejects_cells_that_are_not_pairs():
    for ones in (((0, 1, 0),), ((0, 0), (1,))):
        with pytest.raises(ValueError):
            BitMatrix.from_ones(2, 2, ones)


@pytest.mark.parametrize(
    "text, bad",
    [("1001\n0x2y\n", "x"), ("1a\nb0\n", "a"), ("1a\n011\n", "a"),
     ("1 0\n", " "), ("01\n1é\n", "é")],
)
def test_parse_matrix_names_first_invalid_character(text, bad):
    with pytest.raises(PreconditionError) as info:
        parse_matrix(text)
    assert str(info.value) == f"invalid character {bad!r} in matrix"


def test_parse_matrix_reports_ragged_line_before_later_bad_character():
    with pytest.raises(PreconditionError, match="line 2 has length 3, expected 2"):
        parse_matrix("10\n011\n0x\n")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_format_parse_roundtrip_random(rows, cols, data):
    grid = data.draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))
    a = BitMatrix.from_dense(grid)
    text = format_matrix(a)
    assert text == "\n".join("".join(map(str, row)) for row in grid)
    assert parse_matrix(text) == a
    assert parse_matrix(text + "\n") == a


@pytest.mark.parametrize(
    "rows, cols, text", [(0, 0, ""), (0, 3, ""), (1, 0, ""), (3, 0, "\n\n")]
)
def test_format_parse_without_rows_or_columns(rows, cols, text):
    # the format has one line per row and one character per column, so a
    # matrix with no row or no column is blank text, which parses as 0 x 0
    assert format_matrix(BitMatrix(rows, cols)) == text
    assert parse_matrix(text) == BitMatrix(0, 0)
