import pytest

from patex.errors import PreconditionError
from patex.matrices import BitMatrix, format_matrix, parse_matrix


def test_from_dense_and_back():
    grid = [[1, 0], [0, 1]]
    a = BitMatrix.from_dense(grid)
    assert a.rows == 2 and a.cols == 2
    assert a.ones == ((0, 0), (1, 1))
    assert a.dense() == grid


def test_ones_sorted_row_major():
    a = BitMatrix(2, 3, ((1, 2), (0, 1), (1, 0)))
    assert a.ones == ((0, 1), (1, 0), (1, 2))


def test_out_of_range_coordinate_rejected():
    with pytest.raises(PreconditionError):
        BitMatrix(2, 2, ((2, 0),))


def test_duplicate_coordinate_rejected():
    with pytest.raises(PreconditionError):
        BitMatrix(2, 2, ((0, 0), (0, 0)))


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
    a = BitMatrix(3, 2, ((0, 1), (2, 0)))
    assert parse_matrix(format_matrix(a)) == a
