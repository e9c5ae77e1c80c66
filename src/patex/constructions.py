"""Deterministic builders for the extremal instances and patterns used
throughout the package: block sequences, all-ones rectangles, diagonals,
the column-insertion and corner-join operations, and the matrix encoding
of a sequence pattern."""

from __future__ import annotations

import math

from patex.errors import PreconditionError
from patex.matrices import BitMatrix
from patex.sequences import Sequence, normalize

MAX_CELLS = 2**22
"""Most entries (matrix cells, rows x cols, or sequence letters) a builder
makes; it checks its size before it builds anything and raises
PreconditionError above this.  The largest benchmark host has 2**18 cells."""


def _check_size(entries: int, what: str) -> None:
    if entries > MAX_CELLS:
        raise PreconditionError(f"{what} would have {entries} entries, more than {MAX_CELLS}")


def block_sequence(k: int) -> Sequence:
    """k repetitions of the block a_1 ... a_k (length k^2, k letters)."""
    if k < 1:
        raise PreconditionError("block parameter k must be >= 1")
    _check_size(k * k, "block_sequence")
    return Sequence(tuple(range(k)) * k)


def all_ones(r: int, c: int) -> BitMatrix:
    """r x c matrix with every entry one."""
    if r < 1 or c < 1:
        raise PreconditionError("all_ones needs r, c >= 1")
    _check_size(r * c, "all_ones")
    return BitMatrix(r, c, tuple(range(r * c)))


def diagonal(k: int) -> BitMatrix:
    """k x k matrix with k ones on the main diagonal."""
    if k < 1:
        raise PreconditionError("diagonal needs k >= 1")
    _check_size(k * k, "diagonal")
    return BitMatrix(k, k, tuple(range(0, k * k, k + 1)))


def row(k: int) -> BitMatrix:
    """1 x k all-ones matrix."""
    if k < 1:
        raise PreconditionError("row needs k >= 1")
    return all_ones(1, k)


def column(k: int) -> BitMatrix:
    """k x 1 all-ones matrix."""
    if k < 1:
        raise PreconditionError("column needs k >= 1")
    return all_ones(k, 1)


def l_shape() -> BitMatrix:
    """The 2 x 2 pattern with ones everywhere except the top-right corner."""
    return BitMatrix(2, 2, (0, 2, 3))


def _floor_root(x: int, k: int) -> int:
    """Largest integer t with t**k <= x."""
    if x < 0 or k < 1:
        raise PreconditionError("floor root needs x >= 0, k >= 1")
    # the estimate goes through log, not x ** (1 / k): x may exceed a float
    t = int(round(math.exp(math.log(x) / k))) if x else 0
    while t > 0 and t**k > x:
        t -= 1
    while (t + 1) ** k <= x:
        t += 1
    return t


def upper_construction_allones(m: int, r: int) -> BitMatrix:
    """All-ones matrix with floor(m^(r/(r+1))) rows and floor(m^(1/(r+1)))
    columns — the hard instance showing that at most O(m^(r/(r+1))) ones
    survive when the r x r all-ones pattern is forbidden.

    Dimensions use exact integer roots, so when m = t^(r+1) the matrix is
    t^r x t with exactly m ones; otherwise the ones count is at most m.
    """
    if m < 1:
        raise PreconditionError("upper_construction_allones needs m >= 1")
    if r < 2:
        raise PreconditionError("upper_construction_allones needs r >= 2")
    # at most m cells; capping r like an r x r pattern's side keeps m**r small
    _check_size(max(m, r * r), "upper_construction_allones")
    cols = _floor_root(m, r + 1)
    rows = _floor_root(m**r, r + 1)
    return all_ones(rows, cols)


def insert_column(p: BitMatrix, r: int, c: int) -> BitMatrix:
    """Widen p by a new column between columns c and c+1 carrying a single
    one in row r.  Requires p to have ones at (r, c) and (r, c+1)."""
    ones = set(p.ones)
    if (r, c) not in ones or (r, c + 1) not in ones:
        raise PreconditionError(
            f"insert_column needs adjacent ones at ({r},{c}) and ({r},{c + 1})"
        )
    cells = [(i, j if j <= c else j + 1) for i, j in ones]
    cells.append((r, c + 1))
    return BitMatrix.from_ones(p.rows, p.cols + 1, cells)


def corner_join(p: BitMatrix, copies: int) -> BitMatrix:
    """Staircase of `copies` copies of p, consecutive copies sharing one
    cell: the top-right corner of the lower-left copy coincides with the
    bottom-left corner of the copy above-right of it.  Requires ones in
    both corners; copies=1 returns p itself."""
    if copies < 1:
        raise PreconditionError("corner_join needs copies >= 1")
    ones = set(p.ones)
    if (p.rows - 1, 0) not in ones or (0, p.cols - 1) not in ones:
        raise PreconditionError("corner_join needs ones in bottom-left and top-right corners")
    if copies == 1:
        return p
    rows = copies * p.rows - (copies - 1)
    cols = copies * p.cols - (copies - 1)
    _check_size(max(rows * cols, copies), "corner_join")  # one pass per copy
    cells = set()
    for t in range(copies):
        roff = (copies - 1 - t) * (p.rows - 1)
        coff = t * (p.cols - 1)
        for i, j in ones:
            cells.add((roff + i, coff + j))
    return BitMatrix.from_ones(rows, cols, cells)


def pattern_from_sequence(v) -> BitMatrix:
    """r x t matrix encoding of a sequence pattern v (r distinct letters,
    t = length): a one in row i, column j iff the j-th letter of v is the
    i-th distinct letter.  Exactly one one per column."""
    seq = normalize(v)
    if len(seq) == 0:
        raise PreconditionError("pattern_from_sequence needs a nonempty sequence")
    return BitMatrix.from_ones(seq.distinct, len(seq), ((x, j) for j, x in enumerate(seq.letters)))


def four_forcing_patterns() -> list[BitMatrix]:
    """The four small patterns whose presence forces a square-root lower
    bound via the monotone-subsequence extractor, in fixed order."""
    return [
        BitMatrix.from_dense([[0, 1, 0], [1, 0, 1]]),
        BitMatrix.from_dense([[0, 0, 1], [1, 1, 0]]),
        BitMatrix.from_dense([[0, 1], [1, 1]]),
        BitMatrix.from_dense([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ]
