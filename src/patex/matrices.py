"""0-1 matrices stored as dimensions plus a sorted coordinate list of ones.

Row and column order is semantic: containment preserves both orders, so no
permutation symmetry is ever applied anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, lt
from typing import Iterable

from patex.errors import PreconditionError

Cell = tuple[int, int]

_TUPLE, _PAIR, _INT = {tuple}, {2}, {int}
_row, _col = itemgetter(0), itemgetter(1)


def _is_canonical(cells, rows: int, cols: int) -> bool:
    """True when cells is already in stored form: a tuple of (int, int)
    tuples, strictly increasing in row-major order (so free of duplicates)
    and inside rows x cols.  Every pass over the cells runs in C."""
    if type(cells) is not tuple or set(map(type, cells)) != _TUPLE:
        return False
    if set(map(len, cells)) != _PAIR:
        return False
    cs = list(map(_col, cells))
    if set(map(type, map(_row, cells))) != _INT or set(map(type, cs)) != _INT:
        return False
    return (
        all(map(lt, cells, cells[1:]))
        and 0 <= cells[0][0]
        and cells[-1][0] < rows
        and 0 <= min(cs)
        and max(cs) < cols
    )


@dataclass(frozen=True)
class BitMatrix:
    """rows x cols matrix with ones at the given (row, col) coordinates.

    ones is stored as a tuple of (int, int) pairs sorted row-major.  A
    tuple already in that form is kept as it is; anything else is
    converted, sorted and checked.
    """

    rows: int
    cols: int
    ones: tuple[Cell, ...] = ()

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise PreconditionError("matrix dimensions must be >= 0")
        if _is_canonical(self.ones, self.rows, self.cols):
            return
        cells = tuple(sorted((int(r), int(c)) for r, c in self.ones))
        for r, c in cells:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise PreconditionError(
                    f"coordinate ({r},{c}) outside {self.rows}x{self.cols}"
                )
        if len(set(cells)) != len(cells):
            raise PreconditionError("duplicate coordinates in ones list")
        object.__setattr__(self, "ones", cells)

    @property
    def one_count(self) -> int:
        return len(self.ones)

    @classmethod
    def from_dense(cls, grid: Iterable[Iterable[int]]) -> "BitMatrix":
        rows = [list(row) for row in grid]
        ncols = len(rows[0]) if rows else 0
        cells = []
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise PreconditionError("ragged rows in dense matrix")
            for c, val in enumerate(row):
                if val not in (0, 1):
                    raise PreconditionError("dense entries must be 0 or 1")
                if val:
                    cells.append((r, c))
        return cls(len(rows), ncols, tuple(cells))

    def dense(self) -> list[list[int]]:
        grid = [[0] * self.cols for _ in range(self.rows)]
        for r, c in self.ones:
            grid[r][c] = 1
        return grid


def kernel_form(a: BitMatrix) -> tuple[int, int, list[int], list[int]]:
    """a as the search kernels take a matrix: rows, cols, then the row and
    the column list of its ones in row-major order."""
    return a.rows, a.cols, [r for r, _ in a.ones], [c for _, c in a.ones]


def parse_matrix(text: str) -> BitMatrix:
    """Parse the canonical matrix format: one row per line of '0'/'1'
    characters, all lines equal length, no separators.  Blank lines at the
    end are ignored, so text with no row, or with empty rows only, parses
    as the 0 x 0 matrix."""
    lines = [ln.strip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        return BitMatrix(0, 0)
    width = len(lines[0])
    cells = []
    for r, ln in enumerate(lines):
        if len(ln) != width:
            raise PreconditionError(f"line {r + 1} has length {len(ln)}, expected {width}")
        bad = ln.strip("01")
        if bad:
            raise PreconditionError(f"invalid character {bad[0]!r} in matrix")
        cells += [(r, c) for c, ch in enumerate(ln) if ch == "1"]
    return BitMatrix(len(lines), width, tuple(cells))


def format_matrix(a: BitMatrix) -> str:
    """Serialize to the canonical line-per-row format."""
    grid = [["0"] * a.cols for _ in range(a.rows)]
    for r, c in a.ones:
        grid[r][c] = "1"
    return "\n".join(map("".join, grid))
