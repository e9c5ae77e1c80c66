"""0-1 matrices stored as dimensions plus the sorted row-major indices of
their ones (r * cols + c for the one in row r, column c), the form the
search kernels take as it is.

Row and column order is semantic: containment preserves both orders, so no
permutation symmetry is ever applied anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import lt
from typing import Iterable

from patex.errors import PreconditionError

_BITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class BitMatrix:
    """rows x cols matrix with ones at the given cell indices.

    cells must already be in stored form: a tuple of ints, strictly
    increasing, each in [0, rows * cols).  It is checked, never converted;
    build from (row, col) pairs with from_ones.
    """

    rows: int
    cols: int
    cells: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise PreconditionError("matrix dimensions must be >= 0")
        cells, size = self.cells, self.rows * self.cols
        # every pass runs in C; type(True) is bool, so bools fail too
        if type(cells) is not tuple or cells and not (
            set(map(type, cells)) == {int}
            and all(map(lt, cells, cells[1:]))
            and 0 <= cells[0]
            and cells[-1] < size
        ):
            raise PreconditionError(f"cells must be a strictly increasing tuple of ints in [0, {size})")

    @classmethod
    def from_ones(cls, rows: int, cols: int, ones: Iterable[tuple[int, int]]) -> "BitMatrix":
        """The matrix with ones at the given (row, col) pairs, in any order."""
        if rows < 0 or cols < 0:
            raise PreconditionError("matrix dimensions must be >= 0")
        pairs = sorted((int(r), int(c)) for r, c in ones)
        for r, c in pairs:
            if not (0 <= r < rows and 0 <= c < cols):
                raise PreconditionError(f"coordinate ({r},{c}) outside {rows}x{cols}")
        if len(set(pairs)) != len(pairs):
            raise PreconditionError("duplicate coordinates in ones list")
        return cls(rows, cols, tuple(r * cols + c for r, c in pairs))

    @property
    def ones(self) -> tuple[tuple[int, int], ...]:
        """The (row, col) pairs of the ones, row-major; built in O(ones) per access."""
        return tuple(divmod(x, self.cols) for x in self.cells)

    @property
    def one_count(self) -> int:
        return len(self.cells)

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
                    cells.append(r * ncols + c)
        return cls(len(rows), ncols, tuple(cells))

    def dense(self) -> list[list[int]]:
        return [[int(ch) for ch in ln] for ln in format_matrix(self).split("\n")] if self.rows else []


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
    for r, ln in enumerate(lines):
        if len(ln) != width:
            raise PreconditionError(f"line {r + 1} has length {len(ln)}, expected {width}")
        bad = ln.strip("01")
        if bad:
            raise PreconditionError(f"invalid character {bad[0]!r} in matrix")
    bits = "".join(lines).encode("ascii").translate(_BITS)
    return BitMatrix(len(lines), width, tuple(compress(range(len(bits)), bits)))


def format_matrix(a: BitMatrix) -> str:
    """Serialize to the canonical line-per-row format."""
    flat = bytearray(b"0" * (a.rows * a.cols))
    for x in a.cells:
        flat[x] = 49  # ord("1")
    text = flat.decode("ascii")
    return "\n".join([text[r * a.cols : (r + 1) * a.cols] for r in range(a.rows)])
