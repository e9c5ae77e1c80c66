"""Containment predicates with occurrence witnesses.

A sequence u contains a pattern v when some subsequence of u is isomorphic
to v; a matrix A contains a pattern P when strictly increasing row and
column index lists select a submatrix with a one wherever P has one.  The
empty pattern is contained in everything by convention (for matrices, any
pattern with zero ones counts as empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from patex._backend import kernels
from patex.matrices import BitMatrix
from patex.sequences import Sequence, as_sequence, normalize


@dataclass(frozen=True)
class SeqOccurrence:
    """Witness of sequence containment: positions in the host, strictly
    increasing, plus the injective (pattern letter -> host letter) map."""

    positions: tuple[int, ...]
    letter_map: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MatOccurrence:
    """Witness of matrix containment: the selected row and column index
    lists, each strictly increasing, one entry per pattern row/column."""

    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]

    def cells(self, p: BitMatrix) -> list[tuple[int, int]]:
        """Host cells onto which the ones of pattern p are mapped."""
        return [(self.row_indices[a], self.col_indices[b]) for a, b in p.ones]


def seq_contains(u, v) -> SeqOccurrence | None:
    """Occurrence of pattern v in u, or None when u is v-free.

    The returned occurrence has the lexicographically smallest position
    list among all occurrences.
    """
    host = as_sequence(u)
    pat = normalize(v)
    if len(pat) == 0:
        return SeqOccurrence((), ())
    pos = kernels.seq_find(list(host.letters), list(pat.letters))
    if pos is None:
        return None
    pairs = {}
    for p, x in zip(pos, pat.letters):
        pairs.setdefault(x, host.letters[p])
    return SeqOccurrence(tuple(pos), tuple(sorted(pairs.items())))


def mat_contains(a: BitMatrix, p: BitMatrix) -> MatOccurrence | None:
    """Occurrence of pattern p in a, or None when a avoids p."""
    if p.one_count == 0:
        return MatOccurrence((), ())
    res = kernels.mat_find(a.rows, a.cols, a.cells, p.rows, p.cols, p.cells)
    if res is None:
        return None
    return MatOccurrence(res[0], res[1])


def count_pattern_copies(a: BitMatrix, p: BitMatrix) -> int:
    """Exact number of distinct (row list, col list) occurrences of p in a.

    Exhaustive over all index-list pairs; intended for desk-scale counting
    checks, not for large hosts.
    """
    if p.one_count == 0:
        if p.rows > a.rows or p.cols > a.cols:
            return 0
        from math import comb

        return comb(a.rows, p.rows) * comb(a.cols, p.cols)
    ones = set(a.cells)
    pones = p.ones
    count = 0
    for rows in combinations(range(a.rows), p.rows):
        for cols in combinations(range(a.cols), p.cols):
            if all(rows[i] * a.cols + cols[j] in ones for i, j in pones):
                count += 1
    return count


def check_seq_occurrence(u, v, occ: SeqOccurrence) -> bool:
    """Validate a sequence occurrence witness against its claim."""
    host = as_sequence(u)
    pat = normalize(v)
    if len(occ.positions) != len(pat):
        return False
    if list(occ.positions) != sorted(set(occ.positions)):
        return False
    sub = Sequence(tuple(host.letters[p] for p in occ.positions))
    return normalize(sub).letters == pat.letters


def check_mat_occurrence(a: BitMatrix, p: BitMatrix, occ: MatOccurrence) -> bool:
    """Validate a matrix occurrence witness against its claim."""
    rows, cols = occ.row_indices, occ.col_indices
    if len(rows) != p.rows or len(cols) != p.cols:
        return False
    if list(rows) != sorted(set(rows)) or list(cols) != sorted(set(cols)):
        return False
    if rows and not (0 <= rows[0] and rows[-1] < a.rows):
        return False
    if cols and not (0 <= cols[0] and cols[-1] < a.cols):
        return False
    ones = set(a.cells)
    return all(rows[i] * a.cols + cols[j] in ones for i, j in p.ones)
