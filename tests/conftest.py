"""Shared brute-force oracles, deliberately independent of the package's
search kernels: plain itertools enumeration with inline canonical forms.
They are exponential and only meant for instances of a dozen elements."""

from itertools import combinations

import pytest

from patex import backend_name
from patex.matrices import BitMatrix


def pytest_report_header(config):
    return f"patex kernel backend: {backend_name()}"


def canon(letters):
    """Canonical relabeling by first occurrence (independent of patex)."""
    ids = {}
    return tuple(ids.setdefault(x, len(ids)) for x in letters)


def brute_seq_contains(u, v):
    """Exhaustive containment check over all position subsets."""
    u = tuple(u)
    v = tuple(v)
    target = canon(v)
    if len(v) == 0:
        return True
    return any(canon(sub) == target for sub in combinations(u, len(v)))


def brute_lss(u, v):
    """Exhaustive longest v-free subsequence over all 2^len(u) subsets."""
    u = tuple(u)
    best = 0
    for mask in range(1 << len(u)):
        sub = tuple(u[i] for i in range(len(u)) if mask >> i & 1)
        if len(sub) > best and not brute_seq_contains(sub, v):
            best = len(sub)
    return best


def brute_mat_contains(a: BitMatrix, p: BitMatrix) -> bool:
    """Exhaustive containment over all row/column index list pairs."""
    ones = set(a.ones)
    if p.one_count == 0:
        return p.rows <= a.rows and p.cols <= a.cols
    for rows in combinations(range(a.rows), p.rows):
        for cols in combinations(range(a.cols), p.cols):
            if all((rows[i], cols[j]) in ones for i, j in p.ones):
                return True
    return False


def brute_lsm(a: BitMatrix, p: BitMatrix) -> int:
    """Exhaustive max ones avoiding p, over all subsets of a's ones."""
    cells = list(a.ones)
    best = 0
    for mask in range(1 << len(cells)):
        kept = tuple(cells[i] for i in range(len(cells)) if mask >> i & 1)
        if len(kept) > best and not brute_mat_contains(
            BitMatrix.from_ones(a.rows, a.cols, kept), p
        ):
            best = len(kept)
    return best


@pytest.fixture
def four_patterns():
    from patex.constructions import four_forcing_patterns

    return four_forcing_patterns()
