"""Exact solvers and tiny-instance minimization oracles.

lss_exact / lsm_exact find the longest pattern-avoiding subsequence /
submatrix by depth-first branch and bound over keep/drop decisions with
the bound kept + remaining.  No polynomial algorithm is known for any of
these problems, so the worst case is exponential; every entry point takes
a node budget and raises BudgetExceededError rather than approximating.

ss_oracle / sm_oracle minimize over all instances of a given size.  The
sequence oracle enumerates restricted growth strings (one canonical
representative per isomorphism class — the objective is isomorphism
invariant); the matrix oracle walks all placements with no all-zero row or
column, which is exhaustive because empty rows and columns never affect
containment, and prunes a partial placement as soon as the ones left cannot
fill its empty rows and columns.  An oracle's budget caps the total nodes
of all its instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from patex._backend import kernels
from patex.constructions import all_ones
from patex.errors import BudgetExceededError, PreconditionError
from patex.matrices import BitMatrix
from patex.sequences import Sequence, alternation, as_sequence, normalize

DEFAULT_NODE_BUDGET = 500_000_000
SS_ORACLE_LIMIT = 10
SM_ORACLE_LIMIT = 5


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one exact solve: optimum, an optimal witness (retained
    positions or retained ones, lexicographically smallest), node count,
    and wall time in seconds."""

    value: int
    witness: tuple
    nodes: int
    elapsed: float


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an instance-minimization oracle: the minimum value, one
    minimizer (first in enumeration order), total nodes, wall time."""

    value: int
    argmin: Sequence | BitMatrix
    nodes: int
    elapsed: float


def lss_exact(u, v, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Length of the longest v-free subsequence of u, with witness positions."""
    host = as_sequence(u)
    pat = normalize(v)
    if len(pat) == 0:
        raise PreconditionError("forbidden sequence pattern must be nonempty")
    start = time.perf_counter()
    status, value, pos, nodes = kernels.lss_search(list(host.letters), list(pat.letters), budget)
    if status:
        raise BudgetExceededError(f"lss node budget {budget} exceeded", nodes=nodes)
    return SolveResult(value, pos, nodes, time.perf_counter() - start)


def lsm_exact(a: BitMatrix, p: BitMatrix, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Most ones in a P-avoiding matrix obtained from a by clearing ones.

    The witness is the retained coordinate list.
    """
    if p.one_count == 0:
        raise PreconditionError("forbidden matrix pattern must have at least one one")
    start = time.perf_counter()
    status, value, sel, nodes = kernels.lsm_search(
        a.rows, a.cols, a.cells, p.rows, p.cols, p.cells, budget
    )
    if status:
        raise BudgetExceededError(f"lsm node budget {budget} exceeded", nodes=nodes)
    witness = tuple(divmod(a.cells[i], a.cols) for i in sel)
    return SolveResult(value, witness, nodes, time.perf_counter() - start)


def ex_exact(n: int, p: BitMatrix, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Maximum ones in an n x n matrix avoiding p (exact, branch and bound),
    solved as lsm_exact on the n x n all-ones host.

    Raises BudgetExceededError when the instance is too large for the node
    budget — never returns an approximation.
    """
    if n < 1:
        raise PreconditionError("ex_exact needs n >= 1")
    return lsm_exact(all_ones(n, n), p, budget=budget)


def restricted_growth_strings(m: int) -> Iterator[tuple[int, ...]]:
    """All normalized sequences of length m in lexicographic order.

    A tuple u qualifies iff u[0] == 0 and u[i] <= max(u[:i]) + 1; these are
    exactly the canonical representatives of the isomorphism classes.  Each
    string of length m - 1 is extended, in order, by every last letter it
    allows.
    """
    if m < 0:
        raise PreconditionError("length must be >= 0")
    if m < 2:
        yield (0,) * m
        return
    tails = [(x,) for x in range(m)]
    for head in restricted_growth_strings(m - 1):
        for tail in tails[: max(head) + 2]:
            yield head + tail


def _placements(m: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Every matrix with exactly m ones, no all-zero row or column and at
    most m rows and columns, as (rows, cols, cells), in lexicographic
    (rows, cols, placement) order.

    A depth-first walk over the cells in increasing row-major index.  The
    rows of the ones never decrease, so a step may not skip a row; a branch
    is cut as soon as the ones left cannot cover the rows below the last
    one or the columns still missing.
    """
    cells = [0] * m

    def walk(r, c, k, last_row, nxt_col, cmask, missing):
        left = m - k
        if not left:
            yield r, c, tuple(cells)
            return
        # this one goes at (last_row, nxt_col) or later; at row r - left or
        # below, or the ones left cannot reach the last row, and at most one
        # row below the last one, or a row stays empty; once every one left
        # must fill a missing column (missing == left), a filled one is cut
        for i in range(max(last_row, r - left), min(r, last_row + 2)):
            for j in range(nxt_col if i == last_row else 0, c):
                bit = 1 << j
                fills = not cmask & bit
                if missing == left and not fills:
                    continue
                cells[k] = i * c + j
                yield from walk(r, c, k + 1, i, j + 1, cmask | bit, missing - fills)

    for r in range(1, m + 1):
        for c in range(1, m + 1):
            if r * c >= m:
                yield from walk(r, c, 0, -1, c, 0, c)


def ss_oracle(
    m: int,
    v,
    limit: int = SS_ORACLE_LIMIT,
    budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Minimum of lss_exact(u, v) over all sequences u of length m.

    Enumerates one representative per isomorphism class; the argmin is the
    lexicographically smallest canonical minimizer.  budget caps the total
    nodes of all the instances searched: each instance gets what the ones
    before it left, and BudgetExceededError carries the total so far.
    """
    if m < 0:
        raise PreconditionError("length must be >= 0")
    if m > limit:
        raise BudgetExceededError(f"ss_oracle limit {limit} exceeded (m={m})")
    pat = normalize(v)
    if len(pat) == 0:
        raise PreconditionError("forbidden sequence pattern must be nonempty")
    pat_letters = list(pat.letters)
    start = time.perf_counter()
    best = None
    best_u = None
    total_nodes = 0
    for letters in restricted_growth_strings(m):
        status, value, _, nodes = kernels.lss_search(letters, pat_letters, budget - total_nodes)
        total_nodes += nodes
        if status:
            raise BudgetExceededError(
                f"ss_oracle total node budget {budget} exceeded", nodes=total_nodes
            )
        if best is None or value < best:
            best = value
            best_u = letters
            if best == 0:
                break
    return OracleResult(best, Sequence(best_u), total_nodes, time.perf_counter() - start)


def sm_oracle(
    m: int,
    p: BitMatrix,
    limit: int = SM_ORACLE_LIMIT,
    budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Minimum of lsm_exact(a, p) over all matrices a with m ones.

    Containment is order-sensitive, so no row/column permutation symmetry
    is applied; the argmin is the first minimizer in enumeration order.
    budget caps the total nodes of all the instances searched: each instance
    gets what the ones before it left, and BudgetExceededError carries the
    total so far.
    """
    if m < 1:
        raise PreconditionError("need at least one one")
    if m > limit:
        raise BudgetExceededError(f"sm_oracle limit {limit} exceeded (m={m})")
    if p.one_count == 0:
        raise PreconditionError("forbidden matrix pattern must have at least one one")
    pattern = p.rows, p.cols, p.cells
    start = time.perf_counter()
    best = None
    best_a = None
    total_nodes = 0
    for host in _placements(m):
        status, value, _, nodes = kernels.lsm_search(*host, *pattern, budget - total_nodes)
        total_nodes += nodes
        if status:
            raise BudgetExceededError(
                f"sm_oracle total node budget {budget} exceeded", nodes=total_nodes
            )
        if best is None or value < best:
            best = value
            best_a = host
            if best == 0:
                break
    return OracleResult(best, BitMatrix(*best_a), total_nodes, time.perf_counter() - start)


def lsp_upper(u, k: int, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Certified upper bound on the longest subsequence of u realizable by
    degree-<=k polynomials: the longest subsequence avoiding the alternation
    of length k + 2 (two degree-k polynomials cross at most k times),
    solved by lss_exact."""
    if k < 1:
        raise PreconditionError("degree bound k must be >= 1")
    return lss_exact(u, alternation(k + 2), budget=budget)
