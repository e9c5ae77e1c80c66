"""Constructive lower-bound extractors.

Each routine takes a host object and returns a certified avoiding
sub-object together with the size the underlying argument promises:

  * probabilistic_extract — keep each one independently with the tuned
    probability, then repair any surviving pattern copies; the expected
    size is m*p - p^(ones of P) * m^r and the repaired output is
    unconditionally pattern-free;
  * erdos_szekeres_extract — a longest monotone subsequence of the
    column-index scan, at least ceil(sqrt(m)) ones, avoiding all four
    patterns returned by four_forcing_patterns();
  * dichotomy_extract — either one letter repeated ceil(sqrt(m)) times or
    ceil(sqrt(m)) distinct letters, whichever the host admits;
  * alternate_thinning — keep every other one in each row, halving at worst.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby

from patex._backend import kernels
from patex.constructions import l_shape
from patex.errors import PreconditionError
from patex.matrices import BitMatrix
from patex.sequences import Sequence, as_sequence


@dataclass(frozen=True)
class ExtractReport:
    """Result of one extraction: the avoiding witness, its size, the
    guaranteed size the method promises, a method tag, the seed for
    randomized methods, (for sequence witnesses) the retained positions
    in the host, and (for probabilistic_extract) the number of pattern
    copies the repair deleted."""

    witness: BitMatrix | Sequence
    size: int
    guarantee: int
    method: str
    seed: int | None = None
    positions: tuple[int, ...] | None = None
    kind: str | None = None
    repairs: int | None = None


def isqrt_ceil(m: int) -> int:
    """ceil(sqrt(m)) via integer arithmetic."""
    if m < 0:
        raise PreconditionError("isqrt_ceil needs m >= 0")
    if m == 0:
        return 0
    return math.isqrt(m - 1) + 1


def _deletion_parameters(p: BitMatrix, m: int):
    """Keep-probability and copy-count exponent for the supported patterns.

    The r x r all-ones pattern keeps with probability m^(-1/(r+1))/2 and
    at most m^r copies weighted p^(r^2); the L-shape keeps with m^(-1/2)/2
    and at most m^2 copies weighted p^3.
    """
    if p.rows == p.cols and p.rows >= 2 and p.one_count == p.rows * p.cols:
        r = p.rows
        return 0.5 * m ** (-1.0 / (r + 1)), r, f"prob-allones-{r}x{r}"
    if p == l_shape():
        return 0.5 * m**-0.5, 2, "prob-lshape"
    raise PreconditionError(
        "probabilistic_extract supports square all-ones patterns (r >= 2) and the L-shape"
    )


def probabilistic_extract(a: BitMatrix, p: BitMatrix, seed: int = 0) -> ExtractReport:
    """Random sparsification of a followed by repair until p-free.

    Keeps each one of a independently with the pattern-specific probability,
    then repeatedly finds a copy of p and deletes its row-major-last cell
    until none remains.  The output is always p-free; the guarantee field
    is the floor of the expected-size bound.

    The kept cells stay one sorted list the kernel takes as it is, so each
    repair is one kernel search and one deletion.  The row-major-last cell
    of a copy is the image of p's last one, since the copy's row and column
    maps are increasing.
    """
    m = a.one_count
    if m < 1:
        raise PreconditionError("host matrix needs at least one one")
    keep_p, rexp, method = _deletion_parameters(p, m)
    coin = random.Random(seed).random
    kept = [x for x in a.cells if coin() < keep_p]
    last_r, last_c = divmod(p.cells[-1], p.cols)
    repairs = 0
    while True:
        occ = kernels.mat_find(a.rows, a.cols, kept, p.rows, p.cols, p.cells)
        if occ is None:
            break
        del kept[bisect_left(kept, occ[0][last_r] * a.cols + occ[1][last_c])]
        repairs += 1
    expectation = m * keep_p - keep_p**p.one_count * m**rexp
    guarantee = max(0, math.floor(expectation))
    witness = BitMatrix(a.rows, a.cols, tuple(kept))
    return ExtractReport(
        witness, witness.one_count, guarantee, method, seed=seed, repairs=repairs
    )


def _longest_monotone(vals: list[int], decreasing: bool) -> list[int]:
    """Indices of a longest non-decreasing (or non-increasing) subsequence,
    by patience sorting with parent links; O(m log m)."""
    keys = [-v for v in vals] if decreasing else vals
    tops_val: list[int] = []
    tops_idx: list[int] = []
    parent = [-1] * len(vals)
    for i, v in enumerate(keys):
        j = bisect_right(tops_val, v)
        if j == len(tops_val):
            tops_val.append(v)
            tops_idx.append(i)
        else:
            tops_val[j] = v
            tops_idx[j] = i
        parent[i] = tops_idx[j - 1] if j > 0 else -1
    out: list[int] = []
    i = tops_idx[-1] if tops_idx else -1
    while i != -1:
        out.append(i)
        i = parent[i]
    out.reverse()
    return out


def erdos_szekeres_extract(a: BitMatrix) -> ExtractReport:
    """Monotone sub-structure of at least ceil(sqrt(m)) ones.

    Scans a's ones row-major, takes the longest non-decreasing and longest
    non-increasing subsequences of their column indices, and keeps the
    larger (non-decreasing preferred on ties).  The kept ones avoid every
    pattern in four_forcing_patterns().
    """
    m = a.one_count
    if m < 1:
        raise PreconditionError("host matrix needs at least one one")
    vals = [x % a.cols for x in a.cells]
    inc = _longest_monotone(vals, decreasing=False)
    dec = _longest_monotone(vals, decreasing=True)
    pick = inc if len(inc) >= len(dec) else dec
    witness = BitMatrix(a.rows, a.cols, tuple(a.cells[i] for i in pick))
    return ExtractReport(witness, witness.one_count, isqrt_ceil(m), "erdos-szekeres")


def dichotomy_extract(u) -> ExtractReport:
    """Either a constant subsequence of length >= ceil(sqrt(m)) or a
    subsequence of ceil(sqrt(m)) distinct letters (one occurrence each).

    If some letter reaches the threshold the repeated branch wins (all its
    occurrences are returned); otherwise there are at least ceil(sqrt(m))
    distinct letters and their first occurrences are returned.
    """
    host = as_sequence(u)
    m = len(host)
    if m < 1:
        raise PreconditionError("host sequence must be nonempty")
    threshold = isqrt_ceil(m)
    counts: dict[int, int] = {}
    first_seen: list[int] = []
    for letter in host.letters:
        if letter not in counts:
            counts[letter] = 0
            first_seen.append(letter)
        counts[letter] += 1
    best_letter = max(first_seen, key=lambda x: counts[x])
    if counts[best_letter] >= threshold:
        positions = tuple(i for i, x in enumerate(host.letters) if x == best_letter)
        kind = "repeated"
    else:
        firsts = []
        seen: set[int] = set()
        for i, x in enumerate(host.letters):
            if x not in seen:
                seen.add(x)
                firsts.append(i)
                if len(firsts) == threshold:
                    break
        positions = tuple(firsts)
        kind = "rainbow"
    witness = Sequence(tuple(host.letters[i] for i in positions))
    return ExtractReport(
        witness,
        len(witness),
        threshold,
        f"dichotomy-{kind}",
        positions=positions,
        kind=kind,
    )


def alternate_thinning(a: BitMatrix) -> BitMatrix:
    """Keep the 1st, 3rd, 5th, ... one of each row (left-to-right order),
    clearing the rest; at least half of every row survives."""
    rows = groupby(a.cells, lambda x: x // a.cols)
    return BitMatrix(a.rows, a.cols, tuple(x for _, run in rows for x in tuple(run)[::2]))


def sequence_to_matrix(positions, k: int) -> BitMatrix:
    """k x k incidence matrix of a subsequence of block_sequence(k): a one
    in row i, column j iff the subsequence keeps letter i inside block j.

    positions are the retained indices into block_sequence(k), strictly
    increasing within [0, k^2).
    """
    if k < 1:
        raise PreconditionError("block parameter k must be >= 1")
    pos = [int(x) for x in positions]
    if pos != sorted(set(pos)):
        raise PreconditionError("positions must be strictly increasing")
    if pos and not (0 <= pos[0] and pos[-1] < k * k):
        raise PreconditionError(f"positions must lie in [0, {k * k})")
    return BitMatrix(k, k, tuple(sorted(p % k * k + p // k for p in pos)))
