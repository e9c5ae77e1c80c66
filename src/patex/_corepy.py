"""Pure-Python search kernels.

These are the hot inner loops of the package: occurrence search for
sequence and matrix patterns, and the keep/drop branch-and-bound behind
the exact solvers.  patex._corec is a compiled twin with the identical
traversal order; for any input both backends return bit-identical results
(including node counts).  Backend selection happens in patex._backend.

Conventions shared by both backends:
  * sequences are lists of non-negative ints, patterns normalized
    (letters 0..r-1 in first-occurrence order);
  * matrix ones are given as sorted row-major cell indices r * cols + c;
  * searches visit candidates in ascending order and keep-branches before
    drop-branches, so the first optimum found is the lexicographically
    smallest witness.
"""

import sys
from bisect import bisect_left

BACKEND = "python"

OK = 0
BUDGET_EXCEEDED = 1


def _ensure_stack(depth):
    # every search recurses one level per element or pattern letter; the
    # keep/drop searches run a creates-check inside each of their levels
    need = depth + 100
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)


# ---------------------------------------------------------------------------
# sequence pattern search
# ---------------------------------------------------------------------------

def seq_find(u, v):
    """Lexicographically smallest occurrence of pattern v in u, or None.

    An occurrence is a strictly increasing position list p with an injective
    letter map f such that u[p[j]] == f(v[j]) for all j.
    """
    n = len(u)
    t = len(v)
    if t == 0:
        return []
    if t > n:
        return None
    _ensure_stack(t)
    r = max(v) + 1
    vmap = [-1] * r
    pos = [0] * t

    def rec(j, start):
        if j == t:
            return True
        x = v[j]
        for p in range(start, n - (t - 1 - j)):
            a = u[p]
            m = vmap[x]
            if m == a:
                pos[j] = p
                if rec(j + 1, p + 1):
                    return True
            elif m == -1:
                dup = False
                for q in vmap:
                    if q == a:
                        dup = True
                        break
                if not dup:
                    vmap[x] = a
                    pos[j] = p
                    if rec(j + 1, p + 1):
                        return True
                    vmap[x] = -1
        return False

    return list(pos) if rec(0, 0) else None


def _seq_creates(w, wlen, v, t, vmap):
    """True iff w[:wlen] has an occurrence of v ending exactly at wlen - 1.

    Used incrementally by lss_search: the prefix w[:wlen-1] is known v-free,
    so any new occurrence must use the final element, and by order it must
    match v's final letter.
    """
    if t > wlen:
        return False
    for q in range(len(vmap)):
        vmap[q] = -1
    last = v[t - 1]
    a_last = w[wlen - 1]
    vmap[last] = a_last

    def rec(j, start):
        if j == t - 1:
            return True
        x = v[j]
        for p in range(start, wlen - 1 - (t - 2 - j)):
            a = w[p]
            m = vmap[x]
            if m == a:
                if rec(j + 1, p + 1):
                    return True
            elif m == -1:
                dup = False
                for q in vmap:
                    if q == a:
                        dup = True
                        break
                if not dup:
                    vmap[x] = a
                    if rec(j + 1, p + 1):
                        return True
                    vmap[x] = -1
        return False

    return rec(0, 0)


def lss_search(u, v, budget):
    """Longest v-free subsequence of u by keep/drop branch and bound.

    The bound is kept + remaining; a branch is cut when it cannot strictly
    improve.  Returns (status, value, positions, nodes); status is
    BUDGET_EXCEEDED when the node budget ran out, in which case the other
    fields are the best-so-far.
    """
    n = len(u)
    t = len(v)
    _ensure_stack(n + t)
    r = max(v) + 1 if t else 1
    vmap = [-1] * r
    kept_pos = [0] * n
    kept_let = [0] * n
    best = -1
    best_pos = ()
    nodes = 0
    status = OK

    def rec(i, k):
        nonlocal best, best_pos, nodes, status
        if status:
            return
        nodes += 1
        if nodes > budget:
            status = BUDGET_EXCEEDED
            return
        if i == n:
            if k > best:
                best = k
                best_pos = tuple(kept_pos[:k])
            return
        if k + (n - i) <= best:
            return
        kept_let[k] = u[i]
        if not _seq_creates(kept_let, k + 1, v, t, vmap):
            kept_pos[k] = i
            rec(i + 1, k + 1)
        rec(i + 1, k)

    rec(0, 0)
    return (status, best, best_pos, nodes)


# ---------------------------------------------------------------------------
# matrix pattern search
# ---------------------------------------------------------------------------

def _row_bounds(rowmap, pr, a, ar):
    """Feasible A-row interval for unmapped pattern row a."""
    lo = a
    hi = ar - 1 - (pr - 1 - a)
    for a2 in range(pr):
        i2 = rowmap[a2]
        if i2 < 0:
            continue
        if a2 < a:
            cand = i2 + (a - a2)
            if cand > lo:
                lo = cand
        elif a2 > a:
            cand = i2 - (a2 - a)
            if cand < hi:
                hi = cand
    return lo, hi


def _col_bounds(colmap, pc, b, ac):
    """Feasible A-column interval for unmapped pattern column b."""
    lo = b
    hi = ac - 1 - (pc - 1 - b)
    for b2 in range(pc):
        j2 = colmap[b2]
        if j2 < 0:
            continue
        if b2 < b:
            cand = j2 + (b - b2)
            if cand > lo:
                lo = cand
        elif b2 > b:
            cand = j2 - (b2 - b)
            if cand < hi:
                hi = cand
    return lo, hi


def _complete_map(amap, limit):
    """Place unmapped indices greedily in the gaps; feasibility is
    guaranteed by the interval constraints maintained during the search."""
    cur = -1
    for a in range(len(amap)):
        if amap[a] >= 0:
            cur = amap[a]
        else:
            cur += 1
            amap[a] = cur
    assert cur < limit
    return amap


def mat_find(ar, ac, acells, pr, pc, pcells):
    """First occurrence of pattern P in A, or None.

    Backtracks over P's ones in row-major order with row/column interval
    pruning.  Returns full strictly-increasing (row list, col list) index
    maps, with rows/columns not forced by any one placed greedily.
    """
    na = len(acells)
    np_ = len(pcells)
    if np_ > na or pr > ar or pc > ac:
        return None
    _ensure_stack(np_)
    row_ptr = [0] * (ar + 1)
    for x in acells:
        row_ptr[x // ac + 1] += 1
    for i in range(ar):
        row_ptr[i + 1] += row_ptr[i]
    rowmap = [-1] * pr
    colmap = [-1] * pc

    def rec(k):
        if k == np_:
            return True
        a, b = divmod(pcells[k], pc)
        if rowmap[a] >= 0:
            rlo = rhi = rowmap[a]
        else:
            rlo, rhi = _row_bounds(rowmap, pr, a, ar)
        for i in range(rlo, rhi + 1):
            lo_idx = row_ptr[i]
            hi_idx = row_ptr[i + 1]
            if lo_idx == hi_idx:
                continue
            if colmap[b] >= 0:
                clo = chi = colmap[b]
            else:
                clo, chi = _col_bounds(colmap, pc, b, ac)
            if clo > chi:
                continue
            base = i * ac
            idx = bisect_left(acells, base + clo, lo_idx, hi_idx)
            new_row = rowmap[a] < 0
            while idx < hi_idx and acells[idx] <= base + chi:
                j = acells[idx] - base
                new_col = colmap[b] < 0
                rowmap[a] = i
                colmap[b] = j
                if rec(k + 1):
                    return True
                if new_col:
                    colmap[b] = -1
                if new_row:
                    rowmap[a] = -1
                idx += 1
        return False

    if not rec(0):
        return None
    _complete_map(rowmap, ar)
    _complete_map(colmap, ac)
    return (tuple(rowmap), tuple(colmap))


def _mat_creates(kept_r, kept_c, kc, ar, ac, pr, pc, prows, pcols, rowmap, colmap):
    """True iff the kept cells contain P with P's last one at kept[kc-1].

    The kept cells are in row-major order and their prefix is known P-free,
    so a new occurrence must map P's row-major-last one onto the new cell;
    the remaining ones map onto earlier kept cells in increasing order.
    """
    np_ = len(prows)
    if np_ > kc:
        return False
    for q in range(pr):
        rowmap[q] = -1
    for q in range(pc):
        colmap[q] = -1
    a_l = prows[np_ - 1]
    b_l = pcols[np_ - 1]
    ri = kept_r[kc - 1]
    ci = kept_c[kc - 1]
    if ri < a_l or (ar - 1 - ri) < (pr - 1 - a_l):
        return False
    if ci < b_l or (ac - 1 - ci) < (pc - 1 - b_l):
        return False
    rowmap[a_l] = ri
    colmap[b_l] = ci

    def rec(k, start):
        if k == np_ - 1:
            return True
        a = prows[k]
        b = pcols[k]
        for e in range(start, kc - 1 - (np_ - 2 - k)):
            i = kept_r[e]
            j = kept_c[e]
            if rowmap[a] >= 0:
                if i != rowmap[a]:
                    continue
                new_row = False
            else:
                rlo, rhi = _row_bounds(rowmap, pr, a, ar)
                if i < rlo or i > rhi:
                    continue
                new_row = True
            if colmap[b] >= 0:
                if j != colmap[b]:
                    continue
                new_col = False
            else:
                clo, chi = _col_bounds(colmap, pc, b, ac)
                if j < clo or j > chi:
                    continue
                new_col = True
            rowmap[a] = i
            colmap[b] = j
            if rec(k + 1, e + 1):
                return True
            if new_row:
                rowmap[a] = -1
            if new_col:
                colmap[b] = -1
        return False

    return rec(0, 0)


def lsm_search(ar, ac, acells, pr, pc, pcells, budget):
    """Most ones keepable from A without containing P, by keep/drop branch
    and bound over A's ones in row-major order.

    Returns (status, value, kept indices into acells, nodes).
    """
    na = len(acells)
    _ensure_stack(na + len(pcells))
    prows, pcols = [x // pc for x in pcells], [x % pc for x in pcells]
    kept_r = [0] * na
    kept_c = [0] * na
    sel = [0] * na
    rowmap = [-1] * pr
    colmap = [-1] * pc
    best = -1
    best_sel = ()
    nodes = 0
    status = OK

    def rec(i, k):
        nonlocal best, best_sel, nodes, status
        if status:
            return
        nodes += 1
        if nodes > budget:
            status = BUDGET_EXCEEDED
            return
        if i == na:
            if k > best:
                best = k
                best_sel = tuple(sel[:k])
            return
        if k + (na - i) <= best:
            return
        kept_r[k], kept_c[k] = divmod(acells[i], ac)
        if not _mat_creates(kept_r, kept_c, k + 1, ar, ac, pr, pc, prows, pcols, rowmap, colmap):
            sel[k] = i
            rec(i + 1, k + 1)
        rec(i + 1, k)

    rec(0, 0)
    return (status, best, best_sel, nodes)
