"""Correctness gate: independent checks of every job's output.

Nothing here imports ``patex``.  Values are checked against published
closed forms or recomputed by brute force on the (small) witnesses the
program returns; witnesses are checked to avoid the forbidden pattern.
Each ``*_check`` factory returns a function of the job's output text that
returns an error message, or None when the output is right.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

# Zarankiewicz numbers z(n; 2): most ones in an n x n 0-1 matrix with no
# 2 x 2 all-ones submatrix (Guy's table).
_ZARANKIEWICZ_2 = {1: 1, 2: 3, 3: 6, 4: 9, 5: 12, 6: 16, 7: 21}


def ex_closed_form(pattern: str, n: int) -> int:
    """Published extremal values ex(n, P) for the patterns the benchmark uses."""
    if pattern == "allones2":
        return _ZARANKIEWICZ_2[n]
    if pattern == "lshape":
        return 2 * n - 1
    if pattern == "ident3":
        return 4 * n - 4
    raise KeyError(pattern)


def digest(text: str) -> str:
    """Digest of a job's output with its run-dependent fields removed."""
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    if isinstance(obj, dict):
        obj.pop("nodes", None)
        obj.pop("elapsed_ms", None)
        text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def dense_ones(grid) -> list[tuple[int, int]]:
    return [(r, c) for r, row in enumerate(grid) for c, v in enumerate(row) if v]


def _canon(letters) -> tuple[int, ...]:
    ids: dict = {}
    return tuple(ids.setdefault(x, len(ids)) for x in letters)


def seq_contains(u, v) -> bool:
    """Brute force: does some subsequence of u equal v up to renaming?"""
    target = _canon(v)
    return any(_canon(u[i] for i in pos) == target
               for pos in itertools.combinations(range(len(u)), len(v)))


def brute_lss(u, v) -> int:
    """Longest v-free subsequence of u, by trying every subset."""
    for size in range(len(u), -1, -1):
        for pos in itertools.combinations(range(len(u)), size):
            if not seq_contains([u[i] for i in pos], v):
                return size
    return 0


def longest_aba_free(u) -> int:
    """Longest subsequence of u with no a b a, i.e. made of blocks of one
    letter each, every letter in one block: a dynamic program over (letters
    already closed, letter of the open block)."""
    best = {(frozenset(), None): 0}
    for x in u:
        step = dict(best)
        for (closed, cur), n in best.items():
            if x == cur:
                key = (closed, cur)
            elif x not in closed:
                key = (closed | {cur} if cur is not None else closed, x)
            else:
                continue
            step[key] = max(step.get(key, 0), n + 1)
        best = step
    return max(best.values())


def longest_alternation(u) -> int:
    """Length of the longest two-letter alternation a b a b ... in u."""
    best = 1 if u else 0
    for a, b in itertools.combinations(set(u), 2):
        runs, last = 0, None
        for x in u:
            if (x == a or x == b) and x != last:
                runs += 1
                last = x
        best = max(best, runs)
    return best


def mat_contains(cells, p_ones) -> bool:
    """Brute force: do the cells contain pattern p as an order-preserving submatrix?"""
    ones = set(cells)
    pr = 1 + max(r for r, _ in p_ones)
    pc = 1 + max(c for _, c in p_ones)
    rows = sorted({r for r, _ in ones})
    cols = sorted({c for _, c in ones})
    for rs in itertools.combinations(rows, pr):
        for cs in itertools.combinations(cols, pc):
            if all((rs[i], cs[j]) in ones for i, j in p_ones):
                return True
    return False


def brute_lsm(cells, p_ones) -> int:
    """Most ones of ``cells`` that avoid p, by trying every subset."""
    cells = list(cells)
    for size in range(len(cells), -1, -1):
        for keep in itertools.combinations(cells, size):
            if not mat_contains(keep, p_ones):
                return size
    return 0


def _lines_to_cells(lines, rows, cols):
    if len(lines) != rows or any(len(ln) != cols for ln in lines):
        raise ValueError(f"witness is not {rows}x{cols}")
    return [(r, c) for r, ln in enumerate(lines) for c, ch in enumerate(ln) if ch == "1"]


def _json(text):
    obj = json.loads(text)
    if not isinstance(obj, (dict, list)):
        raise ValueError("output is not a JSON object")
    return obj


def _guard(fn):
    """Turn a malformed output (any parse or shape error) into a failure message."""
    def check(text):
        try:
            return fn(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"
    return check


def lss_check(host, pattern, lo=None, hi=None):
    """Witness positions select a pattern-free subsequence of the host of
    the claimed length; the value lies in [lo, hi] where given, and is the
    optimum when the pattern is a b a."""
    @_guard
    def check(text):
        out = _json(text)
        value, pos = out["value"], out["witness"]
        if len(pos) != value or pos != sorted(set(pos)) or (pos and not 0 <= pos[0] <= pos[-1] < len(host)):
            return f"witness positions {pos} do not fit value {value}"
        if seq_contains([host[p] for p in pos], pattern):
            return "witness contains the forbidden pattern"
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            return f"value {value} outside [{lo}, {hi}]"
        if list(pattern) == [0, 1, 0] and value != longest_aba_free(host):
            return f"value {value}, optimum {longest_aba_free(host)}"
        return None
    return check


def ex_check(n, p_ones, expected):
    """The value is the closed form and the witness is a p-free set of that many cells."""
    @_guard
    def check(text):
        out = _json(text)
        cells = [tuple(c) for c in out["witness"]]
        if out["value"] != expected:
            return f"ex = {out['value']}, closed form {expected}"
        if len(set(cells)) != expected or not all(0 <= r < n and 0 <= c < n for r, c in cells):
            return "witness cells do not fit the value"
        if mat_contains(cells, p_ones):
            return "witness contains the forbidden pattern"
        return None
    return check


def ss_oracle_check(m, pattern, closed=None):
    """The argmin is a canonical length-m sequence whose brute-force lss is the value."""
    @_guard
    def check(text):
        out = _json(text)
        u = out["witness"]
        if len(u) != m or tuple(u) != _canon(u) or (u and u[0] != 0):
            return f"argmin {u} is not a canonical sequence of length {m}"
        if any(u[i] > max(u[:i]) + 1 for i in range(1, m)):
            return f"argmin {u} is not a restricted growth string"
        if brute_lss(u, pattern) != out["value"]:
            return "value differs from the brute-force lss of the argmin"
        if closed is not None and out["value"] != closed:
            return f"value {out['value']}, closed form {closed}"
        return None
    return check


def sm_oracle_check(m, p_ones):
    """The argmin has m ones, no empty line, and brute-force lsm equal to the value."""
    @_guard
    def check(text):
        out = _json(text)
        lines = out["witness"]
        cells = _lines_to_cells(lines, len(lines), len(lines[0]))
        if len(cells) != m:
            return f"argmin has {len(cells)} ones, expected {m}"
        if len({r for r, _ in cells}) != len(lines) or len({c for _, c in cells}) != len(lines[0]):
            return "argmin has an all-zero row or column"
        if brute_lsm(cells, p_ones) != out["value"]:
            return "value differs from the brute-force lsm of the argmin"
        return None
    return check


def _floor_root(x, k):
    t = int(round(x ** (1.0 / k)))
    while t > 0 and t**k > x:
        t -= 1
    while (t + 1) ** k <= x:
        t += 1
    return t


def sweep_check(r, m_list):
    """One csv row per m; each mean lies between the deletion bound
    (1/2 - 2^-r^2) ones^(r/(r+1)) and the ones count of the hard instance."""
    @_guard
    def check(text):
        lines = text.splitlines()
        if lines[0] != "m,k,value,lower_ref,upper_ref,seed,elapsed_ms" or len(lines) != len(m_list) + 1:
            return "unexpected csv shape"
        for m, ln in zip(m_list, lines[1:]):
            fields = ln.split(",")
            value, lower, upper = float(fields[2]), float(fields[3]), float(fields[4])
            ones = _floor_root(m, r + 1) * _floor_root(m**r, r + 1)
            bound = (0.5 - 2.0 ** -(r * r)) * ones ** (r / (r + 1))
            if int(fields[0]) != m or upper != ones or lower < bound or not lower <= value <= upper:
                return f"row {ln!r} breaks the reference bounds"
        return None
    return check


def _allones2_free(cells) -> bool:
    """No two rows share two columns (fast test for the 2 x 2 all-ones pattern)."""
    by_row: dict = {}
    for r, c in cells:
        by_row.setdefault(r, []).append(c)
    seen = set()
    for cols in by_row.values():
        for pair in itertools.combinations(cols, 2):
            if pair in seen:
                return False
            seen.add(pair)
    return True


def _lshape_free(cells) -> bool:
    """No one has a one below it whose row continues to the right (fast
    test for the L-shape: ones at (0, 0), (1, 0), (1, 1))."""
    top: dict = {}
    right: dict = {}
    for r, c in cells:
        top[c] = min(top.get(c, r), r)
        right[r] = max(right.get(r, c), c)
    return not any(r > top[c] and right[r] > c for r, c in cells)


_FREE_TESTS = {
    ((0, 0), (0, 1), (1, 0), (1, 1)): _allones2_free,
    ((0, 0), (1, 0), (1, 1)): _lshape_free,
}


def prob_check(rows, cols, p_ones):
    """The witness is a rows x cols matrix with ``size`` ones that avoids p."""
    free = _FREE_TESTS[tuple(sorted(p_ones))]

    @_guard
    def check(text):
        out = _json(text)
        cells = _lines_to_cells(out["witness"], rows, cols)
        if len(cells) != out["size"]:
            return "size differs from the witness"
        if not free(cells):
            return "witness contains the forbidden pattern"
        return None
    return check


def es_check(rows, cols):
    """On an all-ones host the longest monotone scan has rows + cols - 1 ones."""
    @_guard
    def check(text):
        out = _json(text)
        cells = _lines_to_cells(out["witness"], rows, cols)
        scan = [c for _, c in cells]
        if scan != sorted(scan) and scan != sorted(scan, reverse=True):
            return "witness columns are not monotone in row-major order"
        if len(cells) != out["size"] or out["size"] != rows + cols - 1:
            return f"size {out['size']}, expected {rows + cols - 1}"
        if out["size"] < math.isqrt(rows * cols - 1) + 1:
            return "size below ceil(sqrt(m))"
        return None
    return check


def _horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def envelope_check(family):
    """Each piece's label is the pointwise argmin inside it, and the
    sequence of a degree-k family avoids the alternation of length k + 2."""
    k = max(len(p) for p in family) - 1

    @_guard
    def check(text):
        out = _json(text)
        seq, bps = out["sequence"], out["breakpoints"]
        if len(bps) != len(seq) - 1 or any(b >= a for a, b in zip(bps[1:], bps)):
            return "breakpoints do not match the pieces"
        if bps:
            xs = [bps[0] - 1.0] + [0.5 * (a + b) for a, b in zip(bps, bps[1:])] + [bps[-1] + 1.0]
        else:
            xs = [0.0]
        labels = [min(range(len(family)), key=lambda i: _horner(family[i], x)) for x in xs]
        if list(_canon(labels)) != seq:
            return "pieces disagree with the pointwise minimum"
        if longest_alternation(seq) >= k + 2:
            return f"sequence contains the alternation of length {k + 2}"
        return None
    return check


def realize_check(n):
    """n lines, each one polynomial of degree at most 1."""
    @_guard
    def check(text):
        lines = text.splitlines()
        if len(lines) != n or any(not 1 <= len([float(t) for t in ln.split(",")]) <= 2 for ln in lines):
            return f"expected {n} lines of at most two coefficients"
        return None
    return check


def roundtrip_check(n):
    """The envelope of the realized lines reads 0, 1, ..., n - 1."""
    @_guard
    def check(text):
        if _json(text)["sequence"] != list(range(n)):
            return "round trip does not read 0 ... n-1"
        return None
    return check
