"""Lower envelopes of univariate real polynomials.

The envelope of {f_1, ..., f_n} is min_i f_i(x), reported as an ordered
list of (function index, interval) pieces from -inf to +inf.  Candidate
breakpoints are the sign-changing real roots of the pairwise differences,
isolated by bisection between recursively computed critical points and
refined to the working tolerance; they are then filtered to the points
where the pointwise argmin actually changes.  Behaviour at +-infinity is
decided from degrees and leading coefficients, never by sampling huge
arguments.  A tangential touch (no sign change of the difference) never
produces a piece boundary.

Equal polynomials are rejected as degenerate, and a near-tie of the two
smallest values at an interval midpoint raises ToleranceError instead of
guessing — callers perturb the input or loosen the tolerance explicitly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from patex.errors import DegenerateInputError, PreconditionError, ToleranceError
from patex.extractors import dichotomy_extract
from patex.sequences import Sequence, as_sequence, is_isomorphic, normalize

DEFAULT_TOL = 1e-9
# Halvings that take any finite bracket down to adjacent floats
# (log2(2^1025 / 2^-1074) < 2100), so bisection stops on width, not count.
_MAX_BISECT = 2100


@dataclass(frozen=True)
class Polynomial:
    """Real univariate polynomial; finite coefficients, constant term first,
    trailing zero coefficients trimmed (the zero polynomial is (0.0,))."""

    coeffs: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        try:
            cs = [float(c) for c in self.coeffs]
        except OverflowError as exc:
            raise DegenerateInputError("polynomial coefficient too large for a float") from exc
        if not all(map(math.isfinite, cs)):
            raise DegenerateInputError(f"non-finite polynomial coefficient in {tuple(cs)}")
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            cs = [0.0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x: float) -> float:
        return _horner(self.coeffs, x)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return Polynomial(tuple(x - y for x, y in zip(a, b)))


def as_polynomial(p) -> Polynomial:
    if isinstance(p, Polynomial):
        return p
    return Polynomial(tuple(p))


@dataclass(frozen=True)
class EnvelopeSequence:
    """Envelope pieces left to right: (function index, (lo, hi)) with the
    intervals partitioning the line and adjacent indices distinct."""

    pieces: tuple[tuple[int, tuple[float, float]], ...]

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.pieces)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(hi for _, (_, hi) in self.pieces[:-1])

    def sequence(self) -> Sequence:
        return normalize(Sequence(self.labels))


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def _cauchy_bound(coeffs: tuple[float, ...]) -> float:
    """All real roots lie strictly inside [-B, B]."""
    lead = coeffs[-1]
    if len(coeffs) == 1:
        return 1.0
    return 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(lead)


def _horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derive(coeffs):
    if len(coeffs) == 1:
        return (0.0,)
    out = tuple(i * c for i, c in enumerate(coeffs))[1:]
    cs = list(out)
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    return tuple(cs)


def _bisect_root(coeffs, lo, hi, slo, tol):
    """Unique sign change of a weakly monotone stretch, to width <= tol."""
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        sm = _sign(_horner(coeffs, mid))
        if sm == 0:
            return mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign_change_roots(coeffs, tol):
    """Ascending real roots at which the polynomial changes sign.

    Even-multiplicity touch points are intentionally not reported: they
    cannot move the argmin of an envelope.  The grid of critical points
    (sign-changing roots of the derivative) splits the Cauchy interval into
    weakly monotone stretches, each holding at most one sign change.  When
    rounding puts the bound on or inside a root (the signs at its ends are
    not the signs at infinity), the bound is doubled.  A root or grid value
    that is not finite raises DegenerateInputError.
    """
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    deg = len(cs) - 1
    if deg < 1:
        return []
    if deg == 1:
        root = -cs[0] / cs[1] + 0.0
        if not math.isfinite(root):
            raise DegenerateInputError(f"root of {tuple(cs)} is not finite")
        return [root]
    bound = _cauchy_bound(tuple(cs))
    crit = _sign_change_roots(_derive(tuple(cs)), tol)
    sign_hi = 1.0 if cs[-1] > 0.0 else -1.0  # the sign toward +inf
    sign_lo = sign_hi if deg % 2 == 0 else -sign_hi
    while True:
        grid = [-bound] + [x for x in crit if -bound < x < bound] + [bound]
        vals = [_horner(cs, x) for x in grid]
        if not all(map(math.isfinite, vals)):
            raise DegenerateInputError(
                f"{tuple(cs)} overflows on its root-isolation grid {grid}"
            )
        if vals[0] * sign_lo > 0.0 and vals[-1] * sign_hi > 0.0:
            break
        bound *= 2.0
    roots = []
    for i in range(1, len(grid) - 1):
        if vals[i] == 0.0:
            # exact root on the critical grid: report only if the sign
            # flips across it (an even-multiplicity touch does not)
            left = i - 1
            while left > 0 and vals[left] == 0.0:
                left -= 1
            right = i + 1
            while right < len(grid) - 1 and vals[right] == 0.0:
                right += 1
            if _sign(vals[left]) * _sign(vals[right]) < 0:
                roots.append(grid[i])
    for i in range(len(grid) - 1):
        slo, shi = _sign(vals[i]), _sign(vals[i + 1])
        if slo * shi < 0:
            roots.append(_bisect_root(cs, grid[i], grid[i + 1], slo, tol))
    roots.sort()
    return [r + 0.0 for r in roots]


def _less_at_infinity(p: Polynomial, q: Polynomial, side: int) -> bool:
    """True iff p(x) < q(x) for all x far enough toward +inf (side=+1) or
    -inf (side=-1); p and q must be distinct polynomials."""
    d = p - q
    if d.is_zero():
        return False
    lead = d.coeffs[-1]
    sign_at_inf = _sign(lead) if side > 0 else _sign(lead) * (-1) ** d.degree
    return sign_at_inf < 0


def _argmin_at_infinity(polys: list[Polynomial], side: int) -> int:
    best = 0
    for i in range(1, len(polys)):
        if _less_at_infinity(polys[i], polys[best], side):
            best = i
    return best


def _argmin_at(polys: list[Polynomial], x: float, tol: float) -> int:
    vals = [(_horner(p.coeffs, x), i) for i, p in enumerate(polys)]
    vals.sort()
    if len(vals) > 1 and vals[1][0] - vals[0][0] < tol:
        raise ToleranceError(
            f"argmin candidates {vals[0][1]} and {vals[1][1]} differ by "
            f"{vals[1][0] - vals[0][0]:.3e} < tol at x={x!r}"
        )
    return vals[0][1]


def lower_envelope(polys: Iterable, tol: float = DEFAULT_TOL) -> EnvelopeSequence:
    """Envelope pieces of a family of pairwise-distinct polynomials."""
    ps = [as_polynomial(p) for p in polys]
    if not ps:
        raise PreconditionError("need at least one polynomial")
    if not 0 < tol < math.inf:
        raise PreconditionError("tolerance must be positive and finite")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if ps[i].coeffs == ps[j].coeffs:
                raise DegenerateInputError(f"polynomials {i} and {j} are identical")

    candidates: list[float] = []
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            candidates.extend(_sign_change_roots((ps[i] - ps[j]).coeffs, tol))
    candidates.sort()
    breakpoints: list[float] = []
    for x in candidates:
        if breakpoints and x - breakpoints[-1] <= tol:
            continue
        breakpoints.append(x)

    labels = [_argmin_at_infinity(ps, -1)]
    for i in range(len(breakpoints) - 1):
        mid = 0.5 * (breakpoints[i] + breakpoints[i + 1])
        labels.append(_argmin_at(ps, mid, tol))
    if breakpoints:
        labels.append(_argmin_at_infinity(ps, +1))

    pieces: list[tuple[int, tuple[float, float]]] = []
    lo = -math.inf
    for idx, label in enumerate(labels):
        hi = breakpoints[idx] if idx < len(breakpoints) else math.inf
        if pieces and pieces[-1][0] == label:
            # argmin unchanged across this candidate: not a real boundary
            pieces[-1] = (label, (pieces[-1][1][0], hi))
        else:
            pieces.append((label, (lo, hi)))
        lo = hi
    return EnvelopeSequence(tuple(pieces))


def envelope_sequence(polys: Iterable, tol: float = DEFAULT_TOL) -> Sequence:
    """Normalized label sequence of the lower envelope."""
    return lower_envelope(polys, tol).sequence()


def verify_pointwise(
    polys: Iterable,
    env: EnvelopeSequence,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-6,
) -> float:
    """Max deviation of each piece's polynomial from the pointwise minimum
    over random samples inside the piece; a correct envelope stays <= tol."""
    ps = [as_polynomial(p) for p in polys]
    rng = random.Random(seed)
    finite = [b for _, (a, b) in env.pieces if math.isfinite(b)]
    span = (max(finite) - min(finite) + 1.0) if finite else 1.0
    worst = 0.0
    for label, (lo, hi) in env.pieces:
        a = lo if math.isfinite(lo) else (hi - span if math.isfinite(hi) else -1.0)
        b = hi if math.isfinite(hi) else (lo + span if math.isfinite(lo) else 1.0)
        for _ in range(samples):
            x = a + (b - a) * rng.random()
            diff = ps[label](x) - min(p(x) for p in ps)
            if diff > worst:
                worst = diff
    if worst > tol:
        raise ToleranceError(f"piece polynomial exceeds pointwise minimum by {worst:.3e}")
    return worst


def realize_lines(u) -> list[Polynomial]:
    """Lines realizing a distinct-letter sequence as a lower envelope.

    Line i gets slope n-1-i and intercept i*(i-1)/2, so consecutive lines
    cross at x = 0, 1, ..., n-2 and line i is the strict minimum on
    (i-1, i); the envelope reads the lines in order.
    """
    seq = as_sequence(u)
    n = len(seq)
    if n < 1:
        raise PreconditionError("realize_lines needs a nonempty sequence")
    if seq.distinct != n:
        raise PreconditionError("realize_lines needs pairwise distinct letters")
    return [Polynomial((i * (i - 1) / 2.0, float(n - 1 - i))) for i in range(n)]


@dataclass(frozen=True)
class Realization:
    """Constructive realizable subsequence: the witness, its positions in
    the host, the realizing polynomials, and the branch that produced it."""

    witness: Sequence
    positions: tuple[int, ...]
    polynomials: tuple[Polynomial, ...]
    kind: str
    guarantee: int


def realizable_extract(u, k: int) -> Realization:
    """Subsequence of u of length >= ceil(sqrt(m)) realizable by
    polynomials of degree <= k.

    The rainbow branch realizes the distinct letters by lines; the repeated
    branch returns a single polynomial whose envelope representation is
    split into equal-labeled pieces (the constant-run convention).
    """
    if k < 1:
        raise PreconditionError("degree bound k must be >= 1")
    host = as_sequence(u)
    if len(host) < 1:
        raise PreconditionError("host sequence must be nonempty")
    report = dichotomy_extract(host)
    if report.kind == "rainbow":
        polys = tuple(realize_lines(normalize(report.witness)))
    else:
        polys = (Polynomial((0.0,)),)
    return Realization(report.witness, report.positions, polys, report.kind, report.guarantee)


def _collapse_runs(seq: Sequence) -> Sequence:
    out = []
    for x in seq.letters:
        if not out or out[-1] != x:
            out.append(x)
    return Sequence(tuple(out))


def verify_envelope(polys: Iterable, target, tol: float = DEFAULT_TOL) -> bool:
    """True iff the envelope sequence of polys is isomorphic to target,
    allowing the constant-run convention: a target may split one function's
    interval into adjacent pieces with the same label."""
    env = envelope_sequence(polys, tol)
    tgt = as_sequence(target)
    if is_isomorphic(env, tgt):
        return True
    return is_isomorphic(env, _collapse_runs(tgt))


def parse_polynomials(text: str) -> list[Polynomial]:
    """Parse the polynomial-set format: one polynomial per line,
    comma-separated coefficients, constant term first."""
    polys = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            coeffs = tuple(float(tok) for tok in ln.split(","))
        except ValueError as exc:
            raise PreconditionError(f"bad polynomial line: {ln!r}") from exc
        polys.append(Polynomial(coeffs))
    return polys


def format_polynomials(polys: Iterable) -> str:
    """Serialize to the polynomial-set format."""
    lines = []
    for p in polys:
        lines.append(",".join(repr(c) for c in as_polynomial(p).coeffs))
    return "\n".join(lines)
