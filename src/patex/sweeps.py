"""Experiment sweeps, exponent fitting, and result serialization.

Sweeps record measured values next to the reference bounds they must sit
between; any record violating lower_ref <= value <= upper_ref is an error
in the build, not in the data, so sweeps assert it eagerly.

Reproducibility contract: with the same seed a sweep serializes to
byte-identical csv/json.  Wall time is therefore only recorded when
timing=True is requested explicitly; the default writes elapsed_ms as 0.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from statistics import fmean
from typing import Iterable

from patex.constructions import all_ones, block_sequence, upper_construction_allones
from patex.errors import BudgetExceededError, PreconditionError
from patex.extractors import probabilistic_extract
from patex.sequences import parse_sequence
from patex.solvers import DEFAULT_NODE_BUDGET, lss_exact

SS_BLOCK_LIMIT = 5
DEFAULT_TRIALS = 500


@dataclass(frozen=True)
class SweepRecord:
    """One experiment row: instance size, block/pattern parameter, measured
    value, reference bounds (None when not applicable), seed, elapsed."""

    m: int
    k: int
    value: float
    lower_ref: float | None
    upper_ref: float | None
    seed: int
    elapsed_ms: int

    def __post_init__(self):
        refs = tuple(ref for ref in (self.lower_ref, self.upper_ref) if ref is not None)
        fields = (self.m, self.k, self.value, self.seed, self.elapsed_ms) + refs
        if not all(isinstance(x, (int, float)) for x in fields):
            raise PreconditionError(f"record fields must be numbers: {self}")
        if self.lower_ref is not None and self.value < self.lower_ref:
            raise PreconditionError(
                f"record violates lower reference: {self.value} < {self.lower_ref}"
            )
        if self.upper_ref is not None and self.value > self.upper_ref:
            raise PreconditionError(
                f"record violates upper reference: {self.value} > {self.upper_ref}"
            )


@dataclass(frozen=True)
class FitResult:
    """Least-squares power-law fit of value against m on log-log axes."""

    exponent: float
    intercept: float
    r_squared: float


def _child_seed(seed: int, m: int, trial: int) -> int:
    """Per-trial stream: independent of the trial count, so growing trials
    never perturbs earlier ones."""
    return ((seed * 1_000_003 + m) * 1_000_003 + trial) & 0x3FFFFFFFFFFFFFFF


def sweep_ss_block(
    k_min: int,
    k_max: int,
    limit: int = SS_BLOCK_LIMIT,
    budget: int = DEFAULT_NODE_BUDGET,
    timing: bool = False,
) -> list[SweepRecord]:
    """Longest alternation-free subsequence of the k-block sequence for each
    k in [k_min, k_max]; bounds are k and 3k - 1."""
    if not 1 <= k_min <= k_max:
        raise PreconditionError("need 1 <= k_min <= k_max")
    if k_max > limit:
        raise BudgetExceededError(f"ss block sweep limit {limit} exceeded (k_max={k_max})")
    pattern = parse_sequence("abab")
    records = []
    for k in range(k_min, k_max + 1):
        start = time.perf_counter()
        res = lss_exact(block_sequence(k), pattern, budget=budget)
        elapsed = int(round((time.perf_counter() - start) * 1000)) if timing else 0
        records.append(
            SweepRecord(
                m=k * k,
                k=k,
                value=res.value,
                lower_ref=k,
                upper_ref=3 * k - 1,
                seed=0,
                elapsed_ms=elapsed,
            )
        )
    return records


def sweep_sm_allones(
    r: int,
    m_list: Iterable[int],
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    timing: bool = False,
) -> tuple[list[SweepRecord], FitResult | None]:
    """Mean surviving ones of the probabilistic extractor on the hard
    all-ones instances, one record per requested m, plus the fitted
    exponent (None with fewer than 3 records).

    The lower reference is the expected-size bound of the deletion
    argument, ceil((1/2 - 2^(-r^2)) * ones^(r/(r+1))) — the 7/16 m^(2/3)
    bound for r=2 — evaluated at the built instance's actual ones count
    (the requested m floors down when it is not a perfect (r+1)-th
    power).  The upper reference is that ones count.  Records assert
    lower <= mean <= upper eagerly, so a run with very few trials can
    still fail on sampling noise; the default trial count keeps the
    noise far below the slack.
    """
    if r < 2:
        raise PreconditionError("sweep_sm_allones needs r >= 2")
    if trials < 0:
        raise PreconditionError("trials must be >= 0")
    records = []
    if trials == 0:
        return records, None
    pattern = all_ones(r, r)
    coeff = 0.5 - 2.0 ** (-(r * r))
    for m in m_list:
        a = upper_construction_allones(m, r)
        start = time.perf_counter()
        sizes = [
            probabilistic_extract(a, pattern, seed=_child_seed(seed, m, t)).size
            for t in range(trials)
        ]
        elapsed = int(round((time.perf_counter() - start) * 1000)) if timing else 0
        records.append(
            SweepRecord(
                m=m,
                k=r,
                value=fmean(sizes),
                lower_ref=math.ceil(coeff * a.one_count ** (r / (r + 1.0))),
                upper_ref=a.one_count,
                seed=seed,
                elapsed_ms=elapsed,
            )
        )
    fit = fit_exponent(records) if len(records) >= 3 else None
    return records, fit


def fit_exponent(records: list[SweepRecord]) -> FitResult:
    """Ordinary least squares of log(value) against log(m)."""
    if len(records) < 3:
        raise PreconditionError("fit needs at least 3 records")
    if not all(0 < rec.value < math.inf and 0 < rec.m < math.inf for rec in records):
        raise PreconditionError("fit needs positive finite sizes and values")
    xs = [math.log(rec.m) for rec in records]
    ys = [math.log(rec.value) for rec in records]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise PreconditionError("fit needs at least two distinct m values")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r_squared)


def _fmt_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return repr(x) if isinstance(x, float) else str(x)


CSV_HEADER = "m,k,value,lower_ref,upper_ref,seed,elapsed_ms"


def report(records: list[SweepRecord], fmt: str) -> str:
    """Serialize records as json (verbatim), csv (fixed header), or svg
    (log-log scatter with the reference bounds drawn as guide lines)."""
    if fmt == "json":
        return json.dumps([asdict(rec) for rec in records], indent=2) + "\n"
    if fmt == "csv":
        lines = [CSV_HEADER]
        for rec in records:
            lines.append(
                ",".join(
                    [
                        str(rec.m),
                        str(rec.k),
                        _fmt_num(rec.value),
                        _fmt_num(rec.lower_ref),
                        _fmt_num(rec.upper_ref),
                        str(rec.seed),
                        str(rec.elapsed_ms),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "svg":
        return _render_svg(records)
    raise PreconditionError(f"unknown report format: {fmt!r}")


def _render_svg(records: list[SweepRecord]) -> str:
    """Minimal deterministic log-log scatter; reference bounds become
    polyline guides."""
    width, height, margin = 480, 360, 48
    pts = [(rec.m, rec.value) for rec in records if rec.m > 0 and rec.value > 0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    if pts:
        xs = [math.log(m) for m, _ in pts]
        ys = [math.log(v) for _, v in pts]
        for rec in records:
            for ref in (rec.lower_ref, rec.upper_ref):
                if ref is not None and ref > 0:
                    ys.append(math.log(ref))
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 - x0 == 0:
            x0, x1 = x0 - 1.0, x1 + 1.0
        if y1 - y0 == 0:
            y0, y1 = y0 - 1.0, y1 + 1.0

        def px(x):
            return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

        def py(y):
            return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

        for attr, key in (("lower", lambda rec: rec.lower_ref), ("upper", lambda rec: rec.upper_ref)):
            guide = [
                (math.log(rec.m), math.log(key(rec)))
                for rec in records
                if key(rec) is not None and key(rec) > 0 and rec.m > 0
            ]
            if len(guide) >= 2:
                coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(guide))
                parts.append(
                    f'<polyline class="{attr}" points="{coords}" fill="none" '
                    f'stroke="gray" stroke-dasharray="4 3"/>'
                )
        for (m, v), lx, ly in zip(pts, xs, ys):
            parts.append(
                f'<circle class="pt" cx="{px(lx):.2f}" cy="{py(ly):.2f}" r="3" fill="black">'
                f"<title>m={m} value={_fmt_num(v)}</title></circle>"
            )
        parts.append(
            f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
            f'font-size="12">log m</text>'
        )
        parts.append(
            f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 14 {height // 2})">log value</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
