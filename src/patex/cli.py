"""Command-line front end.

Subcommands: lss, lsm, ex, ss-oracle, sm-oracle, construct, extract,
envelope, realize, lsp-upper, sweep, fit.  Solver-style commands print a
JSON object {"value", "witness", "nodes", "elapsed_ms"}; construct and
realize emit the canonical file formats; sweep honours --format
csv|json|svg.

Exit codes: 0 success, 2 precondition violation (including bad usage),
3 budget exceeded, 4 degenerate numeric input.

Settings resolve in order: command-line flag, --config key=value file,
built-in default.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from patex import constructions, envelopes, extractors, solvers, sweeps
from patex.errors import BudgetExceededError, DegenerateInputError, PreconditionError
from patex.matrices import BitMatrix, format_matrix, parse_matrix
from patex.sequences import alternation, format_sequence, parse_sequence


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    cfg = {}
    for ln in _read(path).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise PreconditionError(f"bad config line: {ln!r}")
        key, _, value = ln.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _setting(args, cfg, name, default, cast):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in cfg:
        return cast(cfg[name])
    return default


def _solver_json(value, witness, nodes, elapsed_s) -> str:
    payload = {
        "value": value,
        "witness": witness,
        "nodes": nodes,
        "elapsed_ms": int(round(elapsed_s * 1000)),
    }
    return json.dumps(payload, indent=2) + "\n"


def _matrix_lines(a: BitMatrix) -> list[str]:
    return format_matrix(a).split("\n") if a.rows else []


# ---------------------------------------------------------------------------
# command handlers (each returns the text to emit)
# ---------------------------------------------------------------------------

def _cmd_lss(args, cfg):
    budget = _setting(args, cfg, "budget", solvers.DEFAULT_NODE_BUDGET, int)
    res = solvers.lss_exact(parse_sequence(_read(args.seq)), parse_sequence(args.pattern), budget=budget)
    return _solver_json(res.value, list(res.witness), res.nodes, res.elapsed)


def _cmd_lsm(args, cfg):
    budget = _setting(args, cfg, "budget", solvers.DEFAULT_NODE_BUDGET, int)
    res = solvers.lsm_exact(parse_matrix(_read(args.matrix)), parse_matrix(_read(args.pattern)), budget=budget)
    return _solver_json(res.value, [list(cell) for cell in res.witness], res.nodes, res.elapsed)


def _cmd_ex(args, cfg):
    budget = _setting(args, cfg, "budget", solvers.DEFAULT_NODE_BUDGET, int)
    res = solvers.lsm_exact(
        constructions.all_ones(args.n, args.n), parse_matrix(_read(args.pattern)), budget=budget
    )
    return _solver_json(res.value, [list(cell) for cell in res.witness], res.nodes, res.elapsed)


def _cmd_ss_oracle(args, cfg):
    budget = _setting(args, cfg, "budget", solvers.DEFAULT_NODE_BUDGET, int)
    limit = _setting(args, cfg, "ss_limit", solvers.SS_ORACLE_LIMIT, int)
    res = solvers.ss_oracle(args.m, parse_sequence(args.pattern), limit=limit, budget=budget)
    return _solver_json(res.value, list(res.argmin.letters), res.nodes, res.elapsed)


def _cmd_sm_oracle(args, cfg):
    budget = _setting(args, cfg, "budget", solvers.DEFAULT_NODE_BUDGET, int)
    limit = _setting(args, cfg, "sm_limit", solvers.SM_ORACLE_LIMIT, int)
    res = solvers.sm_oracle(args.m, parse_matrix(_read(args.pattern)), limit=limit, budget=budget)
    return _solver_json(res.value, _matrix_lines(res.argmin), res.nodes, res.elapsed)


def _cmd_lsp_upper(args, cfg):
    budget = _setting(args, cfg, "budget", solvers.DEFAULT_NODE_BUDGET, int)
    if args.k < 1:
        raise PreconditionError("degree bound k must be >= 1")
    res = solvers.lss_exact(parse_sequence(_read(args.seq)), alternation(args.k + 2), budget=budget)
    return _solver_json(res.value, list(res.witness), res.nodes, res.elapsed)


def _cmd_construct(args, cfg):
    kind = args.what
    if kind == "block":
        return format_sequence(constructions.block_sequence(args.k)) + "\n"
    if kind == "all-ones":
        return format_matrix(constructions.all_ones(args.r, args.c)) + "\n"
    if kind == "lemma3":
        return format_matrix(constructions.upper_construction_allones(args.m, args.r)) + "\n"
    if kind == "pattern-from-seq":
        return format_matrix(constructions.pattern_from_sequence(parse_sequence(args.seq))) + "\n"
    if kind == "diagonal":
        return format_matrix(constructions.diagonal(args.k)) + "\n"
    if kind == "row":
        return format_matrix(constructions.row(args.k)) + "\n"
    if kind == "column":
        return format_matrix(constructions.column(args.k)) + "\n"
    if kind == "l-shape":
        return format_matrix(constructions.l_shape()) + "\n"
    if kind == "insert-column":
        base = parse_matrix(_read(args.pattern))
        return format_matrix(constructions.insert_column(base, args.row, args.col)) + "\n"
    if kind == "corner-join":
        base = parse_matrix(_read(args.pattern))
        return format_matrix(constructions.corner_join(base, args.copies)) + "\n"
    if kind == "four-patterns":
        mats = constructions.four_forcing_patterns()
        return "\n\n".join(format_matrix(m) for m in mats) + "\n"
    raise PreconditionError(f"unknown construct kind: {kind}")


def _extract_json(report: extractors.ExtractReport) -> str:
    payload: dict = {
        "size": report.size,
        "guarantee": report.guarantee,
        "method": report.method,
        "seed": report.seed,
    }
    if isinstance(report.witness, BitMatrix):
        payload["witness"] = _matrix_lines(report.witness)
    else:
        payload["witness"] = list(report.witness.letters)
    if report.positions is not None:
        payload["positions"] = list(report.positions)
    if report.kind is not None:
        payload["kind"] = report.kind
    return json.dumps(payload, indent=2) + "\n"


def _cmd_extract(args, cfg):
    what = args.what
    if what == "prob":
        seed = _setting(args, cfg, "seed", 0, int)
        rep = extractors.probabilistic_extract(
            parse_matrix(_read(args.matrix)), parse_matrix(_read(args.pattern)), seed=seed
        )
        return _extract_json(rep)
    if what == "es":
        return _extract_json(extractors.erdos_szekeres_extract(parse_matrix(_read(args.matrix))))
    if what == "dichotomy":
        return _extract_json(extractors.dichotomy_extract(parse_sequence(_read(args.seq))))
    if what == "thin":
        thinned = extractors.alternate_thinning(parse_matrix(_read(args.matrix)))
        return format_matrix(thinned) + "\n"
    raise PreconditionError(f"unknown extract kind: {what}")


def _cmd_envelope(args, cfg):
    tol = _setting(args, cfg, "tol", envelopes.DEFAULT_TOL, float)
    env = envelopes.lower_envelope(envelopes.parse_polynomials(_read(args.polys)), tol=tol)
    payload = {
        "sequence": list(env.sequence().letters),
        "breakpoints": list(env.breakpoints),
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_realize(args, cfg):
    polys = envelopes.realize_lines(parse_sequence(args.seq))
    return envelopes.format_polynomials(polys) + "\n"


def _cmd_sweep(args, cfg):
    fmt = _setting(args, cfg, "format", "csv", str)
    timing = bool(args.timing)
    if args.what == "ss-block":
        budget = _setting(args, cfg, "budget", solvers.DEFAULT_NODE_BUDGET, int)
        limit = _setting(args, cfg, "block_limit", sweeps.SS_BLOCK_LIMIT, int)
        records = sweeps.sweep_ss_block(
            args.k_min, args.k_max, limit=limit, budget=budget, timing=timing
        )
        return sweeps.report(records, fmt)
    if args.what == "sm-allones":
        seed = _setting(args, cfg, "seed", 0, int)
        trials = _setting(args, cfg, "trials", sweeps.DEFAULT_TRIALS, int)
        m_list = [int(tok) for tok in args.m_list.split(",") if tok]
        records, _ = sweeps.sweep_sm_allones(
            args.r, m_list, trials=trials, seed=seed, timing=timing
        )
        return sweeps.report(records, fmt)
    raise PreconditionError(f"unknown sweep kind: {args.what}")


def _cmd_fit(args, cfg):
    raw = json.loads(_read(args.records))
    records = [sweeps.SweepRecord(**rec) for rec in raw]
    fit = sweeps.fit_exponent(records)
    return json.dumps(fit.__dict__, indent=2) + "\n"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: main() reuses it,
    since parse_args leaves no state behind in the parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    common.add_argument("--tol", type=float, default=None, help="numeric tolerance")
    common.add_argument("--budget", type=int, default=None, help="search node budget")
    common.add_argument("--format", default=None, choices=["csv", "json", "svg"])
    common.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    common.add_argument("--config", default=None, help="key=value settings file")

    parser = argparse.ArgumentParser(
        prog="patex",
        description="Extremal functions for forbidden patterns in sequences, "
        "0-1 matrices, and polynomial lower envelopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lss", parents=[common], help="longest pattern-avoiding subsequence")
    p.add_argument("--seq", required=True, help="sequence file")
    p.add_argument("--pattern", required=True, help="forbidden pattern (string)")
    p.set_defaults(func=_cmd_lss)

    p = sub.add_parser("lsm", parents=[common], help="most ones avoiding a matrix pattern")
    p.add_argument("--matrix", required=True, help="host matrix file")
    p.add_argument("--pattern", required=True, help="forbidden pattern file")
    p.set_defaults(func=_cmd_lsm)

    p = sub.add_parser("ex", parents=[common], help="extremal ones count for an n x n host")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True, help="forbidden pattern file")
    p.set_defaults(func=_cmd_ex)

    p = sub.add_parser("ss-oracle", parents=[common], help="minimize lss over length-m sequences")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--ss-limit", dest="ss_limit", type=int, default=None)
    p.set_defaults(func=_cmd_ss_oracle)

    p = sub.add_parser("sm-oracle", parents=[common], help="minimize lsm over m-ones matrices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pattern", required=True, help="forbidden pattern file")
    p.add_argument("--sm-limit", dest="sm_limit", type=int, default=None)
    p.set_defaults(func=_cmd_sm_oracle)

    p = sub.add_parser("lsp-upper", parents=[common], help="upper bound on realizable subsequence")
    p.add_argument("--seq", required=True, help="sequence file")
    p.add_argument("--k", type=int, required=True, help="polynomial degree bound")
    p.set_defaults(func=_cmd_lsp_upper)

    p = sub.add_parser("construct", parents=[common], help="emit a canonical instance/pattern")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("block", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q = ps.add_parser("all-ones", parents=[common])
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q = ps.add_parser("lemma3", parents=[common])
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q = ps.add_parser("pattern-from-seq", parents=[common])
    q.add_argument("--seq", required=True)
    for name in ("diagonal", "row", "column"):
        q = ps.add_parser(name, parents=[common])
        q.add_argument("--k", type=int, required=True)
    ps.add_parser("l-shape", parents=[common])
    q = ps.add_parser("insert-column", parents=[common])
    q.add_argument("--pattern", required=True)
    q.add_argument("--row", type=int, required=True)
    q.add_argument("--col", type=int, required=True)
    q = ps.add_parser("corner-join", parents=[common])
    q.add_argument("--pattern", required=True)
    q.add_argument("--copies", type=int, required=True)
    ps.add_parser("four-patterns", parents=[common])
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("extract", parents=[common], help="run a lower-bound extractor")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("prob", parents=[common])
    q.add_argument("--matrix", required=True)
    q.add_argument("--pattern", required=True)
    q = ps.add_parser("es", parents=[common])
    q.add_argument("--matrix", required=True)
    q = ps.add_parser("dichotomy", parents=[common])
    q.add_argument("--seq", required=True)
    q = ps.add_parser("thin", parents=[common])
    q.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("envelope", parents=[common], help="lower envelope of a polynomial set")
    p.add_argument("--polys", required=True, help="polynomial-set file")
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("realize", parents=[common], help="lines realizing a distinct-letter sequence")
    p.add_argument("--seq", required=True)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("sweep", parents=[common], help="run an experiment sweep")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("ss-block", parents=[common])
    q.add_argument("--k-min", dest="k_min", type=int, default=2)
    q.add_argument("--k-max", dest="k_max", type=int, default=5)
    q.add_argument("--timing", action="store_true")
    q = ps.add_parser("sm-allones", parents=[common])
    q.add_argument("--r", type=int, default=2)
    q.add_argument("--m-list", dest="m_list", default="64,256,1024")
    q.add_argument("--trials", type=int, default=None)
    q.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", parents=[common], help="fit an exponent to sweep json records")
    p.add_argument("--records", required=True, help="json file produced by sweep --format json")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(getattr(args, "config", None))
        out = args.func(args, cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
