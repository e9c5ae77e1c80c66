"""Command-line front end.

Subcommands: lss, lsm, ex, ss-oracle, sm-oracle, construct, extract,
envelope, realize, lsp-upper, sweep, fit.  Solver-style commands print a
JSON object {"value", "witness", "nodes", "elapsed_ms"}; construct and
realize emit the canonical file formats; sweep honours --format
csv|json|svg.

Every leaf subcommand sets its own handler, which parses its inputs and
makes one call to its job's library entry point.

Exit codes: 0 success, 2 precondition violation (including bad usage),
3 budget exceeded, 4 degenerate numeric input.  main() turns every
PatexError into its class's exit code; input that cannot be read, cast
or written raises PreconditionError where it is handled, so no input
ends in a traceback.

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
from patex.errors import PatexError, PreconditionError
from patex.matrices import BitMatrix, format_matrix, parse_matrix
from patex.sequences import format_sequence, parse_sequence


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


def _cast(cast, text: str, what: str):
    try:
        return cast(text)
    except ValueError as exc:
        raise PreconditionError(f"bad {what}: {text!r}") from exc


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
        return _cast(cast, cfg[name], f"config value for {name}")
    return default


def _budget(args, cfg) -> int:
    return _setting(args, cfg, "budget", solvers.DEFAULT_NODE_BUDGET, int)


def _load_records(text: str) -> list[sweeps.SweepRecord]:
    """The records of a `sweep --format json` file."""
    try:
        return [sweeps.SweepRecord(**rec) for rec in json.loads(text)]
    except (ValueError, TypeError) as exc:
        raise PreconditionError(f"bad sweep records: {exc}") from exc


def _solver_json(value, witness, nodes, elapsed_s) -> str:
    payload = {
        "value": value,
        "witness": witness,
        "nodes": nodes,
        "elapsed_ms": int(round(elapsed_s * 1000)),
    }
    return json.dumps(payload, indent=2) + "\n"


def _result_json(res: solvers.SolveResult) -> str:
    return _solver_json(res.value, res.witness, res.nodes, res.elapsed)


def _matrix_lines(a: BitMatrix) -> list[str]:
    return format_matrix(a).split("\n") if a.rows else []


# ---------------------------------------------------------------------------
# command handlers (each returns the text to emit)
# ---------------------------------------------------------------------------

def _cmd_lss(args, cfg):
    u, v = parse_sequence(_read(args.seq)), parse_sequence(args.pattern)
    return _result_json(solvers.lss_exact(u, v, budget=_budget(args, cfg)))


def _cmd_lsm(args, cfg):
    a, p = parse_matrix(_read(args.matrix)), parse_matrix(_read(args.pattern))
    return _result_json(solvers.lsm_exact(a, p, budget=_budget(args, cfg)))


def _cmd_ex(args, cfg):
    p = parse_matrix(_read(args.pattern))
    return _result_json(solvers.ex_exact(args.n, p, budget=_budget(args, cfg)))


def _cmd_lsp_upper(args, cfg):
    u = parse_sequence(_read(args.seq))
    return _result_json(solvers.lsp_upper(u, args.k, budget=_budget(args, cfg)))


def _cmd_ss_oracle(args, cfg):
    limit = _setting(args, cfg, "ss_limit", solvers.SS_ORACLE_LIMIT, int)
    res = solvers.ss_oracle(args.m, parse_sequence(args.pattern), limit=limit, budget=_budget(args, cfg))
    return _solver_json(res.value, res.argmin.letters, res.nodes, res.elapsed)


def _cmd_sm_oracle(args, cfg):
    limit = _setting(args, cfg, "sm_limit", solvers.SM_ORACLE_LIMIT, int)
    p = parse_matrix(_read(args.pattern))
    res = solvers.sm_oracle(args.m, p, limit=limit, budget=_budget(args, cfg))
    return _solver_json(res.value, _matrix_lines(res.argmin), res.nodes, res.elapsed)


# construct kind -> (its flags and their types, its canonical text)
_CONSTRUCT = {
    "block": ({"k": int}, lambda a: format_sequence(constructions.block_sequence(a.k))),
    "all-ones": ({"r": int, "c": int}, lambda a: format_matrix(constructions.all_ones(a.r, a.c))),
    "lemma3": (
        {"m": int, "r": int},
        lambda a: format_matrix(constructions.upper_construction_allones(a.m, a.r)),
    ),
    "pattern-from-seq": (
        {"seq": str},
        lambda a: format_matrix(constructions.pattern_from_sequence(parse_sequence(a.seq))),
    ),
    "diagonal": ({"k": int}, lambda a: format_matrix(constructions.diagonal(a.k))),
    "row": ({"k": int}, lambda a: format_matrix(constructions.row(a.k))),
    "column": ({"k": int}, lambda a: format_matrix(constructions.column(a.k))),
    "l-shape": ({}, lambda a: format_matrix(constructions.l_shape())),
    "insert-column": (
        {"pattern": str, "row": int, "col": int},
        lambda a: format_matrix(
            constructions.insert_column(parse_matrix(_read(a.pattern)), a.row, a.col)
        ),
    ),
    "corner-join": (
        {"pattern": str, "copies": int},
        lambda a: format_matrix(constructions.corner_join(parse_matrix(_read(a.pattern)), a.copies)),
    ),
    "four-patterns": (
        {},
        lambda a: "\n\n".join(format_matrix(m) for m in constructions.four_forcing_patterns()),
    ),
}


def _cmd_construct(text, args, cfg):
    return text(args) + "\n"


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


def _cmd_extract_prob(args, cfg):
    a, p = parse_matrix(_read(args.matrix)), parse_matrix(_read(args.pattern))
    seed = _setting(args, cfg, "seed", 0, int)
    return _extract_json(extractors.probabilistic_extract(a, p, seed=seed))


def _cmd_extract_es(args, cfg):
    return _extract_json(extractors.erdos_szekeres_extract(parse_matrix(_read(args.matrix))))


def _cmd_extract_dichotomy(args, cfg):
    return _extract_json(extractors.dichotomy_extract(parse_sequence(_read(args.seq))))


def _cmd_extract_thin(args, cfg):
    return format_matrix(extractors.alternate_thinning(parse_matrix(_read(args.matrix)))) + "\n"


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


def _cmd_sweep_ss_block(args, cfg):
    limit = _setting(args, cfg, "block_limit", sweeps.SS_BLOCK_LIMIT, int)
    records = sweeps.sweep_ss_block(
        args.k_min, args.k_max, limit=limit, budget=_budget(args, cfg), timing=args.timing
    )
    return sweeps.report(records, _setting(args, cfg, "format", "csv", str))


def _cmd_sweep_sm_allones(args, cfg):
    seed = _setting(args, cfg, "seed", 0, int)
    trials = _setting(args, cfg, "trials", sweeps.DEFAULT_TRIALS, int)
    m_list = [_cast(int, tok, "--m-list entry") for tok in args.m_list.split(",") if tok]
    records, _ = sweeps.sweep_sm_allones(args.r, m_list, trials=trials, seed=seed, timing=args.timing)
    return sweeps.report(records, _setting(args, cfg, "format", "csv", str))


def _cmd_fit(args, cfg):
    fit = sweeps.fit_exponent(_load_records(_read(args.records)))
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
    common.add_argument(
        "--budget", type=int, default=None,
        help="search node budget (ss-oracle, sm-oracle: total over all instances)",
    )
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

    p = sub.add_parser("construct", help="emit a canonical instance/pattern")
    ps = p.add_subparsers(dest="what", required=True)
    for kind, (flags, text) in _CONSTRUCT.items():
        q = ps.add_parser(kind, parents=[common])
        for flag, cast in flags.items():
            q.add_argument(f"--{flag}", type=cast, required=True)
        q.set_defaults(func=functools.partial(_cmd_construct, text))

    p = sub.add_parser("extract", help="run a lower-bound extractor")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("prob", parents=[common])
    q.add_argument("--matrix", required=True)
    q.add_argument("--pattern", required=True)
    q.set_defaults(func=_cmd_extract_prob)
    q = ps.add_parser("es", parents=[common])
    q.add_argument("--matrix", required=True)
    q.set_defaults(func=_cmd_extract_es)
    q = ps.add_parser("dichotomy", parents=[common])
    q.add_argument("--seq", required=True)
    q.set_defaults(func=_cmd_extract_dichotomy)
    q = ps.add_parser("thin", parents=[common])
    q.add_argument("--matrix", required=True)
    q.set_defaults(func=_cmd_extract_thin)

    p = sub.add_parser("envelope", parents=[common], help="lower envelope of a polynomial set")
    p.add_argument("--polys", required=True, help="polynomial-set file")
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("realize", parents=[common], help="lines realizing a distinct-letter sequence")
    p.add_argument("--seq", required=True)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("sweep", help="run an experiment sweep")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("ss-block", parents=[common])
    q.add_argument("--k-min", dest="k_min", type=int, default=2)
    q.add_argument("--k-max", dest="k_max", type=int, default=5)
    q.add_argument("--timing", action="store_true")
    q.set_defaults(func=_cmd_sweep_ss_block)
    q = ps.add_parser("sm-allones", parents=[common])
    q.add_argument("--r", type=int, default=2)
    q.add_argument("--m-list", dest="m_list", default="64,256,1024")
    q.add_argument("--trials", type=int, default=None)
    q.add_argument("--timing", action="store_true")
    q.set_defaults(func=_cmd_sweep_sm_allones)

    p = sub.add_parser("fit", parents=[common], help="fit an exponent to sweep json records")
    p.add_argument("--records", required=True, help="json file produced by sweep --format json")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args, _load_config(args.config))
        if args.out:
            _write(args.out, out)
        else:
            sys.stdout.write(out)
    except PatexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
