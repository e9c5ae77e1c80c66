"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py`` as a fresh single-threaded interpreter that imports
``patex`` only from the build directory given by ``--lib``.  One client
sends the workload's jobs back to back through ``patex.cli.main(argv)``,
pass after pass, until the next pass would end after ``--seconds``.
From its start to its end it samples the host's speed with ``pace.py``,
and every time it reports is on that probe's reference clock.  It prints
one JSON line with the measurements and the gate's verdict.

With ``--setup-only`` it stops once set up and prints only its set-up time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0  # the seed whose per-job output digests are frozen in digests.json
SETUP_PROBE_SAMPLES = 10  # probe samples taken right after set-up, besides the timer's


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lib", required=True, help="directory holding the built patex package")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    ap.add_argument("--workdir", required=True, help="directory for the generated inputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return ap.parse_args(argv)


def _run_pass(cli, jobs, sampler, tracer=None):
    """Run every job once, each followed by a probe sample.

    Return the pass's measured wall time (the sum of the job latencies,
    without the probe samples taken during them), the same on the
    reference clock, the job latencies on the reference clock, each job's
    (exit code, output text) and the pass's host speed factor.  A job is
    put on the reference clock by the probe samples taken during it and
    right after it: the host's speed switches every 10 to 700 ms, so even
    the one sample after a short job mostly sees the speed the job ran at."""
    clock = time.perf_counter
    measured, latencies, results = [], [], []
    pass_mark = sampler.mark()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        out, err = io.StringIO(), io.StringIO()
        mark = sampler.mark()
        t = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(job.argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        except Exception:  # a job that raises is a failed job; keep going
            code = "raised: " + traceback.format_exc(limit=3)
        measured.append(clock() - t - (sampler.seconds - mark[1]))
        results.append((code, out.getvalue()))
        sampler.sample()
        latencies.append(measured[-1] / sampler.factor_since(mark))
    for i, job in enumerate(jobs):
        if job.out is not None and results[i][0] == 0:
            results[i] = (0, Path(job.out).read_text(encoding="utf-8"))
    return sum(measured), sum(latencies), latencies, results, sampler.factor_since(pass_mark)


def _gate(jobs, results, first_digests, frozen):
    """Failure message per failed job: wrong exit code, failed check, or an
    output digest that differs from the first pass or from the frozen one."""
    import gate

    failures = {}
    for job, (code, text) in zip(jobs, results):
        want = frozen[job.id]["exit"] if job.id in frozen else 0
        if code != want:
            failures[job.id] = f"exit {code!r}, expected {want}"
            continue
        if code == 0:
            msg = job.check(text)
            if msg:
                failures[job.id] = msg
                continue
        dig = gate.digest(text)
        first = first_digests.setdefault(job.id, dig)
        if dig != first:
            failures[job.id] = "output differs from the first pass"
        elif job.id in frozen and dig != frozen[job.id]["digest"]:
            failures[job.id] = f"output digest {dig} differs from the frozen {frozen[job.id]['digest']}"
    return failures


def _frozen(workload, seed, jobs, tiny):
    """Frozen (exit code, digest) per job: for every job at the default seed,
    and at any seed for the jobs whose inputs do not depend on the seed."""
    if tiny:
        return {}
    table = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    if sorted(table) != sorted(job.id for job in jobs):
        raise SystemExit(f"{DIGESTS.name} does not match the {workload} job list")
    return {job.id: table[job.id] for job in jobs if seed == DEFAULT_SEED or not job.seeded}


def main(argv=None):
    sampler = pace.Sampler()
    sampler.start()
    args = _parse_args(argv)
    lib = str(Path(args.lib).resolve())
    sys.path.insert(0, lib)
    import patex
    import patex.cli

    if not str(Path(patex.__file__).resolve()).startswith(lib + os.sep):
        raise SystemExit(f"patex imported from {patex.__file__}, not from the build in {lib}")
    import workloads

    jobs = workloads.build(args.workload, args.seed, Path(args.workdir), tiny=args.tiny)
    setup_measured = time.monotonic() - args.t0 - sampler.seconds
    for _ in range(SETUP_PROBE_SAMPLES):
        sampler.sample()
    setup_s = setup_measured / sampler.factor_since((0, 0.0))
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "setup_s_measured": setup_measured}))
        return

    import tracing

    frozen = _frozen(args.workload, args.seed, jobs, args.tiny)
    first_digests: dict = {}
    failures: dict = {}
    walls, ref_walls, factors, latencies, traced_walls, layer_rows = [], [], [], [], [], []
    attempted = failed = 0
    tracer = tracing.Tracer() if args.trace else None
    spans_out = None
    traced = False  # traced runs alternate untraced and traced passes
    clock = time.perf_counter
    start = clock()
    last = 0.0
    while True:
        enough = walls and (traced_walls or not args.trace)
        if enough and clock() - start + last > args.seconds:
            break
        t = clock()
        if traced:
            tracer.install()
            _, wall, _, results, _ = _run_pass(patex.cli, jobs, sampler, tracer)
            tracer.restore()
            spans, gcs = tracer.take()
            traced_walls.append(wall)
            layer_rows.append(tracing.layer_metrics(spans, gcs))
            if spans_out is None:
                spans_out = spans
        else:
            wall, ref_wall, lat, results, factor = _run_pass(patex.cli, jobs, sampler)
            walls.append(wall)
            ref_walls.append(ref_wall)
            factors.append(factor)
            latencies.extend(lat)
        traced = bool(args.trace) and not traced
        attempted += len(jobs)
        pass_failures = _gate(jobs, results, first_digests, frozen)
        # Only one pass's outputs are alive at a time, so that peak_rss_mib
        # does not depend on how many passes fit in the run.
        del results
        failed += len(pass_failures)
        for job_id, msg in pass_failures.items():
            failures.setdefault(job_id, msg)
        last = clock() - t
    sampler.stop()
    if spans_out is not None:
        tracing.write_spans(spans_out, Path(args.workdir) / "spans.tsv")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": patex.backend_name(),
        "python": platform.python_version(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_s": setup_s,
        "setup_s_measured": setup_measured,
        "passes": len(walls),
        "pass_walls": walls,
        "pass_speed_factors": factors,
        "wall_s_measured": statistics.median(walls),
        "pass_ref_walls": ref_walls,
        "wall_s": statistics.median(ref_walls),
        "job_samples": len(latencies),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": first_digests,
    }
    if len(latencies) >= 100:
        result["job_p90_ms"] = 1000 * statistics.quantiles(latencies, n=10)[-1]
    if layer_rows:
        result["traced_passes"] = len(traced_walls)
        result["layers"] = {
            name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]
        }
        result["layers"]["trace.overhead_frac"] = statistics.median(traced_walls) / result["wall_s"] - 1
        result["traced_walls"] = traced_walls
        result["trace_missing"] = sorted(tracer.missing)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
