#!/usr/bin/env python3
"""patex benchmark: four seeded CLI workloads, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact|oracle|extract|envelope \
        --seed N --seconds S --trace 0|1

Builds the checkout's own sources into ``.bench_build/`` (once per source
tree), then measures the workload in fresh processes that import
``patex`` from that build only.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Every time is on the host-speed
probe's reference clock (see pace.py).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with backend, Python version and source revision, is also written to
``.bench_build/results/``.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7  # fresh processes set up per run; setup_s is their median
DEADLINE_S = 175  # a run must end within 180 s of its start

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "peak_rss_mib": "MiB"}


def _die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _source_files():
    """The files a build reads: setup.py, pyproject.toml and the sources under src/."""
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    files += sorted(p for p in (ROOT / "src").rglob("*")
                    if p.is_file() and not any(part == "__pycache__" or part.endswith(".egg-info")
                                               for part in p.parts))
    return files


def source_hash() -> str:
    h = hashlib.sha256()
    for path in _source_files():
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def build(src_hash: str) -> Path:
    """Build the checkout with its own setup.py into a directory keyed by the
    source hash, so a stale extension left in src/ can never be imported;
    return the directory that holds the built package."""
    final = BUILD_DIR / f"patex-{src_hash}"
    if (final / "lib" / "patex" / "__init__.py").is_file():
        return final / "lib"
    tmp = BUILD_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    log = tmp / "build.log"
    with open(log, "w", encoding="utf-8") as fh:
        steps = [
            [sys.executable, "setup.py", "egg_info", "--egg-base", str(tmp),
             "build", "--build-base", str(tmp), "--build-lib", str(tmp / "lib")],
            [sys.executable, "-m", "compileall", "-q", str(tmp / "lib")],
        ]
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT).returncode:
                _die(f"build step failed: {' '.join(cmd)} (log: {log})", 1)
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final / "lib"


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _worker(lib, args, workdir, timeout, setup_only=False):
    """Run one fresh worker process and return its JSON line."""
    env = {k: v for k, v in os.environ.items() if k not in ("PATEX_PURE", "PYTHONPATH")}
    cmd = [sys.executable, "-E", "-s", str(WORKER), "--lib", str(lib),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        _die("worker did not finish in time", 1)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        _die(f"worker exited with code {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (for the benchmark's own tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "patex" / "__init__.py").is_file():
        _die(f"{ROOT} is not a patex checkout (no setup.py or src/patex)")
    src_hash = source_hash()
    lib = build(src_hash)

    started = time.monotonic()
    workdir = BUILD_DIR / "runs" / f"{args.workload}-{'tiny' if args.tiny else 'full'}"
    shutil.rmtree(workdir, ignore_errors=True)
    # The set-up-only processes run half before and half after the one that
    # measures, so that their median samples the host over the whole run.
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    before = [_worker(lib, args, workdir, DEADLINE_S, setup_only=True) for _ in range(probes // 2)]
    res = _worker(lib, args, workdir, DEADLINE_S - (time.monotonic() - started))
    after = [_worker(lib, args, workdir, DEADLINE_S - (time.monotonic() - started), setup_only=True)
             for _ in range(probes - probes // 2)]
    setups = [r["setup_s"] for r in before + [res] + after]
    setups_measured = [r["setup_s_measured"] for r in before + [res] + after]

    res.update(
        setup_s=statistics.median(setups),
        setup_samples=setups,
        setup_samples_measured=setups_measured,
        error_rate=res["failed"] / res["attempted"],
        git_rev=git_rev(),
        source_hash=src_hash,
        seconds=args.seconds,
        trace=args.trace,
        tiny=args.tiny,
    )
    if args.trace:
        import tracing

        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  backend {res['backend']}  "
          f"python {res['python']}  rev {res['git_rev'] or 'n/a'}  source {src_hash}")
    print(f"passes {res['passes']}  job samples {res['job_samples']}  "
          f"setup samples {len(setups)}  traced passes {res.get('traced_passes', 0)}")
    for key in ("error_rate", "job_p90_ms"):
        if key in res:
            print(f"{key} = {res[key]:.6g}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"on the wall clock: setup_s = {statistics.median(setups_measured):.6g} s  "
              f"wall_s = {res['wall_s_measured']:.6g} s")
    if res.get("trace_missing"):
        print(f"trace: not found, not traced: {', '.join(res['trace_missing'])}")
    for job_id, msg in res["failures"].items():
        print(f"FAILED {job_id}: {msg}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
