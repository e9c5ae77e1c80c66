#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

Each argument is a directory of result records as ``run.py`` writes them
to ``.bench_build/results/`` (copy that directory away between the two
commits).  For every workload and end-to-end metric it prints each side's
median and quartiles and the change of the medians.  It refuses, with
exit code 2, to compare records whose kernel backends or Python versions
differ, or records that failed the correctness gate.

Usage:  python3 perfbench/compare.py BEFORE_DIR AFTER_DIR
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import E2E_UNITS


def _load(directory):
    by_workload: dict = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if not rec.get("tiny"):
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__)
    before, after = _load(args[0]), _load(args[1])
    recs = [r for side in (before, after) for rs in side.values() for r in rs]
    setups = {(r["backend"], r["python"]) for r in recs}
    if len(setups) > 1:
        print(f"refusing to compare: results come from different backends/Pythons {sorted(setups)}")
        sys.exit(2)
    if any(r["failed"] for r in recs):
        print("refusing to compare: some runs failed the correctness gate")
        sys.exit(2)
    print(f"backend/python: {setups.pop() if setups else 'none'}")
    print(f"{'workload':<10} {'metric':<14} {'runs':>9} {'before q1/median/q3':>28} "
          f"{'after q1/median/q3':>28} {'change':>8}")
    for workload in sorted(set(before) & set(after)):
        for metric, unit in E2E_UNITS.items():
            a = _quartiles([r[metric] for r in before[workload]])
            b = _quartiles([r[metric] for r in after[workload]])
            runs = f"{len(before[workload])}/{len(after[workload])}"
            print(f"{workload:<10} {metric:<14} {runs:>9} "
                  f"{a[0]:>9.4g}{a[1]:>9.4g}{a[2]:>9.4g} {unit:<3} "
                  f"{b[0]:>9.4g}{b[1]:>9.4g}{b[2]:>9.4g} {unit:<3} {b[1] / a[1] - 1:>+7.1%}")


if __name__ == "__main__":
    main()
