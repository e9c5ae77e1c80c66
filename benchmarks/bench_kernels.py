#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python twin.

Runs the package's hot search loads on both backends and prints a table
with the speedup.  Results are asserted identical (value, witness, node
count) before timing is reported.

Usage:
    python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import time

from patex import _corepy

try:
    from patex import _corec
except ImportError:
    _corec = None

from patex.constructions import all_ones, block_sequence
from patex.solvers import restricted_growth_strings

BUDGET = 10**9


def load_block_lss(k):
    u = list(block_sequence(k).letters)
    v = [0, 1, 0, 1]

    def run(kern):
        return kern.lss_search(u, v, BUDGET)

    return f"lss block k={k} (len {k * k})", run


def load_rgs_sweep(m):
    us = [list(x) for x in restricted_growth_strings(m)]
    v = [0, 1, 0, 1]

    def run(kern):
        acc = 0
        for u in us:
            acc += kern.lss_search(u, v, BUDGET)[1]
        return acc

    return f"lss over all {len(us)} classes of length {m}", run


def load_random_lss(m, seed):
    rng = random.Random(seed)
    alpha = max(2, int(m**0.5))
    u = [rng.randrange(alpha) for _ in range(m)]
    v = [0, 1, 0, 1]

    def run(kern):
        return kern.lss_search(u, v, BUDGET)

    return f"lss random len {m}, {alpha} letters", run


def load_lsm(n):
    a = all_ones(n, n)

    def run(kern):
        return kern.lsm_search(n, n, a.cells, 2, 2, (0, 1, 2, 3), BUDGET)

    return f"lsm all-ones {n}x{n} vs 2x2", run


def load_mat_find(m, seed):
    rng = random.Random(seed)
    side = 3 * int(m**0.5)
    cells = sorted(r * side + c for r, c in rng.sample([(r, c) for r in range(side) for c in range(side)], m))

    def run(kern):
        hits = 0
        for prows, pcols in (
            ([0, 1, 1], [1, 0, 2]),
            ([0, 1, 2], [2, 0, 1]),
            ([0, 1, 1], [1, 0, 1]),
        ):
            pr, pc = max(prows) + 1, max(pcols) + 1
            pcells = [r * pc + c for r, c in zip(prows, pcols)]
            if kern.mat_find(side, side, cells, pr, pc, pcells):
                hits += 1
        return hits

    return f"mat_find random {m} ones", run


def bench(run, kern, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = run(kern)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions (best of)")
    args = parser.parse_args()

    if _corec is None:
        print("compiled backend not built; nothing to compare")
        return

    loads = [
        load_block_lss(4),
        load_block_lss(5),
        load_rgs_sweep(8),
        load_random_lss(36, seed=11),
        load_lsm(4),
        load_mat_find(200, seed=5),
    ]
    print(f"{'load':<44} {_corepy.BACKEND:>10} {_corec.BACKEND:>10} {'speedup':>8}")
    for name, run in loads:
        t_py, r_py = bench(run, _corepy, args.repeat)
        t_c, r_c = bench(run, _corec, args.repeat)
        assert r_py == r_c, f"backend mismatch on {name}: {r_py} != {r_c}"
        print(f"{name:<44} {t_py * 1e3:>8.1f}ms {t_c * 1e3:>8.1f}ms {t_py / t_c:>7.1f}x")


if __name__ == "__main__":
    main()
