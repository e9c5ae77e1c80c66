#!/usr/bin/env python3
"""Kernel micro-loads on the one backend the checkout builds.

The loads are defined once, in ``benchmarks/bench_kernels.py``; this
script builds the checkout the way ``run.py`` does, runs those loads on
the active backend, and prints nodes, time (best of ``--repeat``) and
nodes per second for each.  ``bench_kernels.py`` itself only compares a
compiled backend with the pure-Python one.

Usage (from the root of a checkout):

    python3 perfbench/micro.py [--repeat N]
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import types

import run


def _counting(kernels):
    """A stand-in for a kernel module that adds up the nodes its searches report."""
    proxy = types.SimpleNamespace(nodes=0, calls=0)

    def counted(fn):
        def call(*args):
            res = fn(*args)
            proxy.calls += 1
            if fn.__name__.endswith("_search"):
                proxy.nodes += res[3]
            return res
        return call

    for name in ("lss_search", "lsm_search", "mat_find", "seq_find"):
        setattr(proxy, name, counted(getattr(kernels, name)))
    return proxy


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=1, help="timing repetitions (best of)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(run.build(run.source_hash())))
    from patex import _backend

    spec = importlib.util.spec_from_file_location("bench_kernels", run.ROOT / "benchmarks" / "bench_kernels.py")
    bk = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bk)
    # The same loads, with the same parameters, as bench_kernels.main().
    loads = [
        bk.load_block_lss(4),
        bk.load_block_lss(5),
        bk.load_rgs_sweep(8),
        bk.load_random_lss(36, seed=11),
        bk.load_lsm(4),
        bk.load_mat_find(200, seed=5),
    ]
    print(f"backend {_backend.backend_name()}")
    print(f"{'load':<44} {'calls':>7} {'nodes':>11} {'time':>10} {'nodes/s':>11}")
    for name, load in loads:
        kern = _counting(_backend.kernels)
        best, _ = bk.bench(load, kern, args.repeat)
        nodes, calls = kern.nodes // args.repeat, kern.calls // args.repeat
        rate = f"{nodes / best:>11.0f}" if nodes else f"{'-':>11}"
        print(f"{name:<44} {calls:>7} {nodes:>11} {best * 1e3:>8.1f}ms {rate}")


if __name__ == "__main__":
    main()
