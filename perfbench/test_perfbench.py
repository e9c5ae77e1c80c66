"""Tests of the benchmark itself: a tiny run of every workload in both
modes, and the tracer's span and self-time arithmetic.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import itertools
import json
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gate
import pace
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric(workload, trace, kind):
    lines = _tiny_run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate = 0" in lines
    assert any(line.startswith(f"workload {workload} ") and " backend " in line for line in lines)
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_sampler_adds_up_probe_samples_and_scales_by_them():
    sampler = pace.Sampler()
    sampler.sample()
    mark = sampler.mark()
    assert mark[0] == pace.UNITS_PER_SAMPLE and mark[1] > 0
    sampler.sample()
    sampler.sample()
    units, seconds = sampler.units - mark[0], sampler.seconds - mark[1]
    assert units == 2 * pace.UNITS_PER_SAMPLE
    assert sampler.factor_since(mark) == pytest.approx(seconds / (units * pace.UNIT_S))
    # a host twice as slow as the reference halves every time measured on it
    assert pace.speed_factor(2 * 10 * pace.UNIT_S, 10) == pytest.approx(2.0)


def _span(name, start, end, parent):
    return [name, "layer", start, end, parent, "job", None]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.first", 5.0, 6.0, 3),
        _span("b.second", 5.5, 7.0, 3),  # overlaps b.first: b loses 2.0, not 2.5
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_tracer_nests_spans_and_restores_the_originals():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    ns = types.SimpleNamespace(__name__="ns")
    ns.read = lambda path: "0101"
    ns.main = lambda argv: len(ns.read(argv[0]))
    original = ns.read
    tracer.wrap(ns, "read", "parse", note=lambda args, res: len(res))
    tracer.wrap(ns, "main", "cli")
    tracer.wrap(ns, "gone", "parse")
    assert tracer.missing == {"ns.gone"}
    tracer.job = "job-1"
    assert ns.main(["x"]) == 4
    tracer.restore()
    assert ns.read is original
    spans, _ = tracer.take()
    assert [(s[tracing.NAME], s[tracing.PARENT], s[tracing.JOB]) for s in spans] == [
        ("ns.main", -1, "job-1"), ("ns.read", 0, "job-1")]
    # main runs from tick 0 to 3 and read from 1 to 2
    metrics = tracing.layer_metrics(spans, (0, 0.0))
    assert metrics["cli.self_s"] == 2.0 and metrics["parse.s"] == 1.0
    assert metrics["parse.calls"] == 1 and metrics["parse.bytes"] == 4 and metrics["cli.calls"] == 1


def test_fast_gate_checks_agree_with_brute_force():
    rng = random.Random(7)
    lshape, allones2 = [(0, 0), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 0), (1, 1)]
    for _ in range(300):
        u = [rng.randrange(4) for _ in range(rng.randrange(10))]
        assert gate.longest_aba_free(u) == gate.brute_lss(u, [0, 1, 0])
        cells = sorted({(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(1, 10))})
        assert gate._lshape_free(cells) == (not gate.mat_contains(cells, lshape))
        assert gate._allones2_free(cells) == (not gate.mat_contains(cells, allones2))
