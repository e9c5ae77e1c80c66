"""Spans around the package's layers, recorded from outside the package.

``Tracer.install()`` replaces module attributes with recording wrappers.
Each wrapper goes on the name the caller looks up: ``cli`` calls
``solvers.lss_exact`` through the module, while ``sweeps`` imported
``lss_exact`` by name, so both ``patex.solvers.lss_exact`` and
``patex.sweeps.lss_exact`` are wrapped.  ``restore()`` puts the originals
back.  Spans stay in memory; ``layer_metrics`` turns one pass's spans
into the per-layer metrics.
"""

from __future__ import annotations

import gc
import time

# name -> unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "kernel.nodes": "count",
    "kernel.nodes_per_call": "count",
    "kernel.search_calls": "count",
    "kernel.search_s": "s",
    "kernel.nodes_per_s": "1/s",
    "kernel.find_calls": "count",
    "kernel.find_s": "s",
    "kernel.find_hit_frac": "frac",
    "solvers.calls": "count",
    "solvers.self_s": "s",
    "solvers.instances": "count",
    "containment.calls": "count",
    "containment.self_s": "s",
    "matrices.builds": "count",
    "matrices.build_s": "s",
    "extractors.trials": "count",
    "extractors.self_s": "s",
    "extractors.repairs_per_trial": "count",
    "sweeps.self_s": "s",
    "constructions.s": "s",
    "parse.calls": "count",
    "parse.bytes": "B",
    "parse.s": "s",
    "envelopes.calls": "count",
    "envelopes.self_s": "s",
    "envelopes.pairs": "count",
    "envelopes.pieces": "count",
    "serialize.s": "s",
    "serialize.bytes": "B",
    "cli.calls": "count",
    "cli.parser_s": "s",
    "cli.self_s": "s",
    "runtime.gc_collections": "count",
    "runtime.gc_pause_s": "s",
    "trace.overhead_frac": "frac",
}

# Span fields, stored as lists for speed.
NAME, LAYER, START, END, PARENT, JOB, NOTE = range(7)

_CONSTRUCTIONS = ("block_sequence", "all_ones", "diagonal", "row", "column", "l_shape",
                  "upper_construction_allones", "insert_column", "corner_join",
                  "pattern_from_sequence", "four_forcing_patterns")
_EXTRACTORS = ("probabilistic_extract", "erdos_szekeres_extract", "dichotomy_extract",
               "alternate_thinning")


def _nodes(args, res):
    return res[3]


def _hit(args, res):
    return res is not None


def _length(args, res):
    return len(res)


def _envelope(args, res):
    n = len(args[0])
    return (n * (n - 1) // 2, len(res.pieces))


class Tracer:
    """Records one span per wrapped call: name, layer, start, end, parent
    span index and job id, plus an optional note taken from the call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.job = None
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._stack: list[int] = []
        self._undo: list = []
        self._gc_start = 0.0
        self.missing: set[str] = set()  # boundaries the package does not have

    def wrap(self, owner, attr: str, layer: str, note=None):
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                res = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if note is not None:
                span[NOTE] = note(args, res)
            return res

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def install(self):
        """Wrap every layer boundary of the loaded ``patex`` package."""
        import patex._backend
        from patex import cli, constructions, containment, envelopes, extractors, solvers, sweeps
        from patex.matrices import BitMatrix

        kernels = patex._backend.kernels
        self.wrap(kernels, "lss_search", "kernel.search", _nodes)
        self.wrap(kernels, "lsm_search", "kernel.search", _nodes)
        self.wrap(kernels, "mat_find", "kernel.find", _hit)
        self.wrap(kernels, "seq_find", "kernel.find", _hit)
        for fn in ("lss_exact", "lsm_exact", "ss_oracle", "sm_oracle"):
            self.wrap(solvers, fn, "solvers")
        self.wrap(sweeps, "lss_exact", "solvers")
        self.wrap(containment, "mat_contains", "containment")
        self.wrap(containment, "seq_contains", "containment")
        self.wrap(extractors, "mat_contains", "containment")
        self.wrap(BitMatrix, "__post_init__", "matrices")
        for fn in _EXTRACTORS:
            self.wrap(extractors, fn, "extractors")
        self.wrap(sweeps, "probabilistic_extract", "extractors")
        self.wrap(sweeps, "sweep_sm_allones", "sweeps")
        self.wrap(sweeps, "sweep_ss_block", "sweeps")
        for fn in _CONSTRUCTIONS:
            self.wrap(constructions, fn, "constructions")
        for fn in ("all_ones", "block_sequence", "upper_construction_allones"):
            self.wrap(sweeps, fn, "constructions")
        self.wrap(solvers, "all_ones", "constructions")
        self.wrap(extractors, "l_shape", "constructions")
        self.wrap(cli, "_read", "parse", _length)
        self.wrap(cli, "parse_matrix", "parse")
        self.wrap(cli, "parse_sequence", "parse")
        self.wrap(envelopes, "parse_polynomials", "parse")
        self.wrap(envelopes, "lower_envelope", "envelopes", _envelope)
        self.wrap(envelopes, "realize_lines", "envelopes")
        for owner, fn in ((cli, "_solver_json"), (cli, "_extract_json"), (sweeps, "report"),
                          (cli, "format_matrix"), (cli, "format_sequence"),
                          (envelopes, "format_polynomials")):
            self.wrap(owner, fn, "serialize", _length)
        self.wrap(cli, "build_parser", "cli.parser")
        self.wrap(cli, "main", "cli")
        gc.callbacks.append(self._on_gc)

    def restore(self):
        """Put back every wrapped attribute and stop counting collections."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = self.clock()
        else:
            self.gc_collections += 1
            self.gc_pause_s += self.clock() - self._gc_start

    def take(self):
        """Return the spans and collection counts recorded so far, and reset them."""
        spans = list(self.spans)
        self.spans.clear()
        gcs = (self.gc_collections, self.gc_pause_s)
        self.gc_collections, self.gc_pause_s = 0, 0.0
        return spans, gcs


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append((hi - lo) - covered)
    return out


def layer_metrics(spans, gc_counts) -> dict[str, float]:
    """Per-layer metrics of one pass (everything but trace.overhead_frac)."""
    selfs = self_times(spans)
    layer_s: dict[str, float] = {}
    count: dict[str, int] = {}
    for span, t in zip(spans, selfs):
        layer_s[span[LAYER]] = layer_s.get(span[LAYER], 0.0) + t
        count[span[LAYER]] = count.get(span[LAYER], 0) + 1

    def layer_of(i):
        return spans[i][LAYER] if i >= 0 else None

    nodes = hits = instances = repairs = parse_bytes = ser_bytes = pairs = pieces = 0
    for span in spans:
        layer, note = span[LAYER], span[NOTE]
        if layer == "kernel.search":
            nodes += note or 0
            instances += layer_of(span[PARENT]) == "solvers"
        elif layer == "kernel.find" and note:
            hits += 1
            owner = layer_of(span[PARENT])
            if owner == "containment" and layer_of(spans[span[PARENT]][PARENT]) == "extractors":
                repairs += 1
        elif layer == "parse" and note is not None:
            parse_bytes += note
        elif layer == "serialize" and layer_of(span[PARENT]) != "serialize" and note is not None:
            ser_bytes += note
        elif layer == "envelopes" and note is not None:
            pairs += note[0]
            pieces += note[1]
    search_calls = count.get("kernel.search", 0)
    search_s = layer_s.get("kernel.search", 0.0)
    find_calls = count.get("kernel.find", 0)
    trials = sum(1 for s in spans if s[NAME].endswith(".probabilistic_extract"))
    return {
        "kernel.nodes": nodes,
        "kernel.nodes_per_call": nodes / search_calls if search_calls else 0.0,
        "kernel.search_calls": search_calls,
        "kernel.search_s": search_s,
        "kernel.nodes_per_s": nodes / search_s if search_s else 0.0,
        "kernel.find_calls": find_calls,
        "kernel.find_s": layer_s.get("kernel.find", 0.0),
        "kernel.find_hit_frac": hits / find_calls if find_calls else 0.0,
        "solvers.calls": count.get("solvers", 0),
        "solvers.self_s": layer_s.get("solvers", 0.0),
        "solvers.instances": instances,
        "containment.calls": count.get("containment", 0),
        "containment.self_s": layer_s.get("containment", 0.0),
        "matrices.builds": count.get("matrices", 0),
        "matrices.build_s": layer_s.get("matrices", 0.0),
        "extractors.trials": count.get("extractors", 0),
        "extractors.self_s": layer_s.get("extractors", 0.0),
        "extractors.repairs_per_trial": repairs / trials if trials else 0.0,
        "sweeps.self_s": layer_s.get("sweeps", 0.0),
        "constructions.s": layer_s.get("constructions", 0.0),
        "parse.calls": count.get("parse", 0),
        "parse.bytes": parse_bytes,
        "parse.s": layer_s.get("parse", 0.0),
        "envelopes.calls": sum(1 for s in spans if s[NAME].endswith(".lower_envelope")),
        "envelopes.self_s": layer_s.get("envelopes", 0.0),
        "envelopes.pairs": pairs,
        "envelopes.pieces": pieces,
        "serialize.s": layer_s.get("serialize", 0.0),
        "serialize.bytes": ser_bytes,
        "cli.calls": count.get("cli", 0),
        "cli.parser_s": layer_s.get("cli.parser", 0.0),
        "cli.self_s": layer_s.get("cli", 0.0),
        "runtime.gc_collections": gc_counts[0],
        "runtime.gc_pause_s": gc_counts[1],
    }


def write_spans(spans, path):
    """Write spans as tab-separated lines: index, name, layer, start, end, parent, job, note."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tlayer\tstart\tend\tparent\tjob\tnote\n")
        for i, s in enumerate(spans):
            fh.write(f"{i}\t{s[NAME]}\t{s[LAYER]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[JOB]}\t{s[NOTE]}\n")
