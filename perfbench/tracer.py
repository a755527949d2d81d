"""In-process replay of one round of CLI calls, traced or untraced.

Usage:  python3 perfbench/tracer.py CALLS.json RESULT.json SINK_PREFIX TRACED

Runs in a fresh interpreter (started by run.py with PYTHONPATH pointing at the
package) so that the package's lru_cache levels start cold, as they do in the
CLI.  Each call goes through ``avoidpairs.cli.main(argv)`` with stdout sent to
``SINK_PREFIX<i>.out``.  With TRACED=1 the public functions at each module
boundary are wrapped where they are looked up:

* span wrappers record (name, call, parent span, start, end) in memory, and
  the per-layer numbers are the spans' total, inclusive or self time;
* µs-scale functions (``surd_floor``, ``lr_values``, the realizability
  decision) are only counted, and their per-call time comes from replaying a
  sample of the same inputs in a batch after the wrappers are removed.

A wrapped name that no longer exists is reported in ``absent`` instead of
failing, so internals can be renamed without breaking the benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter
SAMPLE = 20_000
REPLAYS = 5

# (module, attribute, span name) for plain span wrappers
SPANS = [
    ("avoidpairs.cli", "emit", "cli.emit"),
    ("avoidpairs.criterion", "scan_offset_disjunction", "criterion.scan"),
    ("avoidpairs.criterion", "scan_affine_q", "criterion.scan"),
    ("avoidpairs.criterion", "scan_mod23", "criterion.scan"),
    ("avoidpairs.criterion", "scan_interval", "criterion.scan"),
    ("avoidpairs.criterion", "avoidability_certificate", "criterion.scan"),
    ("avoidpairs.criterion", "eval_criterion", "criterion.scan"),
    ("avoidpairs.oracle", "canonical_rows", "canon.canonical_rows"),
    ("avoidpairs.oracle", "arrows", "oracle.arrows"),
    ("avoidpairs.oracle", "arrows_pair", "oracle.decide"),
    ("avoidpairs.oracle", "compute_S_n", "oracle.decide"),
    ("avoidpairs.witness", "girth", "graphs.girth"),
    ("avoidpairs.cli", "girth", "graphs.girth"),
    ("avoidpairs.oracle", "girth", "graphs.girth"),
    ("avoidpairs.cli", "to_graph6", "graphs.to_graph6"),
    ("avoidpairs.oracle", "to_graph6", "graphs.to_graph6"),
    ("avoidpairs.witness", "build_witness_or_complement", "witness.build"),
    ("avoidpairs.witness", "verify_witness", "witness.verify"),
    ("avoidpairs.bipartite", "bipartite_realize", "bipartite.realize"),
    ("avoidpairs.pell", "verify_pell_state", "pell.states"),
    ("avoidpairs.equidist", "diag_equidist", "equidist.diag"),
]
# (module, attribute, counter name) for µs-scale functions
COUNTERS = [
    ("avoidpairs.criterion", "lr_values", "criterion.lr_values"),
    ("avoidpairs.criterion", "surd_floor", "exactarith.surd_floor"),
    ("avoidpairs.criterion", "clique_forest_realizable", "criterion.realizable"),
    ("avoidpairs.witness", "clique_forest_realizable", "criterion.realizable"),
]
ENUMERATORS = [("avoidpairs.oracle", "_all_classes"), ("avoidpairs.oracle", "_classes_n_e_windowed")]
GENERATORS = [("avoidpairs.pell", "m_states"), ("avoidpairs.pell", "pell_states")]
CHUNK_LAYER = {"avoidpairs.criterion": "criterion.scan", "avoidpairs.oracle": "oracle.decide"}

LAYER_UNITS = {
    "cli.import_s": "s", "cli.parse_s": "s", "cli.emit_s": "s", "cli.emit_calls": "count",
    "cli.emit_bytes": "bytes", "criterion.scan_s": "s", "criterion.lr_values_calls": "count",
    "criterion.lr_values_ns": "ns", "exactarith.surd_floor_calls": "count",
    "exactarith.surd_floor_ns": "ns", "criterion.realizable_calls": "count",
    "criterion.realizable_s": "s", "parallel.chunks": "count", "parallel.run_chunked_s": "s",
    "canon.labellings": "count", "canon.labelling_us": "us", "canon.canonical_rows_s": "s",
    "oracle.classes": "count", "oracle.classes_per_labelling": "ratio",
    "oracle.enumerate_s": "s", "oracle.arrows_calls": "count", "oracle.arrows_s": "s",
    "graphs.girth_calls": "count", "graphs.girth_s": "s", "graphs.to_graph6_s": "s",
    "witness.build_s": "s", "witness.verify_s": "s", "bipartite.realize_s": "s",
    "pell.states_s": "s", "equidist.diag_s": "s", "trace.coverage": "ratio",
    "trace.overhead_s": "s", "trace.wall_s": "s",
}
# the wrapped name behind each layer metric; when it is gone the metric reads 0
# and is reported absent
METRIC_SOURCE = {
    "cli.parse_s": "avoidpairs.cli.build_parser",
    "cli.emit_s": "avoidpairs.cli.emit",
    "cli.emit_calls": "avoidpairs.cli.emit",
    "criterion.lr_values_calls": "avoidpairs.criterion.lr_values",
    "criterion.lr_values_ns": "avoidpairs.criterion.lr_values",
    "exactarith.surd_floor_calls": "avoidpairs.criterion.surd_floor",
    "exactarith.surd_floor_ns": "avoidpairs.criterion.surd_floor",
    "criterion.realizable_calls": "avoidpairs.criterion.clique_forest_realizable",
    "criterion.realizable_s": "avoidpairs.criterion.clique_forest_realizable",
    "parallel.chunks": "avoidpairs.criterion.run_chunked",
    "parallel.run_chunked_s": "avoidpairs.criterion.run_chunked",
    "canon.labellings": "avoidpairs.oracle.canonical_rows",
    "canon.labelling_us": "avoidpairs.oracle.canonical_rows",
    "canon.canonical_rows_s": "avoidpairs.oracle.canonical_rows",
    "oracle.classes": "avoidpairs.oracle._all_classes",
    "oracle.classes_per_labelling": "avoidpairs.oracle._all_classes",
    "oracle.enumerate_s": "avoidpairs.oracle._all_classes",
    "oracle.arrows_calls": "avoidpairs.oracle.arrows",
    "oracle.arrows_s": "avoidpairs.oracle.arrows",
    "graphs.girth_calls": "avoidpairs.witness.girth",
    "graphs.girth_s": "avoidpairs.witness.girth",
    "graphs.to_graph6_s": "avoidpairs.cli.to_graph6",
    "witness.build_s": "avoidpairs.witness.build_witness_or_complement",
    "witness.verify_s": "avoidpairs.witness.verify_witness",
    "bipartite.realize_s": "avoidpairs.bipartite.bipartite_realize",
    "pell.states_s": "avoidpairs.pell.m_states",
    "equidist.diag_s": "avoidpairs.equidist.diag_equidist",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, call, parent index, start, end]
        self.stack: list[int] = []
        self.call = -1
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.samples: dict[str, list[tuple]] = defaultdict(list)
        self.originals: dict[str, object] = {}
        self.patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.chunks = 0
        self.classes = 0
        self.enum_depth = 0

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, self.call, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        cell, sample = self.counts[name], self.samples[name]
        self.originals.setdefault(name, fn)

        def wrapper(*args):
            cell[0] += 1
            if len(sample) < SAMPLE:
                sample.append(args)
            return fn(*args)

        return wrapper

    def span_generator(self, name, fn):
        def wrapper(*args, **kwargs):
            step = self.span(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    value = step()
                except StopIteration:
                    return
                yield value

        return wrapper

    def parser_builder(self, fn):
        def wrapper(*args, **kwargs):
            parser = fn(*args, **kwargs)
            parser.parse_args = self.span("cli.parse", parser.parse_args)
            return parser

        return self.span("cli.parse", wrapper)

    def run_chunked(self, fn):
        def wrapper(chunk_fn, *args, **kwargs):
            layer = CHUNK_LAYER.get(getattr(chunk_fn, "__module__", ""), "chunk")
            timed = self.span(layer, chunk_fn)

            def counted(*chunk_args):
                self.chunks += 1
                return timed(*chunk_args)

            return fn(counted, *args, **kwargs)

        return self.span("parallel.run_chunked", wrapper)

    def enumerator(self, fn):
        info = getattr(fn, "cache_info", None)

        def wrapper(*args):
            outer = self.enum_depth == 0
            misses = info().misses if info else 0
            self.enum_depth += 1
            try:
                result = fn(*args)
            finally:
                self.enum_depth -= 1
            if outer and (info is None or info().misses > misses):
                self.classes += len(result)
            return result

        return self.span("oracle.enumerate", wrapper)

    # -- installation -----------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            self.absent.append(f"{module}.{attr}")
            return
        self.patched.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self.span(name, fn))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, name=name: self.counter(name, fn))
        for module, attr in ENUMERATORS:
            self._patch(module, attr, self.enumerator)
        for module, attr in GENERATORS:
            self._patch(module, attr, lambda fn: self.span_generator("pell.states", fn))
        self._patch("avoidpairs.cli", "build_parser", self.parser_builder)
        for module in ("avoidpairs.criterion", "avoidpairs.oracle"):
            self._patch(module, "run_chunked", self.run_chunked)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self.patched):
            setattr(mod, attr, orig)

    # -- results ----------------------------------------------------------

    def per_call_ns(self, name: str) -> float:
        """Median over REPLAYS batch replays of the sampled inputs, per call."""
        fn, sample = self.originals.get(name), self.samples.get(name)
        if fn is None or not sample:
            return 0.0
        times = []
        for _ in range(REPLAYS):
            t0 = perf()
            for args in sample:
                fn(*args)
            times.append((perf() - t0) / len(sample) * 1e9)
        return statistics.median(times)

    def layers(self, import_s: float, wall_s: float, emit_bytes: int) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        self_s: dict[str, float] = defaultdict(float)
        outer_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered = import_s
        for idx in range(len(spans) - 1, -1, -1):
            name, _, parent, start, end = spans[idx]
            dur = end - start
            self_s[name] += dur - child[idx]
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            else:
                covered += dur
            if parent < 0 or spans[parent][0] != name:
                outer_s[name] += dur
        count = {name: cell[0] for name, cell in self.counts.items()}
        labellings = calls["canon.canonical_rows"]
        realizable = count.get("criterion.realizable", 0)
        return {
            "cli.import_s": import_s,
            "cli.parse_s": outer_s["cli.parse"],
            "cli.emit_s": outer_s["cli.emit"],
            "cli.emit_calls": calls["cli.emit"],
            "cli.emit_bytes": emit_bytes,
            "criterion.scan_s": self_s["criterion.scan"],
            "criterion.lr_values_calls": count.get("criterion.lr_values", 0),
            "criterion.lr_values_ns": self.per_call_ns("criterion.lr_values"),
            "exactarith.surd_floor_calls": count.get("exactarith.surd_floor", 0),
            "exactarith.surd_floor_ns": self.per_call_ns("exactarith.surd_floor"),
            "criterion.realizable_calls": realizable,
            "criterion.realizable_s": realizable * self.per_call_ns("criterion.realizable") / 1e9,
            "parallel.chunks": self.chunks,
            "parallel.run_chunked_s": self_s["parallel.run_chunked"],
            "canon.labellings": labellings,
            "canon.labelling_us": outer_s["canon.canonical_rows"] / labellings * 1e6
            if labellings else 0.0,
            "canon.canonical_rows_s": outer_s["canon.canonical_rows"],
            "oracle.classes": self.classes,
            "oracle.classes_per_labelling": self.classes / labellings if labellings else 0.0,
            "oracle.enumerate_s": outer_s["oracle.enumerate"],
            "oracle.arrows_calls": calls["oracle.arrows"],
            "oracle.arrows_s": outer_s["oracle.arrows"],
            "graphs.girth_calls": calls["graphs.girth"],
            "graphs.girth_s": outer_s["graphs.girth"],
            "graphs.to_graph6_s": outer_s["graphs.to_graph6"],
            "witness.build_s": outer_s["witness.build"],
            "witness.verify_s": outer_s["witness.verify"],
            "bipartite.realize_s": outer_s["bipartite.realize"],
            "pell.states_s": outer_s["pell.states"],
            "equidist.diag_s": outer_s["equidist.diag"],
            "trace.coverage": covered / wall_s,
        }


def main(calls_path: str, result_path: str, sink_prefix: str, traced: bool) -> None:
    with open(calls_path) as fh:
        calls = json.load(fh)
    tracer = Tracer() if traced else None
    t0 = perf()
    import avoidpairs.cli as cli

    import_s = perf() - t0
    if tracer:
        tracer.install()
    codes, errors = [], []
    for i, call in enumerate(calls):
        if tracer:
            tracer.call = i
        saved = sys.stdout
        with open(f"{sink_prefix}{i}.out", "w") as sink:
            sys.stdout = sink
            try:
                codes.append(cli.main(call["argv"]))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 2)
            except Exception as exc:  # a crash is one failed call, not a dead replay
                codes.append(-1)
                errors.append(f"call {i}: {type(exc).__name__}: {exc}")
            finally:
                sys.stdout = saved
    wall_s = perf() - t0
    result = {"wall_s": wall_s, "codes": codes, "errors": errors}
    if tracer:
        tracer.uninstall()
        emit_bytes = sum(os.path.getsize(f"{sink_prefix}{i}.out") for i in range(len(calls)))
        result["layers"] = tracer.layers(import_s, wall_s, emit_bytes)
        result["absent"] = [m for m, src in METRIC_SOURCE.items() if src in tracer.absent]
        result["absent_wrappers"] = tracer.absent
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1")
