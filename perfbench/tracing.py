"""Call tracing of the heatprop layers, installed from outside the package,
and the per-layer metrics derived from the recorded spans.

`Tracer.install` replaces every public function of the traced modules, in
every heatprop module namespace that binds it, with a wrapper that records one
span per call (name, start, end, parent). Spans stay in memory until the run
writes them out. The wrappers keep one call stack, so the program must run
single-threaded while traced (HEATPROP_THREADS unset).
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("blockmodel", "graph", "solver", "classify", "experiments", "io")
# Private names traced on top of the public API: the CLI entry point (the root
# span of a call) and one repetition of run_experiment, which no public
# function delimits.
EXTRA = ("cli.main", "experiments._run_one")
FIELD_SOLVERS = ("solver.solve_iterative", "solver.solve_exact")
METRIC_FUNCTIONS = ("experiments.macro_f1", "experiments.per_class_f1", "experiments.accuracy")

# name -> unit of every per-layer metric a traced run reports
PER_LAYER = {
    "solver.sweep_ms": "ms",
    "solver.iterations": "count",
    "solver.iters_per_field": "count",
    "solver.fields": "count",
    "solver.capped_share": "ratio",
    "solver.max_final_change": "temperature",
    "solver.max_residual": "temperature",
    "solver.exact_s": "s",
    "solver.exact_unknowns": "count",
    "experiments.fields_per_rep": "count",
    "graph.components_calls": "count",
    "graph.components_s": "s",
    "graph.transition_apply_s": "s",
    "graph.transition_apply_bytes": "computed_bytes",
    "graph.build_graph_s": "s",
    "graph.edges": "count",
    "blockmodel.sbm_generate_s": "s",
    "blockmodel.block_graph_s": "s",
    "blockmodel.closed_form_s": "s",
    "io.load_edge_list_s": "s",
    "io.edge_lines_per_s": "1/s",
    "io.load_labels_s": "s",
    "experiments.reps_attempted": "count",
    "experiments.reps_failed": "count",
    "experiments.failed_rep_s": "s",
    "experiments.sample_seeds_s": "s",
    "experiments.metrics_s": "s",
    "classify.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


@dataclass(slots=True)
class Span:
    name: str  # "<module>.<function>"; the benchmark's own spans are "bench.*"
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # EXTRA names the package no longer has
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def bench_span(self, name: str):
        """Benchmark work done inside a traced call (a check computed on a
        result). It gets its own span so that no program layer is charged for
        it, and calls it makes into the package are not traced."""
        span = self._open(f"bench.{name}")
        self._paused = True
        try:
            yield span
        finally:
            self._paused = False
            self._close(span)

    def _wrap(self, name: str, fn):
        tracer, hook = self, HOOKS.get(name)

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = str(exc)
                raise
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def original(self, name: str):
        return self._originals[name]

    def install(self):
        """Wrap the traced functions of the already imported package."""
        targets: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"heatprop.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    targets[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
                    self._originals[f"{layer}.{attr}"] = value
        for name in EXTRA:
            layer, attr = name.split(".")
            value = getattr(importlib.import_module(f"heatprop.{layer}"), attr, None)
            if value is None:
                self.missing.append(name)
                continue
            targets[id(value)] = (value, self._wrap(name, value))
            self._originals[name] = value
        # rebind every name that refers to a traced function, including the
        # `from .x import f` copies other modules hold
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "heatprop" or mod_name.startswith("heatprop.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


# ---------------------------------------------------------------------------
# hooks: counts recorded at the layer boundary from a call's arguments/result


def _field_hook(tracer, span, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    info = result.info
    span.attrs.update(
        iterations=info.iterations,
        capped=info.stop_reason == "max_iterations",
        final_change=info.final_change,
        unknowns=problem.graph.n - problem.boundary.size,
    )
    with tracer.bench_span("residual"):
        span.attrs["residual"] = tracer.original("solver.residual")(problem, result)


def _transition_hook(tracer, span, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    nnz = g.indices.size
    # computed, not measured: read weights, indices and the gathered vector,
    # write and re-read the products (8 bytes each per entry); per node read
    # indptr and degrees and write the sums and the quotient
    span.attrs["bytes"] = 40 * nnz + 32 * g.n


def _build_graph_hook(tracer, span, args, kwargs, result):
    with tracer.bench_span("count_edges"):
        span.attrs["edges"] = result.num_edges


def _edge_list_hook(tracer, span, args, kwargs, result):
    span.attrs["path"] = str(args[0] if args else kwargs["path"])


HOOKS = {
    "solver.solve_iterative": _field_hook,
    "solver.solve_exact": _field_hook,
    "graph.transition_apply": _transition_hook,
    "graph.build_graph": _build_graph_hook,
    "io.load_edge_list": _edge_list_hook,
}


# ---------------------------------------------------------------------------
# span arithmetic


def _children(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(kids[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_times(spans: list[Span]) -> list[float]:
    """Each span's time spent in its own layer: its self time plus the layer
    time of children from the same module."""
    kids = _children(spans)
    own = self_times(spans)
    for i in range(len(spans) - 1, -1, -1):  # children come after parents
        own[i] += sum(own[c] for c in kids[i] if spans[c].layer == spans[i].layer)
    return own


def failure_kind(message: str) -> str:
    """Group failure messages by replacing the numbers in them."""
    return re.sub(r"\d+", "N", message)


def failure_kinds(spans: list[Span]) -> dict[str, int]:
    return dict(Counter(failure_kind(s.error) for s in spans
                        if s.name == "experiments._run_one" and s.error))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the traced calls (all of PER_LAYER but the overhead)."""
    own = layer_times(spans)
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def layer_sum(*names: str) -> float:
        # time in the layer of the outermost call among `names`
        total = 0.0
        for name in names:
            for i in by_name[name]:
                p = spans[i].parent
                while p is not None and spans[p].layer == spans[i].layer and spans[p].name not in names:
                    p = spans[p].parent
                if p is None or spans[p].name not in names:
                    total += own[i]
        return total

    def inclusive(name: str) -> float:
        return sum(spans[i].duration for i in by_name[name])

    fields = [spans[i] for name in FIELD_SOLVERS for i in by_name[name] if spans[i].error is None]
    exact = [spans[i] for i in by_name["solver.solve_exact"] if spans[i].error is None]
    sweeps = by_name["solver.jacobi_sweep"]
    reps = [spans[i] for i in by_name["experiments._run_one"]]
    failed = [r for r in reps if r.error]
    iterations = sum(f.attrs["iterations"] for f in fields)
    loads = [spans[i] for i in by_name["io.load_edge_list"] if spans[i].error is None]
    load_s = layer_sum("io.load_edge_list")
    lines = sum(_edge_lines(s.attrs["path"]) for s in loads)
    completed = len(reps) - len(failed)

    return {
        "solver.sweep_ms": 1000 * inclusive("solver.jacobi_sweep") / len(sweeps) if sweeps else 0.0,
        "solver.iterations": iterations,
        "solver.iters_per_field": iterations / len(fields) if fields else 0.0,
        "solver.fields": len(fields),
        "solver.capped_share": sum(f.attrs["capped"] for f in fields) / len(fields) if fields else 0.0,
        "solver.max_final_change": max((f.attrs["final_change"] for f in fields), default=0.0),
        "solver.max_residual": max((f.attrs["residual"] for f in fields), default=0.0),
        "solver.exact_s": layer_sum("solver.solve_exact"),
        "solver.exact_unknowns": sum(f.attrs["unknowns"] for f in exact),
        "experiments.fields_per_rep": len(fields) / completed if completed else 0.0,
        "graph.components_calls": len(by_name["graph.connected_components"]),
        "graph.components_s": inclusive("graph.connected_components"),
        "graph.transition_apply_s": inclusive("graph.transition_apply"),
        "graph.transition_apply_bytes": sum(spans[i].attrs.get("bytes", 0) for i in by_name["graph.transition_apply"]),
        "graph.build_graph_s": layer_sum("graph.build_graph"),
        "graph.edges": sum(spans[i].attrs.get("edges", 0) for i in by_name["graph.build_graph"]),
        "blockmodel.sbm_generate_s": layer_sum("blockmodel.sbm_generate"),
        "blockmodel.block_graph_s": layer_sum("blockmodel.build_deterministic_block_graph"),
        "blockmodel.closed_form_s": layer_sum("blockmodel.closed_form_temperatures"),
        "io.load_edge_list_s": load_s,
        "io.edge_lines_per_s": lines / load_s if load_s else 0.0,
        "io.load_labels_s": layer_sum("io.load_labels"),
        "experiments.reps_attempted": len(reps),
        "experiments.reps_failed": len(failed),
        "experiments.failed_rep_s": sum(r.duration for r in failed),
        "experiments.sample_seeds_s": layer_sum("experiments.sample_seeds"),
        "experiments.metrics_s": layer_sum(*METRIC_FUNCTIONS),
        "classify.self_s": sum(t for t, s in zip(selfs, spans) if s.layer == "classify"),
        "cli.self_s": sum(t for t, s in zip(selfs, spans) if s.layer == "cli"),
    }


def _edge_lines(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip() and not line.lstrip().startswith("#"))


def span_records(spans: list[Span]) -> list[list]:
    """Compact rows [index, name, start, end, parent, error] for writing out."""
    return [[i, s.name, s.start, s.end, s.parent, s.error] for i, s in enumerate(spans)]
