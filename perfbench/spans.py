"""Outside-in tracing of the tmh layers.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper everywhere the original is bound: in its own module
and in every other ``tmh`` module that imported it by name (``vertex_frame``
is bound in both ``charpair`` and ``genus``, ``chi_y`` in ``genus`` and
``dim4``).  Two methods are wrapped on their classes: ``HalfSpace.value``
(counted only, it runs ~10^5 times per large op) and
``EmbeddingChart.evaluate``.  No file under ``src/`` changes.

Spans are kept in memory as [name, start_ns, end_ns, parent, op] and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "polytope", "charpair", "genus", "dim4", "mac", "exactlin")

# per-layer metric -> spans whose self time it sums
SELF_TIMES = {
    "cli.parse_ms": ("cli.parse_spec_dict", "cli.parse_spec"),
    "cli.report_ms": ("cli.build_report",),
    "cli.render_ms": ("cli.render_json", "cli.render_text"),
    "cli.compose_ms": ("cli.compose_fibersum",),
    "polytope.polygon_ms": ("polytope.polygon_from_vertices",),
    "polytope.build_ms": ("polytope.build_polytope",),
    "polytope.holes_ms": ("polytope.build_with_holes", "polytope.place_holes"),
    "polytope.fm_ms": ("polytope.fm_feasible",),
    "exactlin.solve_ms": ("exactlin.solve_rational",),
    "mac.chart_ms": ("mac.embedding_chart",),
    "mac.evaluate_ms": ("mac.EmbeddingChart.evaluate",),
    "mac.freeness_ms": ("mac.freeness_check",),
    "mac.kernel_ms": ("mac.kernel_data",),
    "exactlin.det_ms": ("exactlin.det_exact",),
    "charpair.validate_ms": ("charpair.validate",),
    "exactlin.snf_ms": ("exactlin.smith_normal_form",),
    "charpair.frame_ms": ("charpair.vertex_frame",),
    "genus.chi_y_ms": ("genus.chi_y",),
    "genus.nu_search_ms": ("genus.find_generic_nu",),
    "exactlin.inverse_ms": ("exactlin.unimodular_inverse",),
    "dim4.form_ms": ("dim4.intersection_form", "dim4.quasitoric_intersection_form",
                     "dim4.one_hole_intersection_matrix"),
    "dim4.signature_ms": ("dim4.signature_of_matrix",),
    "dim4.chern_ms": ("dim4.chern_numbers_dim4",),
}

# per-layer metric -> span whose calls it counts
CALL_COUNTS = {
    "exactlin.solve_calls": "exactlin.solve_rational",
    "polytope.fm_calls": "polytope.fm_feasible",
    "exactlin.det_calls": "exactlin.det_exact",
    "exactlin.snf_calls": "exactlin.smith_normal_form",
    "charpair.signs_calls": "charpair.all_signs",
    "genus.chi_y_calls": "genus.chi_y",
}

VALUE_CALLS = "polytope.value_calls"
FRAMES_PER_VERTEX = "charpair.frames_per_vertex"
LAYER_SELF = tuple(f"{layer}.self_ms" for layer in LAYERS)


class Tracer:
    """Spans and counters of one process, recorded by installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.value_calls = 0
        self.framed: set[tuple] = set()   # (op, vertex id) pairs framed
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, note_vertex=False):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            if note_vertex:
                self.framed.add((self.op, args[1] if len(args) > 1 else kwargs["vid"]))
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        def wrapper(*args, **kwargs):
            self.value_calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions at every module that binds them."""
        mods = {layer: importlib.import_module(f"tmh.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    wrappers[id(fn)] = self._span(
                        f"{layer}.{fname}", fn, note_vertex=fname == "vertex_frame")
        binders = [m for name, m in list(sys.modules.items())
                   if name == "tmh" or name.startswith("tmh.")]
        for mod in binders:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and w.__wrapped__ is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, w)
        half_space = mods["polytope"].HalfSpace
        chart = mods["mac"].EmbeddingChart
        for cls, attr, w in (
                (half_space, "value", self._counter(half_space.value)),
                (chart, "evaluate", self._span("mac.EmbeddingChart.evaluate",
                                               chart.evaluate))):
            self._patches.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, w)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export ----------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "value_calls": self.value_calls,
                "framed": sorted(self.framed, key=repr)}

    def absorb(self, dumped: dict):
        """Append spans recorded by another process (a traced child)."""
        base = len(self.spans)
        for name, start, end, parent, op in dumped["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        self.value_calls += dumped["value_calls"]
        self.framed.update(tuple(x) for x in dumped["framed"])


def self_times(spans) -> list[int]:
    """Span duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op means of self times (ms) and call counts over ``ops`` ops."""
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    for (name, *_), ns in zip(tracer.spans, self_times(tracer.spans)):
        self_ns[name] += ns
        calls[name] += 1
    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_ns[n] for n in names) / 1e6 / ops
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls[name] / ops
    for layer, metric in zip(LAYERS, LAYER_SELF):
        out[metric] = sum(ns for n, ns in self_ns.items()
                          if n.split(".", 1)[0] == layer) / 1e6 / ops
    out[VALUE_CALLS] = tracer.value_calls / ops
    frames = calls["charpair.vertex_frame"]
    out[FRAMES_PER_VERTEX] = frames / len(tracer.framed) if tracer.framed else 0.0
    return out


def op_counts(tracer: Tracer, op) -> dict[str, int]:
    """Calls per span name within one op."""
    out = defaultdict(int)
    for name, _, _, _, span_op in tracer.spans:
        if span_op == op:
            out[name] += 1
    return dict(out)
