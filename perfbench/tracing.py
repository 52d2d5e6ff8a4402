"""Spans around the isect entry points, and the per-layer metrics.

The tracer wraps each entry point from outside the library: every
reference to the original function in the ``isect`` modules, including
names pulled in by ``from ... import`` and functions stored in module
level dicts such as ``cli._BUILDERS``, is rebound to the wrapper.
Per-pair predicates and the random number generator stay unwrapped so
tracing stays cheap.  Spans live in memory until the run writes them.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

ENTRY_POINTS = (
    "cli.execute",
    "modelfile.parse_model_file", "modelfile.emit_model_file",
    "generators.generate_model",
    "graph.Graph.build", "graph.bfs_apsp",
    "intervals.build_interval_graph", "intervals.normalize",
    "intervals.mwis_interval", "intervals.maximal_cliques_interval",
    "intervals.greedy_color", "intervals.apsp_interval",
    "intervals.tree_3_spanner",
    "arcs.build_circular_arc_graph", "arcs.canonicalize",
    "arcs.mwis_circular_arc", "arcs.apsp_circular_arc",
    "permutations.build_permutation_graph", "permutations.mwis_permutation",
    "permutations.max_clique_permutation",
    "trapezoids.build_trapezoid_graph",
    "geom.build_ddig", "geom.build_tolerance_graph", "geom.build_circle_graph",
    "geom.build_unit_disk_graph", "geom.build_box_graph",
    "chordal.is_chordal",
    "oracles.brute_solve", "oracles.find_hole",
)

# builders and structured solvers: the ones whose scaling is fitted.  A fit
# takes only the calls an op makes itself, not those nested under another
# fitted call, so a solver's sub-problems on smaller inputs stay out of the
# fit of the function they call.  arcs.canonicalize is only ever called
# inside the arc solvers, so it has no fit of its own.
FITTED = (
    "intervals.build_interval_graph", "arcs.build_circular_arc_graph",
    "permutations.build_permutation_graph", "trapezoids.build_trapezoid_graph",
    "geom.build_ddig", "geom.build_tolerance_graph", "geom.build_circle_graph",
    "geom.build_unit_disk_graph", "geom.build_box_graph",
    "intervals.normalize",
    "intervals.mwis_interval", "intervals.maximal_cliques_interval",
    "intervals.greedy_color", "intervals.apsp_interval",
    "intervals.tree_3_spanner", "arcs.mwis_circular_arc",
    "arcs.apsp_circular_arc", "permutations.mwis_permutation",
    "permutations.max_clique_permutation",
)

# what a span measures besides time, from the call's arguments and result
_SIZES: dict[str, Callable] = {
    "modelfile.parse_model_file": lambda args, result: len(args[0]),
    "modelfile.emit_model_file": lambda args, result: len(result),
    "graph.Graph.build": lambda args, result: len(result.edges),
}

# counts of spans under another span: metric -> (span, required ancestor,
# whether the ancestor must be the direct parent)
_NESTED = {
    "intervals.normalize.graph_builds":
        ("intervals.build_interval_graph", "intervals.normalize", True),
    "arcs.canonicalize.graph_builds":
        ("arcs.build_circular_arc_graph", "arcs.canonicalize", True),
    "arcs.mwis_circular_arc.interval_subproblems":
        ("intervals.mwis_interval", "arcs.mwis_circular_arc", False),
    "arcs.apsp_circular_arc.cuts_folded":
        ("intervals.normalize", "arcs.apsp_circular_arc", False),
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for name in ENTRY_POINTS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name in FITTED:
            out.append((f"{name}.exp", "slope", "lower"))
    out += [("graph.Graph.build.edges", "count", "lower")]
    out += [(name, "count", "lower") for name in _NESTED]
    out += [("cli.output_bytes", "bytes", "lower"),
            ("modelfile.parse_model_file.mb_per_s", "MB/s", "higher"),
            ("modelfile.emit_model_file.mb_per_s", "MB/s", "higher"),
            ("cli.import_ms", "ms", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


class Tracer:
    """Records spans [name, start, end, parent, op, size] during ops."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: Optional[int] = None

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        size = _SIZES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._op is None:  # the benchmark's own checks
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every reference to each entry point to its wrapper."""
        from isect.graph import Graph
        wrappers: dict[int, Callable] = {}
        originals = []
        for name in ENTRY_POINTS:
            module_name, attr = name.split(".", 1)
            owner = importlib.import_module(f"isect.{module_name}")
            if attr == "Graph.build":
                fn = Graph.build
                wrapper = self._wrap(name, fn)
                Graph.build = staticmethod(wrapper)
            else:
                fn = getattr(owner, attr)
                wrapper = self._wrap(name, fn)
            wrappers[id(fn)] = wrapper
            originals.append(fn)
        for module in _isect_modules():
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            value[k] = wrappers[id(v)]
        left = _references(originals, set(map(id, wrappers.values())))
        if left:
            raise RuntimeError("entry points still reachable unwrapped: "
                               + ", ".join(left))

    def names_in(self, op_id: int, start: int) -> set[str]:
        return {s[0] for s in self.spans[start:] if s[4] == op_id}

    # -- metrics -----------------------------------------------------------

    def metrics(self, rung_of: dict[int, Optional[int]]) -> tuple[dict, dict]:
        """Per-layer values, and the rungs each exponent was fitted on."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        size: dict[str, int] = defaultdict(int)
        per_rung: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        # fitted_above[i]: some ancestor of span i is a fitted entry point;
        # a parent's span always precedes its children's
        fitted = set(FITTED)
        fitted_above = [False] * len(spans)
        for i, (name, t0, t1, parent, op, sz) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            incl[name] += t1 - t0
            size[name] += sz
            if parent >= 0:
                fitted_above[i] = fitted_above[parent] or spans[parent][0] in fitted
            if not fitted_above[i] and rung_of.get(op) is not None:
                per_rung[name][rung_of[op]].append(t1 - t0)
        out: dict[str, float] = {}
        rungs_used: dict[str, list[int]] = {}
        for name in ENTRY_POINTS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if name in FITTED:
                out[f"{name}.exp"], rungs_used[name] = fit_exponent(per_rung[name])
        out["graph.Graph.build.edges"] = size["graph.Graph.build"]
        for metric, (name, above, direct) in _NESTED.items():
            out[metric] = sum(1 for s in spans if s[0] == name
                              and _under(spans, s, above, direct))
        for name in ("modelfile.parse_model_file", "modelfile.emit_model_file"):
            out[f"{name}.mb_per_s"] = size[name] / 1e6 / incl[name] if incl[name] else 0.0
        return out, rungs_used


def fit_exponent(per_rung: dict[int, list[float]]) -> tuple[float, list[int]]:
    """Least-squares slope of log(median time per call) against log n.

    Returns 0.0 with no rungs when fewer than two rungs saw a call.
    """
    rungs = sorted(per_rung)
    if len(rungs) < 2:
        return 0.0, []
    xs = [math.log(n) for n in rungs]
    ys = [math.log(max(statistics.median(per_rung[n]), 1e-9)) for n in rungs]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return slope, rungs


def _under(spans: list[list], span: list, above: str, direct: bool) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == above:
            return True
        if direct:
            return False
        parent = spans[parent][3]
    return False


def _isect_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "isect" or name.startswith("isect.")]


def _references(originals: list[Callable], wrapper_ids: set[int]) -> list[str]:
    """Where an original entry point is still held: globals, dicts, closures."""
    ids = set(map(id, originals))
    found = []
    for module in _isect_modules():
        for key, value in vars(module).items():
            held = [value]
            if isinstance(value, dict):
                held += list(value.values())
            for fn in list(held):
                if callable(fn) and id(fn) not in wrapper_ids:
                    held += list(getattr(fn, "__defaults__", None) or ())
                    held += [c.cell_contents for c in getattr(fn, "__closure__", None) or ()
                             if c.cell_contents is not None]
            if any(id(h) in ids for h in held):
                found.append(f"{module.__name__}.{key}")
    return found
