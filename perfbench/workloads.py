"""The benchmark's workloads: which model files they need, which ops run.

Each op is one call of a public isect entry point: a command line for
``isect.cli.execute`` or, for the distance problems that have no
command, a library call on a file read with ``parse_model_file``.  A
workload's op list is shuffled once per seed, and a run repeats that
list whole, so every run at a seed does the same work in the same order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

KINDS = ("interval", "arcs", "permutation", "trapezoid", "dotted",
         "tolerance", "chords", "disks", "boxes", "graph")

# kinds the CLI can only build and brute-force
BUILDER_ONLY = ("trapezoid", "dotted", "tolerance", "chords", "disks", "boxes",
                "graph")

# (kind, problem) pairs with a structured solver behind ``isect solve``
STRUCTURED = {
    "interval": ("mis", "mwis", "max_clique", "coloring"),
    "permutation": ("mis", "mwis", "max_clique"),
    "arcs": ("mis", "mwis"),
}

# library distance calls: function name -> (module, model kind)
LIBRARY = {
    "apsp_interval": ("intervals", "interval"),
    "tree_3_spanner": ("intervals", "interval"),
    "apsp_circular_arc": ("arcs", "arcs"),
}

# ``isect check`` suites, each with every kind it accepts
SUITES = (("umbrella", "interval"), ("spanner", "interval"),
          ("coloring", "interval"), ("mwis", "arcs"), ("mwis", "interval"),
          ("mwis", "permutation"), ("apsp", "interval"), ("apsp", "arcs"),
          ("fourway", "trapezoid"), ("chordal", "graph"),
          ("chordal", "interval"), ("crt", "dotted"))
CHECK_COUNT = 10

# -- spans each op must record in a traced run ---------------------------------

BUILDER = {
    "interval": "intervals.build_interval_graph",
    "arcs": "arcs.build_circular_arc_graph",
    "permutation": "permutations.build_permutation_graph",
    "trapezoid": "trapezoids.build_trapezoid_graph",
    "dotted": "geom.build_ddig",
    "tolerance": "geom.build_tolerance_graph",
    "chords": "geom.build_circle_graph",
    "disks": "geom.build_unit_disk_graph",
    "boxes": "geom.build_box_graph",
}

_SOLVER = {
    ("interval", "mis"): ("intervals.mwis_interval",),
    ("interval", "mwis"): ("intervals.mwis_interval",),
    ("interval", "max_clique"): ("intervals.normalize",
                                 "intervals.maximal_cliques_interval"),
    ("interval", "coloring"): ("intervals.greedy_color",),
    ("permutation", "mis"): ("permutations.mwis_permutation",),
    ("permutation", "mwis"): ("permutations.mwis_permutation",),
    ("permutation", "max_clique"): ("permutations.max_clique_permutation",),
    ("arcs", "mis"): ("arcs.mwis_circular_arc",),
    ("arcs", "mwis"): ("arcs.mwis_circular_arc",),
}

_SUITE_SPANS = {
    ("umbrella", "interval"): ("generators.generate_model", "intervals.normalize",
                               "intervals.build_interval_graph"),
    ("spanner", "interval"): ("generators.generate_model",
                              "intervals.tree_3_spanner"),
    ("coloring", "interval"): ("intervals.greedy_color",
                               "intervals.maximal_cliques_interval",
                               "oracles.brute_solve"),
    ("mwis", "arcs"): ("arcs.mwis_circular_arc", "oracles.brute_solve"),
    ("mwis", "interval"): ("intervals.mwis_interval", "oracles.brute_solve"),
    ("mwis", "permutation"): ("permutations.mwis_permutation",
                              "oracles.brute_solve"),
    ("apsp", "interval"): ("intervals.apsp_interval", "graph.bfs_apsp"),
    ("apsp", "arcs"): ("arcs.apsp_circular_arc", "graph.bfs_apsp"),
    ("fourway", "trapezoid"): ("trapezoids.build_trapezoid_graph",),
    ("chordal", "graph"): ("chordal.is_chordal", "oracles.find_hole"),
    ("chordal", "interval"): ("chordal.is_chordal",
                              "intervals.build_interval_graph"),
    ("crt", "dotted"): (),
}


@dataclass(frozen=True)
class ModelSpec:
    """One generated model file: what ``isect gen`` would be asked for."""

    kind: str
    n: int
    seed: int
    weights: bool = False
    # interval models: strict and connected, as the distance calls need;
    # arc models: seeds are redrawn until the graph is connected
    connected: bool = False

    @property
    def filename(self) -> str:
        tags = ("-w" if self.weights else "") + ("-c" if self.connected else "")
        return f"{self.kind}-{self.n}-{self.seed}{tags}.json"


@dataclass(frozen=True)
class Op:
    """One timed call of an isect entry point."""

    action: str  # gen, build, solve, oracle, check, or a LIBRARY name
    kind: str
    n: Optional[int] = None  # ladder rung; None for check suites
    model: Optional[ModelSpec] = None
    problem: Optional[str] = None  # solve and oracle problem, check suite
    seed: int = 0  # check suites only

    def argv(self, workdir: Path) -> Optional[list[str]]:
        """The ``isect`` command line, or None for a library call."""
        if self.action == "gen":
            m = self.model
            return ["gen", "--kind", m.kind, "--n", str(m.n), "--seed", str(m.seed),
                    "--out", str(workdir / ("gen-" + m.filename))]
        if self.action == "build":
            return ["build", "--model", str(workdir / self.model.filename)]
        if self.action in ("solve", "oracle"):
            return [self.action, "--model", str(workdir / self.model.filename),
                    "--problem", self.problem]
        if self.action == "check":
            return ["check", self.problem, "--kind", self.kind,
                    "--count", str(CHECK_COUNT), "--seed", str(self.seed)]
        return None

    @property
    def layers(self) -> tuple[str, ...]:
        """Spans a traced run must record for this op."""
        if self.action in LIBRARY:
            module = LIBRARY[self.action][0]
            return ("modelfile.parse_model_file", f"{module}.{self.action}")
        spans = ["cli.execute"]
        if self.action == "gen":
            spans += ["generators.generate_model", "modelfile.emit_model_file"]
        elif self.action == "check":
            spans += _SUITE_SPANS[(self.problem, self.kind)]
        else:
            spans.append("modelfile.parse_model_file")
            if self.action == "solve":
                spans += _SOLVER[(self.kind, self.problem)]
            else:
                spans += [BUILDER[self.kind]] if self.kind in BUILDER else []
                spans.append("graph.Graph.build")
                if self.action == "oracle":
                    spans.append("oracles.brute_solve")
        return tuple(spans)

    def describe(self) -> str:
        what = self.problem or ""
        return f"{self.action} {self.kind} n={self.n} {what}".strip()


@dataclass
class Workload:
    """A workload's model files and its op list; BENCHMARK.json says why."""

    name: str
    models: list[ModelSpec] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)

    @property
    def warmup(self) -> Op:
        # the first op listed, always a small one, run once before timing
        return self.ops[0]


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def _ladder(rng: random.Random, rungs: dict[int, int]) -> list[tuple[int, int]]:
    """(n, model seed) pairs: rungs maps each n to its number of seeds."""
    return [(n, s) for n, count in rungs.items() for s in _seeds(rng, count)]


# seeds per rung fall as the rung's cost rises, so small inputs give the
# op count the percentiles need and large ones give the scaling.  The
# ladders stop at 400 (arcs at 100) so that a run can repeat its op list
# three times within the benchmark's time budget: the arc solvers and
# arc APSP at n = 200 alone took 5 s of a 14 s pass.  The arc solves at
# n = 100 (0.2-0.35 s each, varying with the model) hold solve-large's
# 90th percentile: twelve of them from six models put it mid-cluster, where
# it follows the models' median cost, not one model's.  Arc APSP, slower
# still, keeps two models at n = 100 so that it stays above that cluster.
_BUILD_RUNGS = {100: 4, 200: 2, 400: 1}
_SOLVE_RUNGS = {100: 6, 200: 2, 400: 1}
_ARC_RUNGS = {50: 6, 100: 6}
_ARC_APSP_RUNGS = {50: 6, 100: 2}
_SMALL_RUNGS = {10: 4, 12: 4, 14: 4, 16: 1}


def build_large(rng: random.Random) -> Workload:
    w = Workload("build-large")
    for kind in KINDS:
        for n, s in _ladder(rng, _BUILD_RUNGS):
            spec = ModelSpec(kind, n, s)
            w.models.append(spec)
            w.ops += [Op("gen", kind, n, spec), Op("build", kind, n, spec)]
    return w


def solve_large(rng: random.Random) -> Workload:
    w = Workload("solve-large")
    for kind, problems in STRUCTURED.items():
        for n, s in _ladder(rng, _ARC_RUNGS if kind == "arcs" else _SOLVE_RUNGS):
            spec = ModelSpec(kind, n, s, weights=True)
            w.models.append(spec)
            w.ops += [Op("solve", kind, n, spec, p) for p in problems]
    for name, (_, kind) in LIBRARY.items():
        for n, s in _ladder(rng, _ARC_APSP_RUNGS if kind == "arcs" else _SOLVE_RUNGS):
            spec = ModelSpec(kind, n, s, connected=True)
            if spec not in w.models:
                w.models.append(spec)
            w.ops.append(Op(name, kind, n, spec))
    return w


def verify_small(rng: random.Random) -> Workload:
    w = Workload("verify-small")
    for kind, problems in STRUCTURED.items():
        for n, s in _ladder(rng, _SMALL_RUNGS):
            spec = ModelSpec(kind, n, s, weights=True)
            w.models.append(spec)
            for p in problems:
                w.ops += [Op("solve", kind, n, spec, p), Op("oracle", kind, n, spec, p)]
    for kind in BUILDER_ONLY:
        for n, s in _ladder(rng, _SMALL_RUNGS):
            spec = ModelSpec(kind, n, s)
            w.models.append(spec)
            # the brute-force chromatic search on these kinds takes from
            # 0.02 s to 0.5 s at n >= 14 depending on the model, which would
            # make the run time follow the seed more than the code
            problems = ("mis", "max_clique") + (("coloring",) if n <= 12 else ())
            w.ops += [Op("oracle", kind, n, spec, p) for p in problems]
    for suite, kind in SUITES:
        w.ops.append(Op("check", kind, None, None, suite, seed=rng.randrange(1, 2 ** 31)))
    return w


WORKLOADS = {"build-large": build_large, "solve-large": solve_large,
             "verify-small": verify_small}


def make(name: str, seed: int) -> Workload:
    """The workload's models and its op list in this seed's fixed order."""
    rng = random.Random(f"{name}:{seed}")
    w = WORKLOADS[name](rng)
    first, rest = w.ops[0], w.ops[1:]
    rng.shuffle(rest)
    w.ops = [first] + rest
    return w
