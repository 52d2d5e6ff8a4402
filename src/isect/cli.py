"""Command-line front door: build graphs, solve, cross-check, generate.

Exit codes: 0 success, 1 domain error (bad model, failed check), 2
usage error.  Edge lists print as one "u v" pair per line, u < v,
lexicographically sorted, so output diffs cleanly across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .arcs import apsp_circular_arc, build_circular_arc_graph, mwis_circular_arc
from .chordal import is_chordal
from .errors import BadParams, IsectError
from .generators import GeneratorSpec, generate_model
from .geom import (
    DottedInterval,
    build_box_graph,
    build_circle_graph,
    build_ddig,
    build_tolerance_graph,
    build_unit_disk_graph,
    dotted_intersect,
)
from .graph import Graph, bfs_apsp, coerce_weights, is_tree_t_spanner
from .intervals import (
    apsp_interval,
    build_interval_graph,
    greedy_color,
    maximal_cliques_interval,
    mwis_interval,
    normalize,
    tree_3_spanner,
)
from .modelfile import ModelFile, parse_model_file, emit_model_file
from .oracles import brute_solve, find_hole
from .permutations import (
    build_permutation_graph,
    max_clique_permutation,
    mwis_permutation,
)
from .rng import SplitMix64
from .trapezoids import (
    boxes_incomparable,
    build_trapezoid_graph,
    check_cocomparability_order,
    diagram_adjacent,
    segments_joint,
    to_box_rep,
    to_permutation_diagram,
    to_segment_rep,
    trapezoids_adjacent,
)

_BUILDERS = {
    "interval": build_interval_graph,
    "arcs": build_circular_arc_graph,
    "permutation": build_permutation_graph,
    "trapezoid": build_trapezoid_graph,
    "dotted": lambda items: build_ddig(items)[0],
    "tolerance": build_tolerance_graph,
    "chords": build_circle_graph,
    "disks": build_unit_disk_graph,
    "boxes": build_box_graph,
    "graph": lambda g: g,
}


def _graph_of(mf: ModelFile) -> Graph:
    g = _BUILDERS[mf.kind](mf.model)
    if mf.weights is None:
        return g
    return Graph.build(g.n, g.edge_array, dict(enumerate(mf.weights, start=1)))


def _read_model(path: str) -> ModelFile:
    with open(path, encoding="utf-8") as fh:
        return parse_model_file(fh.read())


# -- build -------------------------------------------------------------------

def _cmd_build(args) -> int:
    g = _graph_of(_read_model(args.model))
    sys.stdout.write(g.edge_text("{u} {v}\n"))
    return 0


# -- solve / oracle ----------------------------------------------------------

def _interval_clique(m) -> list[int]:
    # a maximum clique is maximal: the largest, then least, sorted list
    strict, order = normalize(m)
    cliques = maximal_cliques_interval(strict)
    top = max(map(len, cliques), default=0)
    return min((sorted(order[v - 1] for v in c) for c in cliques if len(c) == top),
               default=[])


# structured solvers by (kind, problem), each called as solver(model file,
# weights); ``mis`` runs the ``mwis`` solver with unit weights
_SOLVERS = {
    ("interval", "mwis"): lambda mf, w: mwis_interval(mf.model, w),
    ("interval", "max_clique"): lambda mf, w: _interval_clique(mf.model),
    ("interval", "coloring"): lambda mf, w: greedy_color(mf.model),
    ("arcs", "mwis"): lambda mf, w: mwis_circular_arc(mf.model, w),
    ("permutation", "mwis"): lambda mf, w: mwis_permutation(mf.model, w),
    ("permutation", "max_clique"): lambda mf, w: max_clique_permutation(mf.model),
}


def _structured(mf: ModelFile, problem: str) -> tuple[object, list]:
    """The structured answer: its value, and its witness or colors line."""
    weights = None if problem == "mis" else mf.weights
    solver = _SOLVERS.get((mf.kind, "mwis" if problem == "mis" else problem))
    if solver is None:
        raise BadParams(f"no structured {problem} solver for kind {mf.kind!r}")
    answer = solver(mf, weights)
    if problem == "coloring":
        return (len(set(answer.values())) if answer else 0,
                ["colors", *(answer[v] for v in sorted(answer))])
    if problem == "max_clique":
        return len(answer), ["witness", *sorted(answer)]
    wl = coerce_weights(mf.model.n, weights)
    return sum((wl[v - 1] for v in answer), Fraction(0)), ["witness", *answer]


def _cmd_solve(args) -> int:
    value, line = _structured(_read_model(args.model), args.problem)
    print("value", Fraction(value))
    print(*line)
    return 0


def _cmd_oracle(args) -> int:
    mf = _read_model(args.model)
    g = _graph_of(mf)
    name = "chromatic_number" if args.problem == "coloring" else args.problem
    sol = brute_solve(g, name, k=args.k)
    print("value", Fraction(sol.value) if name == "mwis" else sol.value)
    if name == "chromatic_number":
        print("colors", *sol.witness)
    elif name == "min_clique_cover":
        # each vertex's part, numbered in the order the witness lists them
        part = {v: i for i, clique in enumerate(sol.witness, start=1) for v in clique}
        print("cover", *(part[v] for v in g.vertices()))
    elif isinstance(sol.witness, tuple):
        print("witness", *sorted(sol.witness))
    return 0


# -- check -------------------------------------------------------------------

# Each check draws one instance from its suite's stream and returns the fault
# it finds, or None.  Entry points are read as module globals at call time,
# never captured, so a tracer can rebind them.

def _check_umbrella(rng: SplitMix64) -> Optional[str]:
    s, n = rng.next_u64() >> 1, 2 + rng.below(30)
    strict, _ = normalize(generate_model(GeneratorSpec("interval", n, s)).model)
    g = build_interval_graph(strict)
    for w in g.vertices():
        # the neighbours below w must run solid from the lowest one, u, up to w - 1
        below = g.adj_bits[w] & (1 << (w - 1)) - 1
        low = below & -below
        missing = ((1 << (w - 1)) - low) & ~below if below else 0
        if missing:
            u, v = low.bit_length(), (missing & -missing).bit_length()
            return f"edge ({u},{w}) but ({v},{w}) missing"
    return None


def _check_spanner(rng: SplitMix64) -> Optional[str]:
    s, n = rng.next_u64() >> 1, 2 + rng.below(60)
    m = generate_model(GeneratorSpec("interval", n, s,
                                     {"strict": True, "connected": True})).model
    if not is_tree_t_spanner(build_interval_graph(m), tree_3_spanner(m).tree, 3):
        return f"stretch above 3 at n={n}"
    return None


def _check_coloring(rng: SplitMix64) -> Optional[str]:
    s, n = rng.next_u64() >> 1, 1 + rng.below(8)
    m = generate_model(GeneratorSpec("interval", n, s, {"strict": True})).model
    used = len(set(greedy_color(m).values()))
    omega = max(len(c) for c in maximal_cliques_interval(m))
    if used != omega:
        return f"{used} colors but omega={omega}"
    chi = brute_solve(build_interval_graph(m), "chromatic_number").value
    if used != chi:
        return f"{used} colors but chi={chi}"
    return None


def _check_mwis(kind: str, rng: SplitMix64) -> Optional[str]:
    s, n = rng.next_u64() >> 1, 2 + rng.below(10)
    mf = generate_model(GeneratorSpec(kind, n, s, {"weights": True}))
    value = _structured(mf, "mwis")[0]
    best = brute_solve(_graph_of(mf), "mwis").value
    if value != best:
        return f"structured {value}, brute {best}"
    return None


# the apsp suites read and drop the seed draw the other suites use
def _check_apsp_interval(rng: SplitMix64) -> Optional[str]:
    rng.next_u64()
    n = 2 + rng.below(40)
    m = generate_model(GeneratorSpec("interval", n, rng.next_u64() >> 1,
                                     {"strict": True, "connected": True})).model
    if apsp_interval(m) != bfs_apsp(build_interval_graph(m)):
        return f"distance matrix mismatch at n={n}"
    return None


def _check_apsp_arcs(rng: SplitMix64) -> Optional[str]:
    rng.next_u64()
    n = 2 + rng.below(30)
    while True:  # redraw seeds until the model is connected
        m = generate_model(GeneratorSpec("arcs", n, rng.next_u64() >> 1)).model
        if m.connected:
            break
    if apsp_circular_arc(m) != bfs_apsp(build_circular_arc_graph(m)):
        return f"distance matrix mismatch at n={n}"
    return None


def _check_fourway(rng: SplitMix64) -> Optional[str]:
    s, n = rng.next_u64() >> 1, 1 + rng.below(25)
    m = generate_model(GeneratorSpec("trapezoid", n, s)).model
    g = build_trapezoid_graph(m)
    segs = to_segment_rep(m).segments
    boxes = to_box_rep(m).boxes
    q, pairing = to_permutation_diagram(m)
    if not check_cocomparability_order(g, range(1, n + 1)):
        return "index order jumps a gap"
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            votes = {
                trapezoids_adjacent(m.items[a - 1], m.items[b - 1]),
                g.has_edge(a, b),
                segments_joint(segs[a - 1], segs[b - 1]),
                boxes_incomparable(boxes[a - 1], boxes[b - 1]),
                diagram_adjacent(q, pairing, a, b),
            }
            if len(votes) != 1:
                return f"representations split on ({a},{b})"
    return None


def _check_chordal_graph(rng: SplitMix64) -> Optional[str]:
    s, n = rng.next_u64() >> 1, 1 + rng.below(8)
    g = generate_model(GeneratorSpec("graph", n, s)).model
    if is_chordal(g) != (find_hole(g) is None):
        return "recognizer and holes disagree"
    return None


def _check_chordal_interval(rng: SplitMix64) -> Optional[str]:
    s, n = rng.next_u64() >> 1, 1 + rng.below(20)
    m = generate_model(GeneratorSpec("interval", n, s)).model
    if not is_chordal(build_interval_graph(m)):
        return "interval graph not chordal"
    return None


def _check_crt(rng: SplitMix64) -> Optional[str]:
    pair = []
    for _ in range(2):
        s = rng.randint(1, 400)
        d = rng.randint(1, 12)
        pair.append(DottedInterval.build(s, s + d * rng.randint(0, 40), d))
    x, y = pair
    if dotted_intersect(x, y) != bool(set(x.points()) & set(y.points())):
        return f"{x} vs {y}"
    return None


# checks by (suite, kind); a suite's first kind is its default
_SUITES = {
    ("umbrella", "interval"): _check_umbrella,
    ("spanner", "interval"): _check_spanner,
    ("coloring", "interval"): _check_coloring,
    **{("mwis", kind): functools.partial(_check_mwis, kind)
       for kind, problem in sorted(_SOLVERS) if problem == "mwis"},
    ("apsp", "interval"): _check_apsp_interval,
    ("apsp", "arcs"): _check_apsp_arcs,
    ("fourway", "trapezoid"): _check_fourway,
    ("chordal", "graph"): _check_chordal_graph,
    ("chordal", "interval"): _check_chordal_interval,
    ("crt", "dotted"): _check_crt,
}


def _cmd_check(args) -> int:
    kinds = tuple(k for suite, k in _SUITES if suite == args.suite)
    kind = args.kind or kinds[0]
    if kind not in kinds:
        raise BadParams(f"suite {args.suite!r} supports kinds {kinds}, got {kind!r}")
    check, rng = _SUITES[args.suite, kind], SplitMix64(args.seed)
    for i in range(args.count):
        fault = check(rng)
        if fault is not None:
            print(f"FAIL {args.suite}: instance {i}: {fault}", file=sys.stderr)
            return 1
    print(f"ok {args.suite}: checked {args.count} instances")
    return 0


# -- gen ---------------------------------------------------------------------

def _cmd_gen(args) -> int:
    params = {} if args.k is None else {"k": args.k}
    text = emit_model_file(generate_model(
        GeneratorSpec(args.kind, args.n, args.seed, params)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- entry point -------------------------------------------------------------

# built on the first execute, not at import, and reused: argparse keeps no
# state between parse_args calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    def count(text: str) -> int:
        # argparse names this function in its "invalid count value" message
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="isect",
        description="Geometric intersection graphs: build, solve, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="print a model's edge list")
    p.add_argument("--model", required=True, help="model file to read")

    p = sub.add_parser("solve", help="run a structured solver on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--problem", required=True,
                   choices=("mis", *dict.fromkeys(problem for _, problem in _SOLVERS)))

    p = sub.add_parser("oracle", help="run the brute-force solver on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--k", type=int, default=None,
                   help="parameter for k-indexed problems")

    p = sub.add_parser("check", help="run an invariant suite on random models")
    p.add_argument("suite", choices=sorted({suite for suite, _ in _SUITES}))
    p.add_argument("--kind", default=None, help="model kind, suite default if absent")
    p.add_argument("--count", type=count, default=100, help="instances to draw")
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("gen", help="emit a seeded random model file")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True, help="model size")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--k", type=int, default=None, help="box dimension")
    p.add_argument("--out", default=None, help="write here instead of stdout")
    return parser


_COMMANDS = {
    "build": _cmd_build,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "gen": _cmd_gen,
}


def execute(argv: Sequence[str]) -> int:
    """Run one command line; return the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except IsectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
