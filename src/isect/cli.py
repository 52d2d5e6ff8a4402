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

class _SuiteFailure(Exception):
    pass


def _seeds(seed: int, count: int):
    rng = SplitMix64(seed)
    for _ in range(count):
        yield rng.next_u64() >> 1, rng


def _require_kind(kind: Optional[str], allowed: tuple[str, ...], suite: str) -> str:
    got = kind or allowed[0]
    if got not in allowed:
        raise BadParams(f"suite {suite!r} supports kinds {allowed}, got {got!r}")
    return got


def _connected_model(kind: str, n: int, rng: SplitMix64):
    # redraw seeds until the model is connected
    while True:
        mf = generate_model(GeneratorSpec(kind, n, rng.next_u64() >> 1))
        if mf.model.connected:
            return mf


def _check_umbrella(kind, count, seed) -> int:
    _require_kind(kind, ("interval",), "umbrella")
    for i, (s, rng) in enumerate(_seeds(seed, count)):
        n = 2 + rng.below(30)
        strict, _ = normalize(generate_model(GeneratorSpec("interval", n, s)).model)
        g = build_interval_graph(strict)
        for w in g.vertices():
            # the neighbours below w must run solid from the lowest one, u, up to w - 1
            below = g.adj_bits[w] & (1 << (w - 1)) - 1
            low = below & -below
            missing = ((1 << (w - 1)) - low) & ~below if below else 0
            if missing:
                u, v = low.bit_length(), (missing & -missing).bit_length()
                raise _SuiteFailure(f"instance {i}: edge ({u},{w}) but ({v},{w}) missing")
    return count


def _check_spanner(kind, count, seed) -> int:
    _require_kind(kind, ("interval",), "spanner")
    params = {"strict": True, "connected": True}
    for i, (s, rng) in enumerate(_seeds(seed, count)):
        n = 2 + rng.below(60)
        m = generate_model(GeneratorSpec("interval", n, s, params)).model
        g = build_interval_graph(m)
        if not is_tree_t_spanner(g, tree_3_spanner(m).tree, 3):
            raise _SuiteFailure(f"instance {i}: stretch above 3 at n={n}")
    return count


def _check_coloring(kind, count, seed) -> int:
    _require_kind(kind, ("interval",), "coloring")
    for i, (s, rng) in enumerate(_seeds(seed, count)):
        n = 1 + rng.below(8)
        m = generate_model(GeneratorSpec("interval", n, s, {"strict": True})).model
        used = len(set(greedy_color(m).values()))
        omega = max(len(c) for c in maximal_cliques_interval(m))
        if used != omega:
            raise _SuiteFailure(f"instance {i}: {used} colors but omega={omega}")
        chi = brute_solve(build_interval_graph(m), "chromatic_number").value
        if used != chi:
            raise _SuiteFailure(f"instance {i}: {used} colors but chi={chi}")
    return count


def _check_mwis(kind, count, seed) -> int:
    kinds = tuple(sorted(k for k, problem in _SOLVERS if problem == "mwis"))
    got = _require_kind(kind, kinds, "mwis")
    for i, (s, rng) in enumerate(_seeds(seed, count)):
        n = 2 + rng.below(10)
        mf = generate_model(GeneratorSpec(got, n, s, {"weights": True}))
        value = _structured(mf, "mwis")[0]
        best = brute_solve(_graph_of(mf), "mwis").value
        if value != best:
            raise _SuiteFailure(f"instance {i}: structured {value}, brute {best}")
    return count


def _check_apsp(kind, count, seed) -> int:
    got = _require_kind(kind, ("interval", "arcs"), "apsp")
    for i, (s, rng) in enumerate(_seeds(seed, count)):
        if got == "interval":
            n = 2 + rng.below(40)
            mf = generate_model(GeneratorSpec("interval", n, rng.next_u64() >> 1,
                                              {"strict": True, "connected": True}))
            dist = apsp_interval(mf.model)
        else:
            n = 2 + rng.below(30)
            mf = _connected_model("arcs", n, rng)
            dist = apsp_circular_arc(mf.model)
        if dist != bfs_apsp(_BUILDERS[got](mf.model)):
            raise _SuiteFailure(f"instance {i}: distance matrix mismatch at n={n}")
    return count


def _check_fourway(kind, count, seed) -> int:
    _require_kind(kind, ("trapezoid",), "fourway")
    for i, (s, rng) in enumerate(_seeds(seed, count)):
        n = 1 + rng.below(25)
        m = generate_model(GeneratorSpec("trapezoid", n, s)).model
        g = build_trapezoid_graph(m)
        segs = to_segment_rep(m).segments
        boxes = to_box_rep(m).boxes
        q, pairing = to_permutation_diagram(m)
        if not check_cocomparability_order(g, range(1, n + 1)):
            raise _SuiteFailure(f"instance {i}: index order jumps a gap")
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
                    raise _SuiteFailure(
                        f"instance {i}: representations split on ({a},{b})")
    return count


def _check_chordal(kind, count, seed) -> int:
    got = _require_kind(kind, ("graph", "interval"), "chordal")
    for i, (s, rng) in enumerate(_seeds(seed, count)):
        if got == "graph":
            g = generate_model(GeneratorSpec("graph", 1 + rng.below(8), s)).model
            if is_chordal(g) != (find_hole(g) is None):
                raise _SuiteFailure(f"instance {i}: recognizer and holes disagree")
        else:
            m = generate_model(GeneratorSpec("interval", 1 + rng.below(20), s)).model
            if not is_chordal(build_interval_graph(m)):
                raise _SuiteFailure(f"instance {i}: interval graph not chordal")
    return count


def _check_crt(kind, count, seed) -> int:
    _require_kind(kind, ("dotted",), "crt")
    rng = SplitMix64(seed)
    for i in range(count):
        pair = []
        for _ in range(2):
            s = rng.randint(1, 400)
            d = rng.randint(1, 12)
            pair.append(DottedInterval.build(s, s + d * rng.randint(0, 40), d))
        x, y = pair
        if dotted_intersect(x, y) != bool(set(x.points()) & set(y.points())):
            raise _SuiteFailure(f"pair {i}: {x} vs {y}")
    return count


_SUITES = {
    "umbrella": _check_umbrella,
    "spanner": _check_spanner,
    "coloring": _check_coloring,
    "mwis": _check_mwis,
    "apsp": _check_apsp,
    "fourway": _check_fourway,
    "chordal": _check_chordal,
    "crt": _check_crt,
}


def _cmd_check(args) -> int:
    try:
        checked = _SUITES[args.suite](args.kind, args.count, args.seed)
    except _SuiteFailure as exc:
        print(f"FAIL {args.suite}: {exc}", file=sys.stderr)
        return 1
    print(f"ok {args.suite}: checked {checked} instances")
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
                   choices=("mis", "mwis", "max_clique", "coloring"))

    p = sub.add_parser("oracle", help="run the brute-force solver on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--k", type=int, default=None,
                   help="parameter for k-indexed problems")

    p = sub.add_parser("check", help="run an invariant suite on random models")
    p.add_argument("suite", choices=sorted(_SUITES))
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
