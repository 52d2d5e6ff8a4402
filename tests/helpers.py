"""Small named graphs and scalar reference builders shared by the tests."""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, permutations
from operator import add
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from isect.chordal import MAX_NEIGHBOURHOOD, PERFECT, STRONG, CliqueGraph, Ordering
from isect.arcs import ArcModel, Span, _reach_table, _straighten
from isect.errors import (
    BadParams,
    DisconnectedGraph,
    EmptyGraph,
    InfeasibleProblem,
    InstanceTooLarge,
    IsectError,
    MalformedModel,
    NodeBudgetExceeded,
    NotChordal,
    NotStrict,
    NotSubgraph,
    SchemaError,
    SharedEndpoint,
    UndefinedForDisconnected,
)
from isect.geom import INFINITE_TOLERANCE, DiskPoints, KBoxModel, ToleranceRep
from isect.graph import (
    Graph,
    Metrics,
    WeightsArg,
    _normalize_edge,
    balls,
    bfs_apsp,
    coerce_weights,
    lex_weights,
)
from isect.intervals import (
    IntervalModel,
    _chain_up,
    _events,
    _parents,
    build_interval_graph,
    mwis_interval,
    overlaps,
)
from isect.modelfile import KINDS, ModelFile, _field, _integer, _number, _record
from isect.oracles import (
    DEFAULT_ORACLE_BOUND,
    DEFAULT_PATH_ORACLE_BOUND,
    BruteSolution,
    _check_size,
    _mask_connected,
    _set_of,
)
from isect.permutations import ORIGIN, MISTree, Permutation, Point, PointRelation, PointRep
from isect.rng import SplitMix64


def path_graph(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.build(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def star_graph(leaves: int) -> Graph:
    """Hub vertex 1 with the given number of leaves."""
    return Graph.build(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def empty_graph(n: int) -> Graph:
    return Graph.build(n, [])


def random_graph(rng: SplitMix64, n: int, p_num: int = 1, p_den: int = 2) -> Graph:
    edges = [(i, j)
             for i in range(1, n + 1)
             for j in range(i + 1, n + 1)
             if rng.below(p_den) < p_num]
    return Graph.build(n, edges)


# the graph core as it was before the edge array became the stored form: the
# edge set as a frozenset of (min, max) tuples, and the views built from it


def edge_set_reference(n: int, edges) -> frozenset[tuple[int, int]]:
    """Validated, deduplicated edges of pairs or an (m, 2) array, as a set."""
    if isinstance(edges, np.ndarray):
        edges = edges.tolist()
    return frozenset(_normalize_edge(u, v, n) for u, v in edges)


def adj_reference(n: int, edges: frozenset[tuple[int, int]]) -> dict[int, frozenset[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return {v: frozenset(s) for v, s in nbrs.items()}


def adj_bits_reference(n: int, edges: frozenset[tuple[int, int]]) -> list[int]:
    bits = [0] * (n + 1)
    for u, v in edges:
        bits[u] |= 1 << (v - 1)
        bits[v] |= 1 << (u - 1)
    return bits


def pairwise_graph(n: int, pred: Callable[[int, int], bool]) -> Graph:
    """The reference builder: test every pair i < j with a scalar predicate."""
    return Graph.build(n, [(i, j)
                           for i in range(1, n + 1)
                           for j in range(i + 1, n + 1)
                           if pred(i, j)])


# the per-pair adjacency of the rational kinds, exactly on Fractions


def tolerance_pred(rep: ToleranceRep) -> Callable[[int, int], bool]:
    def pred(i: int, j: int) -> bool:
        (lo_i, hi_i), (lo_j, hi_j) = rep.intervals[i - 1], rep.intervals[j - 1]
        lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
        return lo <= hi and hi - lo >= min(rep.tolerances[i - 1], rep.tolerances[j - 1])
    return pred


def disk_pred(p: DiskPoints) -> Callable[[int, int], bool]:
    def pred(i: int, j: int) -> bool:
        (xi, yi), (xj, yj) = p.points[i - 1], p.points[j - 1]
        return (xi - xj) ** 2 + (yi - yj) ** 2 <= p.r * p.r
    return pred


def box_pred(m: KBoxModel) -> Callable[[int, int], bool]:
    def pred(i: int, j: int) -> bool:
        return all(max(si[0], sj[0]) <= min(si[1], sj[1])
                   for si, sj in zip(m.boxes[i - 1], m.boxes[j - 1]))
    return pred


# reference weighted independent set solvers on exact rational weights, with
# no perturbation: each finds its lexicographically smallest witness by
# admitting vertices in index order while the optimum stays reachable


def _best_weight(m: IntervalModel, w: list[Fraction], cands: Iterable[int]) -> Fraction:
    # max total weight of a pairwise disjoint subfamily of cands
    spans = m.spans
    order = sorted(cands, key=lambda r: spans[r - 1][1])
    rights = [spans[r - 1][1] for r in order]
    best = [Fraction(0)] * (len(order) + 1)
    for k, r in enumerate(order, start=1):
        j = bisect_left(rights, spans[r - 1][0])  # entries before j end strictly left
        best[k] = max(best[k - 1], best[j] + w[r - 1])
    return best[-1]


def mwis_interval_reference(m: IntervalModel, weights: WeightsArg = None) -> tuple[int, ...]:
    """Re-solve the remaining candidates for every vertex: O(n^2 log n)."""
    w = coerce_weights(m.n, weights)
    rem = _best_weight(m, w, range(1, m.n + 1))
    chosen: list[int] = []
    for v in range(1, m.n + 1):
        if rem == 0:
            break
        if any(overlaps(m, v, s) for s in chosen):
            continue
        cands = [x for x in range(v + 1, m.n + 1)
                 if not overlaps(m, x, v) and all(not overlaps(m, x, s) for s in chosen)]
        if w[v - 1] + _best_weight(m, w, cands) == rem:
            chosen.append(v)
            rem -= w[v - 1]
    return tuple(chosen)


def mwis_permutation_reference(p: Permutation, weights: WeightsArg = None) -> tuple[int, ...]:
    """The heaviest-chain DP in Fractions, then the index-order witness walk."""
    n = p.n
    w = coerce_weights(n, weights)
    # best[v - 1]: heaviest chain of points increasing in both coordinates from v
    best = [Fraction(0)] * n
    for v in range(n, 0, -1):
        best[v - 1] = w[v - 1] + max((best[u - 1] for u in range(v + 1, n + 1)
                                      if p.position(u) > p.position(v)), default=0)
    rem = max(best, default=Fraction(0))
    chosen: list[int] = []
    last_pos = 0
    for v in range(1, n + 1):
        if rem == 0:
            break
        if p.position(v) > last_pos and best[v - 1] == rem:
            chosen.append(v)
            rem -= w[v - 1]
            last_pos = p.position(v)
    return tuple(chosen)


# reference set oracles: each tests every candidate set straight from the
# definition, in the order that makes the first hit the smallest witness


def _mask_of(vs) -> int:
    return sum(1 << (v - 1) for v in vs)


def _is_independent(g: Graph, vs) -> bool:
    mask = _mask_of(vs)
    return all(g.adj_bits[v] & mask == 0 for v in vs)


def _is_clique(g: Graph, vs) -> bool:
    mask = _mask_of(vs)
    return all(g.adj_bits[v] & mask == mask ^ (1 << (v - 1)) for v in vs)


def mis_reference(g: Graph) -> tuple[int, tuple[int, ...]]:
    for size in range(g.n, -1, -1):
        for combo in combinations(g.vertices(), size):
            if _is_independent(g, combo):
                return size, combo
    return 0, ()


def max_clique_reference(g: Graph) -> tuple[int, tuple[int, ...]]:
    for size in range(g.n, -1, -1):
        for combo in combinations(g.vertices(), size):
            if _is_clique(g, combo):
                return size, combo
    return 0, ()


def mwis_reference(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """One pass over every mask in Fractions, with the tuple compare on ties."""
    n = g.n
    adj = g.adj_bits
    best_w = Fraction(0)
    best_set: tuple[int, ...] = ()
    independent = bytearray(1 << n)
    independent[0] = 1
    total = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length()
        rest = mask ^ low
        if not (independent[rest] and adj[v] & rest == 0):
            continue
        independent[mask] = 1
        w = total[mask] = total[rest] + g.weight(v)
        if w > best_w or w == best_w and _set_of(mask) < best_set:
            best_w, best_set = w, _set_of(mask)
    return best_w, best_set


def chromatic_reference(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The first k from 1 up that admits a coloring."""
    if g.n == 0:
        return 0, ()
    for k in range(1, g.n + 1):
        witness = canonical_coloring_reference(g, k)
        if witness is not None:
            return k, witness
    raise AssertionError("n colors always suffice")


def clique_cover_reference(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Color classes of the complement, ordered by color."""
    k, coloring = chromatic_reference(complement_reference(g))
    return k, tuple(tuple(v for v, c in enumerate(coloring, start=1) if c == col)
                    for col in range(1, k + 1))


# reference minimum-set oracles: one size-then-lexicographic loop per
# problem, and brute_solve's dispatch as an if-chain over the references


def _min_cover(universe: int, cover: dict[int, int],
               candidates: list[int]) -> tuple[int, ...]:
    """Smallest subset of candidates whose cover masks union to universe."""
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            got = 0
            for z in combo:
                got |= cover[z]
            if got & universe == universe:
                return combo
    raise InfeasibleProblem("no subset of the candidates covers everything")


def knc_reference(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"neighbourhood cover radius must be >= 1, got {k}")
    edges = g.sorted_edges()
    if not edges:
        return 0, ()
    dist = bfs_apsp(g)
    cover = {}
    for z in g.vertices():
        mask = 0
        for idx, (x, y) in enumerate(edges):
            dx = dist[z - 1][x - 1]
            dy = dist[z - 1][y - 1]
            if dx is not None and dx <= k and dy is not None and dy <= k:
                mask |= 1 << idx
        cover[z] = mask
    combo = _min_cover((1 << len(edges)) - 1, cover, list(g.vertices()))
    return len(combo), combo


def k_dominating_reference(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"domination radius must be >= 1, got {k}")
    if g.n == 0:
        return 0, ()
    cover = balls(g, k)
    combo = _min_cover((1 << g.n) - 1, cover, list(g.vertices()))
    return len(combo), combo


def distance_k_dominating_reference(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"domination radius must be >= 1, got {k}")
    if g.n == 0:
        return 0, ()
    cover = balls(g, k)
    everything = (1 << g.n) - 1
    for size in range(0, g.n + 1):
        for combo in combinations(g.vertices(), size):
            dmask = _mask_of(combo)
            got = dmask
            for z in combo:
                got |= cover[z]
            if got == everything:
                return size, combo
    raise AssertionError("D = V always works")


def total_k_dominating_reference(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"domination radius must be >= 1, got {k}")
    cover = balls(g, k)
    everything = (1 << g.n) - 1
    for size in range(2, g.n + 1):
        for combo in combinations(g.vertices(), size):
            got = 0
            for z in combo:
                got |= cover[z]
            if got != everything:
                continue
            dmask = _mask_of(combo)
            if all(cover[u] & (dmask ^ (1 << (u - 1))) for u in combo):
                return size, combo
    raise InfeasibleProblem(
        f"no total {k}-dominating set exists (isolated or tiny graph)")


def two_tuple_dominating_reference(g: Graph, k: int = 2) -> tuple[object, object]:
    if k != 2:
        raise BadParams(f"tuple domination implemented for k=2, got {k}")
    if any(g.degree(v) < 1 for v in g.vertices()):
        raise InfeasibleProblem("a vertex with closed neighbourhood smaller than 2")
    closed = {v: g.adj_bits[v] | (1 << (v - 1)) for v in g.vertices()}
    for size in range(2, g.n + 1):
        for combo in combinations(g.vertices(), size):
            dmask = _mask_of(combo)
            if all((closed[v] & dmask).bit_count() >= 2 for v in g.vertices()):
                return size, combo
    raise InfeasibleProblem("no 2-tuple dominating set exists")


def steiner_reference(g: Graph, targets: tuple[int, ...]) -> tuple[object, object]:
    tset = sorted(set(targets))
    if not tset:
        raise BadParams("steiner set needs at least one target")
    for t in tset:
        if not 1 <= t <= g.n:
            raise BadParams(f"target {t} outside 1..{g.n}")
    comp_of = {}
    for i, comp in enumerate(components_reference(g)):
        for v in comp:
            comp_of[v] = i
    if len({comp_of[t] for t in tset}) > 1:
        raise UndefinedForDisconnected("targets fall in different components")
    tmask = _mask_of(tset)
    rest = [v for v in g.vertices() if v not in set(tset)]
    for size in range(0, len(rest) + 1):
        for combo in combinations(rest, size):
            if _mask_connected(g, tmask | _mask_of(combo)):
                return size, combo
    raise AssertionError("whole component connects the targets")


def fvs_reference(g: Graph) -> tuple[object, object]:
    everything = (1 << g.n) - 1
    for size in range(0, g.n + 1):
        for combo in combinations(g.vertices(), size):
            if acyclic_within_reference(g, everything & ~_mask_of(combo)):
                return size, combo
    raise AssertionError("removing all vertices leaves a forest")


def brute_solve_reference(g: Graph, problem: str, *, k: Optional[int] = None,
                          targets: Optional[tuple[int, ...]] = None,
                          u: Optional[int] = None, v: Optional[int] = None,
                          max_n: int = DEFAULT_ORACLE_BOUND,
                          max_n_paths: int = DEFAULT_PATH_ORACLE_BOUND) -> BruteSolution:
    name = problem.lower()
    simple = {
        "mis": mis_reference,
        "mwis": mwis_reference,
        "max_clique": max_clique_reference,
        "chromatic_number": chromatic_reference,
        "min_clique_cover": clique_cover_reference,
        "feedback_vertex_set": fvs_reference,
    }
    if name in simple:
        _check_size(g, max_n, name)
        value, witness = simple[name](g)
        return BruteSolution(name, value, witness)
    if name in {"knc", "k_dominating", "distance_k_dominating", "total_k_dominating"}:
        _check_size(g, max_n, name)
        if k is None:
            raise BadParams(f"{name} needs parameter k")
        fn = {
            "knc": knc_reference,
            "k_dominating": k_dominating_reference,
            "distance_k_dominating": distance_k_dominating_reference,
            "total_k_dominating": total_k_dominating_reference,
        }[name]
        value, witness = fn(g, k)
        return BruteSolution(name, value, witness, (("k", k),))
    if name == "two_tuple_dominating":
        _check_size(g, max_n, name)
        value, witness = two_tuple_dominating_reference(g, 2 if k is None else k)
        return BruteSolution(name, value, witness, (("k", 2 if k is None else k),))
    if name == "steiner_set":
        _check_size(g, max_n, name)
        if targets is None:
            raise BadParams("steiner_set needs targets")
        value, witness = steiner_reference(g, tuple(targets))
        return BruteSolution(name, value, witness, (("targets", tuple(sorted(set(targets)))),))
    if name == "next_to_shortest":
        _check_size(g, max_n_paths, name)
        if u is None or v is None:
            raise BadParams("next_to_shortest needs endpoints u and v")
        value, witness = next_to_shortest_reference(g, u, v)
        return BruteSolution(name, value, witness, (("u", u), ("v", v)))
    raise BadParams(f"unknown problem {problem!r}")


# The reachability and distance helpers as they were before one bitmask
# frontier walk (``graph.bfs_layers``) served them all; the differential
# test in test_graph.py compares each rewritten helper with its reference.

def bfs_distances_reference(g: Graph, source: int) -> list[Optional[int]]:
    dist: list[Optional[int]] = [None] * (g.n + 1)
    dist[source] = 0
    adj = g.adj_bits
    visited = 1 << (source - 1)
    frontier = visited
    d = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            v = low.bit_length()
            nxt |= adj[v]
            f ^= low
        nxt &= ~visited
        if not nxt:
            break
        d += 1
        visited |= nxt
        f = nxt
        while f:
            low = f & -f
            dist[low.bit_length()] = d
            f ^= low
        frontier = nxt
    return dist


def components_reference(g: Graph) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                if y not in comp:
                    comp.add(y)
                    seen.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


def is_connected_reference(g: Graph) -> bool:
    return g.n <= 1 or len(components_reference(g)) == 1


def reach_reference(g: Graph, start_bits: int, mask: int) -> int:
    seen = frontier = start_bits
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= g.adj_bits[low.bit_length()]
            f ^= low
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def acyclic_within_reference(g: Graph, mask: int) -> bool:
    vs = _set_of(mask)
    edge_count = 0
    for v in vs:
        edge_count += (g.adj_bits[v] & mask).bit_count()
    edge_count //= 2
    comps = 0
    seen = 0
    for v in vs:
        bit = 1 << (v - 1)
        if seen & bit:
            continue
        comps += 1
        seen |= reach_reference(g, bit, mask)
    return edge_count == len(vs) - comps


def _apsp_reference(g: Graph) -> list[list[Optional[int]]]:
    return [bfs_distances_reference(g, s)[1:] for s in g.vertices()]


def balls_reference(g: Graph, k: int) -> dict[int, int]:
    dist = _apsp_reference(g)
    cover = {}
    for z in g.vertices():
        mask = 0
        for v in g.vertices():
            d = dist[z - 1][v - 1]
            if d is not None and d <= k:
                mask |= 1 << (v - 1)
        cover[z] = mask
    return cover


def separates_reference(g: Graph, cut: frozenset[int], a: int, b: int) -> bool:
    seen = {a} | cut
    stack = [a]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w == b:
                return False
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def metrics_reference(g: Graph) -> Metrics:
    if g.n == 0:
        raise MalformedModel("metrics undefined on the empty graph")
    if not is_connected_reference(g):
        raise DisconnectedGraph("metrics need a connected graph")
    if g.n == 1:
        return Metrics({1: 0}, 0, 0, frozenset({1}), Fraction(0))
    ecc: dict[int, int] = {}
    total = 0
    for v in g.vertices():
        row = bfs_distances_reference(g, v)[1:]
        ecc[v] = max(row)  # type: ignore[type-var]
        total += sum(row)  # type: ignore[arg-type]
    radius = min(ecc.values())
    diameter = max(ecc.values())
    center = frozenset(v for v, e in ecc.items() if e == radius)
    mean = Fraction(total, g.n * (g.n - 1))
    return Metrics(ecc, radius, diameter, center, mean)


def hinge_vertices_reference(g: Graph) -> frozenset[int]:
    if not is_connected_reference(g):
        raise DisconnectedGraph("hinge vertices are defined on connected graphs")
    base = _apsp_reference(g)
    hinges = set()
    for x in g.vertices():
        rest = [v for v in g.vertices() if v != x]
        sub, back = g.induced(rest)
        sub_d = _apsp_reference(sub)
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                old = base[back[i + 1] - 1][back[j + 1] - 1]
                new = sub_d[i][j]
                if new is None or new > old:  # type: ignore[operator]
                    hinges.add(x)
                    break
            if x in hinges:
                break
    return frozenset(hinges)


# The tree spanner check as it was before it read balls of the walk: two
# APSP matrices compared over every vertex pair.

def is_tree_t_spanner_reference(g: Graph, h: Graph, t) -> bool:
    num, den = Fraction(t).as_integer_ratio()
    if h.n != g.n:
        raise NotSubgraph(f"spanning subgraph must keep n={g.n}, got {h.n}")
    for e in h.edges:
        if e not in g.edges:
            raise NotSubgraph(f"edge {e} of the claimed spanner is not in the graph")
    if not g.is_connected():
        raise DisconnectedGraph("stretch is undefined for a disconnected graph")
    if len(h.edges) != g.n - 1 or not h.is_connected():
        return False
    dg = bfs_apsp(g)
    dh = bfs_apsp(h)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if dh[i][j] * den > num * dg[i][j]:  # type: ignore[operator]
                return False
    return True


# The chordal routines as they were before they read vertex masks: LexBFS
# by label lists, each ordering checked on its suffix as Python sets, the
# clique candidates filtered pairwise, and a separator's minimality by a
# search over every proper subset of the cut.  test_chordal.py compares
# each rewritten routine with its reference.

def lex_bfs_reference(g: Graph, start: int = 1) -> Ordering:
    n = g.n
    if n and not 1 <= start <= n:
        raise BadParams(f"start vertex {start} out of range 1..{n}")
    labels: dict[int, list[int]] = {v: [] for v in g.vertices()}
    unvisited = set(g.vertices())
    order: list[int] = []
    current = start if n else None
    while unvisited:
        v = current if current is not None else max(
            unvisited, key=lambda u: (labels[u], -u))
        current = None
        unvisited.discard(v)
        order.append(v)
        stamp = n - len(order)
        for w in g.adj[v]:
            if w in unvisited:
                labels[w].append(stamp)
    return Ordering(tuple(order), PERFECT)


def _head_ok_reference(g: Graph, kind: str, suffix) -> bool:
    vi = suffix[0]
    members = [w for w in suffix if w == vi or w in g.adj[vi]]
    if kind == PERFECT:
        return all(g.has_edge(a, b) for a, b in combinations(members[1:], 2))
    sset = set(suffix)

    def closed(v: int) -> set[int]:
        return {v} | (g.adj[v] & sset)

    if kind == STRONG:
        return all(closed(vj) <= closed(vk) for vj, vk in combinations(members, 2))
    if kind == MAX_NEIGHBOURHOOD:
        hoods = {w: closed(w) for w in members}
        return any(all(hoods[w] <= hoods[u] for w in members) for u in members)
    raise BadParams(f"unknown ordering kind {kind!r}")


def check_ordering_reference(g: Graph, o: Ordering) -> bool:
    if sorted(o.seq) != list(range(1, g.n + 1)):
        raise MalformedModel("ordering must list every vertex exactly once")
    return all(_head_ok_reference(g, o.kind, o.seq[i:]) for i in range(g.n))


def find_ordering_reference(g: Graph, kind: str, *, max_n: int = 8) -> Optional[Ordering]:
    if kind not in (PERFECT, STRONG, MAX_NEIGHBOURHOOD):
        raise BadParams(f"unknown ordering kind {kind!r}")
    if g.n > max_n:
        raise InstanceTooLarge(f"ordering search capped at n={max_n}, got n={g.n}")

    def grow(suffix: tuple[int, ...], left: frozenset[int]) -> Optional[tuple[int, ...]]:
        if not left:
            return suffix
        for v in sorted(left):
            cand = (v,) + suffix
            if _head_ok_reference(g, kind, cand):
                full = grow(cand, left - {v})
                if full is not None:
                    return full
        return None

    found = grow((), frozenset(g.vertices()))
    return None if found is None else Ordering(found, kind)


def maximal_cliques_chordal_reference(g: Graph) -> list[tuple[int, ...]]:
    order = lex_bfs_reference(g).reverse()
    if not check_ordering_reference(g, order):
        raise NotChordal("graph has no perfect elimination ordering")
    seq = order.seq
    candidates = [frozenset({v} | (g.adj[v] & set(seq[i + 1:]))) for i, v in enumerate(seq)]
    keep = [c for c in candidates if not any(c < other for other in candidates)]
    return sorted(set(tuple(sorted(c)) for c in keep))


def is_minimal_ab_separator_reference(g: Graph, cut: frozenset[int], a: int, b: int) -> bool:
    if g.has_edge(a, b) or not separates_reference(g, cut, a, b):
        return False
    for size in range(len(cut)):
        for sub in combinations(sorted(cut), size):
            if separates_reference(g, frozenset(sub), a, b):
                return False
    return True


def clique_graph_reference(g: Graph, *, max_n: int = 12) -> CliqueGraph:
    if g.n > max_n:
        raise InstanceTooLarge(f"clique graph capped at n={max_n}, got n={g.n}")
    cliques = maximal_cliques_chordal_reference(g)
    sets = [set(c) for c in cliques]
    edges = []
    mu = {}
    for i, j in combinations(range(len(cliques)), 2):
        inter = frozenset(sets[i] & sets[j])
        if all(is_minimal_ab_separator_reference(g, inter, a, b)
               for a in sorted(sets[i] - sets[j])
               for b in sorted(sets[j] - sets[i])):
            edges.append((i + 1, j + 1))
            mu[(i + 1, j + 1)] = len(inter)
    return CliqueGraph(tuple(cliques), tuple(edges), mu)


# Graph readers as they were before the library read a graph only through
# its edge array and bit rows: the edge frozenset, the adjacency dict of
# frozensets, and has_edge as a frozenset lookup.  test_graph.py compares
# each rewritten routine with its reference.

def complement_reference(g: Graph) -> Graph:
    comp = [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1)
            if (u, v) not in g.edges]
    return Graph.build(g.n, comp, g.weights)


def cut_vertices_and_blocks_reference(g: Graph) -> tuple[frozenset[int], list[frozenset[int]]]:
    n = g.n
    disc = [0] * (n + 1)
    low = [0] * (n + 1)
    timer = [1]
    cuts: set[int] = set()
    blocks: list[frozenset[int]] = []
    edge_stack: list[tuple[int, int]] = []

    def emit_block(until: tuple[int, int]) -> None:
        members: set[int] = set()
        while True:
            e = edge_stack.pop()
            members.add(e[0])
            members.add(e[1])
            if e == until:
                break
        blocks.append(frozenset(members))

    for root in g.vertices():
        if disc[root]:
            continue
        if not g.adj[root]:
            blocks.append(frozenset({root}))
            disc[root] = timer[0]
            timer[0] += 1
            continue
        stack = [(root, 0, iter(sorted(g.adj[root])))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if not disc[w]:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, v, iter(sorted(g.adj[w]))))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    emit_block((pv, v))
                    if pv != root:
                        cuts.add(pv)
        if root_children > 1:
            cuts.add(root)
    return frozenset(cuts), blocks


def check_cocomparability_order_reference(g: Graph, order) -> bool:
    n = g.n
    if sorted(order) != list(range(1, n + 1)):
        raise MalformedModel("the order must list every vertex once")
    pos = {v: k for k, v in enumerate(order)}
    nbr_mask = [0] * (n + 1)
    for u in g.vertices():
        mask = 0
        for w in g.adj[u]:
            mask |= 1 << pos[w]
        nbr_mask[u] = mask
    for u in g.vertices():
        pu = pos[u]
        for w in g.adj[u]:
            pw = pos[w]
            if pw <= pu:
                continue
            between = ((1 << pw) - 1) & ~((1 << (pu + 1)) - 1)
            if between & ~(nbr_mask[u] | nbr_mask[w]):
                return False
    return True


def _has_edge_reference(g: Graph, u: int, v: int) -> bool:
    if u > v:
        u, v = v, u
    return (u, v) in g.edges


def canonical_coloring_reference(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    n = g.n
    color = [0] * (n + 1)

    def assign(v: int, used: int) -> bool:
        if v > n:
            return True
        limit = min(used + 1, k)
        for c in range(1, limit + 1):
            if all(color[u] != c for u in g.adj[v] if u < v):
                color[v] = c
                if assign(v + 1, max(used, c)):
                    return True
        color[v] = 0
        return False

    if assign(1, 0):
        return tuple(color[1:])
    return None


def next_to_shortest_reference(g: Graph, u: int, v: int) -> tuple[object, object]:
    if not (1 <= u <= g.n and 1 <= v <= g.n) or u == v:
        raise BadParams(f"need two distinct vertices in 1..{g.n}, got {u}, {v}")
    to_v = bfs_distances_reference(g, v)
    if to_v[u] is None:
        raise UndefinedForDisconnected(f"vertices {u} and {v} are disconnected")
    shortest = to_v[u]

    def first_path_of_length(target: int) -> Optional[tuple[int, ...]]:
        path = [u]
        on_path = {u}

        def extend() -> bool:
            depth = len(path) - 1
            here = path[-1]
            if depth == target:
                return here == v
            for w in sorted(g.adj[here]):
                if w in on_path:
                    continue
                rem = to_v[w]
                if rem is None or depth + 1 + rem > target:
                    continue
                if w == v and depth + 1 != target:
                    continue
                path.append(w)
                on_path.add(w)
                if extend():
                    return True
                on_path.discard(w)
                path.pop()
            return False

        return tuple(path) if extend() else None

    for length in range(shortest + 1, g.n):
        witness = first_path_of_length(length)
        if witness is not None:
            return length, witness
    return math.inf, None


def is_comparability_bruteforce_reference(g: Graph, *, max_edges: int = 24) -> bool:
    if len(g.edge_array) > max_edges:
        raise InstanceTooLarge(
            f"comparability oracle capped at {max_edges} edges, got {len(g.edge_array)}")
    edges = g.sorted_edges()
    orient: dict[tuple[int, int], tuple[int, int]] = {}

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def propagate(trail: list, a: int, b: int) -> bool:
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            e = key(a, b)
            cur = orient.get(e)
            if cur == (a, b):
                continue
            if cur is not None:
                return False
            orient[e] = (a, b)
            trail.append(e)
            for c in g.adj[b]:
                if c != a and orient.get(key(b, c)) == (b, c):
                    if not _has_edge_reference(g, a, c):
                        return False
                    stack.append((a, c))
            for c in g.adj[a]:
                if c != b and orient.get(key(c, a)) == (c, a):
                    if not _has_edge_reference(g, c, b):
                        return False
                    stack.append((c, b))
        return True

    def search(idx: int) -> bool:
        while idx < len(edges) and edges[idx] in orient:
            idx += 1
        if idx == len(edges):
            return True
        x, y = edges[idx]
        for a, b in ((x, y), (y, x)):
            trail: list = []
            if propagate(trail, a, b) and search(idx + 1):
                return True
            for e in trail:
                del orient[e]
        return False

    return search(0)


def find_hole_reference(g: Graph, min_len: int = 4) -> Optional[tuple[int, ...]]:
    for v0 in g.vertices():
        path = [v0]
        on_path = {v0}

        def extend() -> Optional[tuple[int, ...]]:
            tail = path[-1]
            for w in sorted(g.adj[tail]):
                if w <= v0 or w in on_path:
                    continue
                if len(path) >= 2:
                    if _has_edge_reference(g, w, v0):
                        if (len(path) + 1 >= min_len
                                and not any(_has_edge_reference(g, w, p) for p in path[1:-1])):
                            return tuple(path) + (w,)
                        continue
                    if any(_has_edge_reference(g, w, p) for p in path[1:-1]):
                        continue
                path.append(w)
                on_path.add(w)
                found = extend()
                if found:
                    return found
                on_path.discard(w)
                path.pop()
            return None

        found = extend()
        if found:
            return found
    return None


def are_isomorphic_bruteforce_reference(g: Graph, h: Graph, *, max_n: int = 8) -> bool:
    _check_size(g, max_n, "isomorphism")
    _check_size(h, max_n, "isomorphism")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(len(g.adj[v]) for v in g.vertices()) != sorted(
            len(h.adj[v]) for v in h.vertices()):
        return False
    gd = [len(g.adj[v]) for v in g.vertices()]
    hd = [len(h.adj[v]) for v in h.vertices()]
    for perm in permutations(range(1, g.n + 1)):
        if any(gd[v - 1] != hd[perm[v - 1] - 1] for v in g.vertices()):
            continue
        if all((perm[u - 1], perm[v - 1]) in h.edges
               or (perm[v - 1], perm[u - 1]) in h.edges
               for u, v in g.edges):
            return True
    return False


# The MIS tree and point relation as they were before the one-pass
# dominance sweep: every candidate child checked against an open box over
# all points, and the box test with both non-connected tests beside it.
# test_permutations.py compares the live code with these.

def _non_connected_reference(p: Point, q: Point) -> bool:
    return (p[0] < q[0] and p[1] < q[1]) or (p[0] > q[0] and p[1] > q[1])


def point_relation_reference(rep: PointRep, p: Point, q: Point) -> PointRelation:
    known = set(rep.points) | {ORIGIN}
    if p not in known or q not in known:
        raise MalformedModel("relation queries need points of the representation")
    if p == q:
        raise MalformedModel("relation queries need two distinct points")
    if not _non_connected_reference(p, q):
        return PointRelation(True, False)
    lo, hi = (p, q) if p[0] < q[0] else (q, p)
    direct = not any(
        lo[0] < r[0] < hi[0] and lo[1] < r[1] < hi[1]
        and _non_connected_reference(lo, r) and _non_connected_reference(r, hi)
        for r in rep.points)
    return PointRelation(False, direct)


def direct_children_reference(points, base: Point) -> tuple[Point, ...]:
    out = []
    for q in points:
        if not (q[0] > base[0] and q[1] > base[1]):
            continue
        if any(base[0] < r[0] < q[0] and base[1] < r[1] < q[1] for r in points):
            continue
        out.append(q)
    return tuple(sorted(out))


def build_mis_tree_reference(p: Permutation, cap: Optional[int] = None) -> MISTree:
    n = p.n
    if cap is None:
        cap = 10 * n * n if n else 1
    pts = PointRep.from_permutation(p).points
    children = {ORIGIN: direct_children_reference(pts, ORIGIN)}
    for q in pts:
        children[q] = direct_children_reference(pts, q)
    counts: dict[Point, int] = {}
    for q in sorted(pts, reverse=True):
        counts[q] = 1 + sum(counts[c] for c in children[q])
    total = 1 + sum(counts[c] for c in children[ORIGIN])
    if total > cap:
        raise NodeBudgetExceeded(f"chain tree has {total} nodes, cap is {cap}")
    return MISTree(ORIGIN, children, total, cap)


# The model reader and the two rank-checked constructors as they were
# before each value became a rational once: every item read field by field
# with its path, every value re-made by Fraction(x), and the interval and
# arc checks on the rationals.  test_modelfile.py parses through these and
# through the live code and compares the results.

def by_id_reference(items, row) -> list[tuple]:
    rows: dict[int, tuple] = {}
    for k, raw in enumerate(items):
        here = f"$.items[{k}]"
        rec = _record(raw, here)
        ident = _integer(_field(rec, "id", here), f"{here}.id")
        if ident in rows:
            raise SchemaError(f"duplicate id {ident}", here)
        rows[ident] = row(rec, here)
    n = len(items)
    if sorted(rows) != list(range(1, n + 1)):
        raise SchemaError(f"ids must cover 1..{n} exactly", "$.items")
    return [rows[i] for i in range(1, n + 1)]


def numbers_reference(*names: str):
    return lambda rec, here: tuple(_number(_field(rec, f, here), f"{here}.{f}")
                                   for f in names)


def weights_reference(doc, n: int):
    raw = doc.get("weights")
    if raw is None:
        return None
    path = "$.weights"
    if isinstance(raw, dict):
        vals = [Fraction(1)] * n
        for key, val in raw.items():
            try:
                ident = int(key)
            except ValueError as exc:
                raise SchemaError(f"weight key {key!r} is not a vertex id", path) from exc
            if not 1 <= ident <= n:
                raise SchemaError(f"weight names unknown vertex {ident}", path)
            vals[ident - 1] = _number(val, f"{path}.{key}")
        return tuple(vals)
    if isinstance(raw, list):
        if len(raw) != n:
            raise SchemaError(f"expected {n} weights, got {len(raw)}", path)
        return tuple(_number(v, f"{path}[{k}]") for k, v in enumerate(raw))
    raise SchemaError("weights must be a list or an id-keyed object", path)


def rational_pair_reference(item, what: str, k: int) -> tuple[Fraction, Fraction]:
    # OverflowError (an infinite end) is caught as the live code now catches
    # it; the parent let it through raw
    try:
        x, y = item
        return Fraction(x), Fraction(y)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedModel(f"{what} {k} is not a pair of rationals: {item!r}") from exc


def rationals_reference(seq, ids, error: type) -> list[Fraction]:
    vals: list[Fraction] = []
    try:
        for x in seq:
            w = Fraction(x)
            if w < 0:
                raise error(f"negative weight {w} at vertex {ids[len(vals)]}")
            vals.append(w)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise error(f"weight {x!r} at vertex {ids[len(vals)]} is not a rational") from exc
    return vals


def interval_model_build_reference(intervals, strict: bool = False) -> IntervalModel:
    pairs = []
    for r, pair in enumerate(intervals, start=1):
        a, b = rational_pair_reference(pair, "interval", r)
        if a >= b:
            raise MalformedModel(
                f"interval {r}: [{a}, {b}] has no interior; points are rejected")
        pairs.append((a, b))
    model = IntervalModel(tuple(pairs), strict)
    spans = model.spans
    if strict:
        if max((b for _, b in spans), default=0) != 2 * model.n:
            raise NotStrict("strict models need pairwise distinct endpoints")
        if any(x[1] >= y[1] for x, y in zip(spans, spans[1:])):
            raise NotStrict("strict models are indexed by increasing right endpoint")
    return model


def arc_model_build_reference(arcs) -> ArcModel:
    pairs = []
    for k, arc in enumerate(arcs, start=1):
        h, t = rational_pair_reference(arc, "arc", k)
        if h == t:
            raise SharedEndpoint(f"arc {k} has coinciding endpoints")
        pairs.append((h, t))
    seen: dict[Fraction, int] = {}
    for k, (h, t) in enumerate(pairs, start=1):
        for x in (h, t):
            if x in seen:
                raise SharedEndpoint(f"arcs {seen[x]} and {k} share the endpoint {x}")
            seen[x] = k
    model = ArcModel(tuple(pairs))
    model.spans
    return model


def outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return fn(*args)
    except IsectError as exc:
        return type(exc), str(exc)


# Four structure routines as they were before each became one recurrence,
# sort or count: interval APSP by a sorted search of every row's parent
# chain, normalize checked by a second graph build and a compare, the
# proper-arc test by a scan of every pair, and tolerance separation by
# intersecting every pair of endpoint sets.  test_intervals.py, test_arcs.py
# and test_geom.py compare each rewritten routine with its reference.

def apsp_interval_reference(m: IntervalModel) -> list[list[int]]:
    high = _parents(m, "the distance recurrence")
    n = m.n
    a = np.array([p[0] for p in m.spans], dtype=np.int64)
    b = [p[1] for p in m.spans]
    out = np.zeros((n, n), dtype=np.int64)
    for u in range(1, n):
        chain = [b[x - 1] for x in _chain_up(high, u)]
        ks = np.searchsorted(np.array(chain, dtype=np.int64), a[u:], side="left")
        out[u - 1, u:] = ks + 1
    out = out + out.T
    return out.tolist()


def normalize_reference(m: IntervalModel) -> tuple[IntervalModel, tuple[int, ...]]:
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for pos, (_, side, r) in enumerate(_events(m), start=1):
        if side == 0:
            lo[r] = pos
        else:
            hi[r] = pos
    order = sorted(range(1, m.n + 1), key=lambda r: hi[r])
    strict = IntervalModel.build([(lo[r], hi[r]) for r in order], strict=True)
    back = np.array([0] + order, dtype=np.int64)
    relabeled = Graph.build(m.n, back[build_interval_graph(strict).edge_array])
    if relabeled != build_interval_graph(m):
        raise MalformedModel("normalization changed the intersection graph")
    return strict, tuple(order)


def is_proper_reference(m: ArcModel) -> bool:
    n = m.n
    if n <= 1:
        return True
    two_n = 2 * n
    for ho, to in m.spans:
        end = (to - ho) % two_n
        for hi, ti in m.spans:
            if (hi, ti) == (ho, to):
                continue
            oh = (hi - ho) % two_n
            ot = (ti - ho) % two_n
            if oh <= end and ot <= end and oh <= ot:
                return False
    return True


def classify_tolerance_rep_reference(rep: ToleranceRep) -> dict[str, bool]:
    bounded = all(rep.tolerances[v - 1] <= rep.length(v)
                  for v in range(1, rep.n + 1))
    capped = all(rep.tolerances[v - 1] == INFINITE_TOLERANCE
                 for v in range(1, rep.n + 1)
                 if rep.tolerances[v - 1] > rep.length(v))
    distinct = len(set(rep.tolerances)) == rep.n
    ends = [set(rep.intervals[v - 1]) for v in range(1, rep.n + 1)]
    separated = all(not (ends[i] & ends[j])
                    for i in range(rep.n) for j in range(i + 1, rep.n))
    return {"bounded": bounded, "regular": capped and distinct and separated}


# Arc APSP as it was before every source stepped its reach chain in
# lockstep: a loop over the sources, each walking its own chain and
# searching it once per row.  test_arcs.py compares the live code with it.

def hops_reference(spans: Sequence[Span]) -> np.ndarray:
    n, two_n = len(spans), 2 * len(spans)
    cw = _reach_table(spans).tolist()
    heads, tails = np.array(spans).T
    rel_h = (heads - heads[:, None]) % two_n
    rel_t = (tails - heads[:, None]) % two_n
    span_len = rel_t.diagonal()
    gap = (rel_h > span_len[:, None]) & (rel_t > rel_h)
    out = np.where(gap, n + 1, 1)
    np.fill_diagonal(out, 0)
    for s, h in enumerate(heads.tolist()):
        chain = [h + int(span_len[s])]
        while chain[-1] < h + two_n and cw[chain[-1]] > chain[-1]:
            chain.append(cw[chain[-1]])
        k = np.searchsorted(chain, h + rel_h[s, gap[s]])
        out[s, gap[s]] = np.where(k < len(chain), k + 1, n + 1)
    return out


def apsp_circular_arc_reference(m: ArcModel) -> list[list[int]]:
    if m.n == 0:
        raise EmptyGraph("no distances in an empty model")
    mirror = [(2 * m.n + 1 - t, 2 * m.n + 1 - h) for h, t in m.spans]
    dist = np.minimum(hops_reference(m.spans), hops_reference(mirror))
    if (dist > m.n).any():
        raise DisconnectedGraph("distances need a connected model")
    return dist.tolist()


# Arc MWIS as it was before the crossing cases shared one sort: a fresh
# interval model and one mwis_interval call per case.  test_arcs.py
# compares the live code with it.

def mwis_circular_arc_reference(m: ArcModel, weights: WeightsArg = None) -> tuple[int, ...]:
    if m.n == 0:
        return ()
    w = coerce_weights(m.n, weights)
    lw = lex_weights(w)
    heads, tails = np.array(m.spans).T
    delta = np.zeros(2 * m.n + 1, dtype=np.int64)
    delta[heads], delta[tails] = 1, -1
    cut = int(np.argmin(np.cumsum(delta)[1:])) + 1
    pairs = _straighten(m, cut)
    fwd = [r for r in range(1, m.n + 1) if pairs[r - 1][0] >= 1]
    cases = [fwd] + [sorted([i] + [r for r in fwd if b < pairs[r - 1][0]
                                   and pairs[r - 1][1] < a + 2 * m.n])
                     for i, (a, b) in enumerate(pairs, start=1) if a < 1]
    found = []
    for ids in cases:
        pick = mwis_interval(IntervalModel.build([pairs[r - 1] for r in ids]),
                             [w[r - 1] for r in ids])
        found.append(tuple(ids[k - 1] for k in pick))
    return max(found, key=lambda chosen: sum(lw[v - 1] for v in chosen))


# Text output as it was before the fixed tables: edge_text made one Python
# string per edge from two tolist() lists, and a model file was built as
# objects, written by json.dumps(indent=2), and given a graph's edge block
# by a splice.  test_graph.py and test_modelfile.py compare the live code
# with these.

def edge_text_reference(g: Graph, pattern: str, sep: str = "") -> str:
    head, rest = pattern.split("{u}")
    mid, tail = rest.split("{v}")
    rows = g.edge_array
    top = int(rows[:, 1].max(initial=0))
    if top <= rows.size:
        ids, slots = range(top + 1), rows
    else:
        ids, slots = np.unique(rows, return_inverse=True)
        ids, slots = ids.tolist(), slots.reshape(rows.shape)
    names = list(map(str, ids))
    pre = [head + s + mid for s in names]
    post = [s + tail for s in names]
    lo, hi = slots.T.tolist()
    return sep.join(map(add, map(pre.__getitem__, lo), map(post.__getitem__, hi)))


def num_out_reference(x) -> object:
    f = x if type(x) is Fraction else Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# kind -> the document's keys after "kind", as objects for json.dumps
EMITTERS_REFERENCE = {
    "interval": lambda m: {"items": [
        {"id": i, "a": num_out_reference(a), "b": num_out_reference(b)}
        for i, (a, b) in enumerate(m.intervals, start=1)]},
    "arcs": lambda m: {"items": [
        {"id": i, "h": num_out_reference(h), "t": num_out_reference(t)}
        for i, (h, t) in enumerate(m.arcs, start=1)]},
    "permutation": lambda p: {"items": [{"pi": list(p.pi)}]},
    "trapezoid": lambda m: {"items": [{"id": i, "a": a, "b": b, "c": c, "d": d}
                                      for i, (a, b, c, d) in enumerate(m.items, start=1)]},
    "dotted": lambda m: {"items": [{"id": i, "s": it.s, "t": it.t, "d": it.d}
                                   for i, it in enumerate(m, start=1)]},
    "tolerance": lambda m: {"items": [
        {"id": i, "a": num_out_reference(a), "b": num_out_reference(b),
         "tol": "inf" if t == INFINITE_TOLERANCE else num_out_reference(t)}
        for i, ((a, b), t) in enumerate(zip(m.intervals, m.tolerances), start=1)]},
    "chords": lambda m: {"items": [{"id": i, "x": x, "y": y}
                                   for i, (x, y) in enumerate(m.chords, start=1)]},
    "disks": lambda m: {"r": num_out_reference(m.r), "items": [
        {"id": i, "x": num_out_reference(x), "y": num_out_reference(y)}
        for i, (x, y) in enumerate(m.points, start=1)]},
    "boxes": lambda m: {"items": [
        {"id": i, "intervals": [[num_out_reference(lo), num_out_reference(hi)]
                                for lo, hi in box]}
        for i, box in enumerate(m.boxes, start=1)]},
    "graph": lambda g: {"items": [{"n": g.n, "edges": []}]},
}
EDGE_JSON_REFERENCE = "        [\n          {u},\n          {v}\n        ]"


def emit_model_file_reference(mf: ModelFile) -> str:
    if mf.kind not in KINDS:
        raise SchemaError(f"unknown kind {mf.kind!r}", "$.kind")
    doc: dict[str, object] = {"kind": mf.kind, **EMITTERS_REFERENCE[mf.kind](mf.model)}
    if mf.weights is not None:
        doc["weights"] = [num_out_reference(w) for w in mf.weights]
    text = json.dumps(doc, indent=2) + "\n"
    if mf.kind == "graph" and len(mf.model.edge_array):
        edges = edge_text_reference(mf.model, EDGE_JSON_REFERENCE, ",\n")
        text = text.replace('"edges": []', f'"edges": [\n{edges}\n      ]', 1)
    return text
