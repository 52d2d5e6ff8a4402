"""Brute-force oracles evaluated straight from definitions.

Every solver here enumerates candidate solutions explicitly and applies
the defining predicate, so results are trustworthy at small sizes and
serve as the reference for the structured algorithms.  Witnesses are
deterministic: among optima the lexicographically smallest sorted vertex
tuple is returned (shorter tuples win as prefixes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from .errors import (
    BadParams,
    InfeasibleProblem,
    InstanceTooLarge,
    UndefinedForDisconnected,
)
from .graph import Graph, _mask_of, _set_of, balls, bfs_distances, lex_trim, lex_weights, reach

DEFAULT_ORACLE_BOUND = 16
DEFAULT_PATH_ORACLE_BOUND = 12


@dataclass(frozen=True)
class BruteSolution:
    """Outcome of a brute-force solve: optimum value plus one witness."""

    problem: str
    value: object
    witness: object
    params: tuple = field(default=())


def _check_size(g: Graph, cap: int, what: str) -> None:
    if g.n > cap:
        raise InstanceTooLarge(f"{what} oracle capped at n={cap}, got n={g.n}")


def _mask_connected(g: Graph, mask: int) -> bool:
    return mask == 0 or reach(g, mask & -mask, mask) == mask


def _independent_table(n: int, bits) -> np.ndarray:
    """ok[mask] is True iff no vertex v of mask meets mask in bits[v].

    Built by doubling on the top vertex: a subset holding v as its top
    vertex passes where the rest passes and misses bits[v].
    """
    ok = np.ones(1 << n, dtype=bool)
    below = np.arange(1 << n >> 1, dtype=np.int64)
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        ok[half:2 * half] = ok[:half] & (below[:half] & bits[v] == 0)
    return ok


def _heaviest_set(n: int, bits, w) -> tuple[object, tuple[int, ...]]:
    """The heaviest of the subsets no two of whose vertices meet in bits.

    w[v - 1] is vertex v's non-negative weight.  The table holds each
    subset's total under graph.lex_weights, whose single argmax lex_trim
    turns into the smallest sorted vertex tuple of the heaviest subsets.
    That is exact because the tabled families, independent sets and
    cliques, are closed under removal, so the trimmed set is one of them.
    One entry per subset of 1..n, in int64 unless the totals could overflow.
    """
    lw = lex_weights(w)
    total = np.zeros(1 << n, dtype=np.int64 if sum(lw) < 2 ** 62 else object)
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        total[half:2 * half] = total[:half] + lw[v - 1]
    best = int(np.where(_independent_table(n, bits), total, -1).argmax())
    chosen = lex_trim(_set_of(best), w)
    return sum(w[v - 1] for v in chosen), chosen


def _solve_mis(g: Graph) -> tuple[object, object]:
    return _heaviest_set(g.n, g.adj_bits, [1] * g.n)


def _solve_max_clique(g: Graph) -> tuple[object, object]:
    full = (1 << g.n) - 1
    bits = [0] + [full & ~g.adj_bits[v] & ~(1 << (v - 1)) for v in g.vertices()]
    return _heaviest_set(g.n, bits, [1] * g.n)


def _solve_mwis(g: Graph) -> tuple[object, object]:
    best, witness = _heaviest_set(g.n, g.adj_bits, [g.weight(v) for v in g.vertices()])
    return Fraction(best), witness  # a Fraction even when the set is empty


def _canonical_coloring(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first proper coloring with at most k colors.

    Colors are numbered by first appearance along vertex order, which
    rules out color-permutation duplicates.
    """
    n = g.n
    color = [0] * (n + 1)
    members = [0] * (k + 1)  # the vertex mask of each color, over 1..v-1

    def assign(v: int, used: int) -> bool:
        if v > n:
            return True
        limit = min(used + 1, k)
        for c in range(1, limit + 1):
            if not g.adj_bits[v] & members[c]:
                color[v] = c
                members[c] |= 1 << (v - 1)
                if assign(v + 1, max(used, c)):
                    return True
                members[c] ^= 1 << (v - 1)
        color[v] = 0
        return False

    if assign(1, 0):
        return tuple(color[1:])
    return None


def _solve_chromatic(g: Graph) -> tuple[object, object]:
    # no coloring has fewer colors than the clique number
    for k in range(_solve_max_clique(g)[0], g.n + 1):
        witness = _canonical_coloring(g, k)
        if witness is not None:
            return k, witness
    raise AssertionError("n colors always suffice")


def _solve_clique_cover(g: Graph) -> tuple[object, object]:
    k, coloring = _solve_chromatic(g.complement())
    return k, tuple(tuple(v for v, c in enumerate(coloring, start=1) if c == col)
                    for col in range(1, k + 1))


def _first_set(candidates, ok, start: int = 0) -> Optional[tuple[int, tuple[int, ...]]]:
    """The first (size, combo) whose vertex mask ok accepts, or None.

    Combos of candidates go by size from start, then lexicographically,
    so a hit has the fewest vertices and the smallest sorted tuple.
    """
    bits = [1 << (v - 1) for v in candidates]
    for size in range(start, len(candidates) + 1):
        for combo, chosen in zip(combinations(candidates, size), combinations(bits, size)):
            if ok(sum(chosen)):
                return size, combo
    return None


def _meets(needs):
    """Accepts a vertex mask that meets every mask in needs."""
    return lambda chosen: all(map(chosen.__and__, needs))


def _solve_knc(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"neighbourhood cover radius must be >= 1, got {k}")
    ball = balls(g, k)
    # z covers edge xy when x and y lie in z's ball, that is z in both balls
    needs = [ball[x] & ball[y] for x, y in g.sorted_edges()]
    return _first_set(g.vertices(), _meets(needs))


def _solve_k_dominating(g: Graph, k: int) -> tuple[object, object]:
    # each vertex lies in its own ball, so this also serves
    # distance_k_dominating, which asks D plus the balls of D to cover V
    if k < 1:
        raise BadParams(f"domination radius must be >= 1, got {k}")
    return _first_set(g.vertices(), _meets(balls(g, k).values()))


def _solve_total_k_dominating(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"domination radius must be >= 1, got {k}")
    # every vertex, in D or not, needs a vertex of D other than itself in its ball
    needs = [ball & ~(1 << (z - 1)) for z, ball in balls(g, k).items()]
    found = _first_set(g.vertices(), _meets(needs), start=2)
    if found is None:
        raise InfeasibleProblem(
            f"no total {k}-dominating set exists (isolated or tiny graph)")
    return found


def _solve_two_tuple_dominating(g: Graph, k: int) -> tuple[object, object]:
    if k != 2:
        raise BadParams(f"tuple domination implemented for k=2, got {k}")
    if any(g.degree(v) < 1 for v in g.vertices()):
        raise InfeasibleProblem("a vertex with closed neighbourhood smaller than 2")
    closed = [g.adj_bits[v] | (1 << (v - 1)) for v in g.vertices()]
    found = _first_set(g.vertices(), lambda chosen: all(
        (c & chosen).bit_count() >= 2 for c in closed), start=2)
    if found is None:
        raise InfeasibleProblem("no 2-tuple dominating set exists")
    return found


def _solve_steiner(g: Graph, targets: tuple[int, ...]) -> tuple[object, object]:
    """targets: sorted, without repeats."""
    if not targets:
        raise BadParams("steiner set needs at least one target")
    for t in targets:
        if not 1 <= t <= g.n:
            raise BadParams(f"target {t} outside 1..{g.n}")
    tmask = _mask_of(targets)
    if reach(g, tmask & -tmask) & tmask != tmask:
        raise UndefinedForDisconnected("targets fall in different components")
    rest = [v for v in g.vertices() if not tmask >> (v - 1) & 1]
    return _first_set(rest, lambda chosen: _mask_connected(g, tmask | chosen))


def _acyclic_within(g: Graph, mask: int) -> bool:
    # a forest has as many edges as vertices less components
    edges = sum((g.adj_bits[v] & mask).bit_count() for v in _set_of(mask)) // 2
    comps, rest = 0, mask
    while rest:
        comps += 1
        rest &= ~reach(g, rest & -rest, mask)
    return edges == mask.bit_count() - comps


def _solve_fvs(g: Graph) -> tuple[object, object]:
    everything = (1 << g.n) - 1
    return _first_set(g.vertices(), lambda chosen: _acyclic_within(g, everything & ~chosen))


def _solve_next_to_shortest(g: Graph, u: int, v: int) -> tuple[object, object]:
    if not (1 <= u <= g.n and 1 <= v <= g.n) or u == v:
        raise BadParams(f"need two distinct vertices in 1..{g.n}, got {u}, {v}")
    to_v = bfs_distances(g, v)
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
            for w in _set_of(g.adj_bits[here]):
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


def _given(name: str, what: str, value):
    if value is None:
        raise BadParams(f"{name} needs {what}")
    return value


def _no_params(name, k, targets, u, v) -> tuple:
    return ()


def _radius(name, k, targets, u, v) -> tuple:
    return (("k", _given(name, "parameter k", k)),)


# problem -> (solver, parameter reader).  The reader turns brute_solve's
# keywords into the (name, value) pairs the solution records, raising
# BadParams for a missing one; the solver takes the values in order.
_PROBLEMS = {
    "mis": (_solve_mis, _no_params),
    "mwis": (_solve_mwis, _no_params),
    "max_clique": (_solve_max_clique, _no_params),
    "chromatic_number": (_solve_chromatic, _no_params),
    "min_clique_cover": (_solve_clique_cover, _no_params),
    "feedback_vertex_set": (_solve_fvs, _no_params),
    "knc": (_solve_knc, _radius),
    "k_dominating": (_solve_k_dominating, _radius),
    "distance_k_dominating": (_solve_k_dominating, _radius),
    "total_k_dominating": (_solve_total_k_dominating, _radius),
    "two_tuple_dominating": (_solve_two_tuple_dominating, lambda name, k, targets, u, v: (
        ("k", 2 if k is None else k),)),
    "steiner_set": (_solve_steiner, lambda name, k, targets, u, v: (
        ("targets", tuple(sorted(set(_given(name, "targets", targets))))),)),
    "next_to_shortest": (_solve_next_to_shortest, lambda name, k, targets, u, v: (
        ("u", _given(name, "endpoints u and v", u)),
        ("v", _given(name, "endpoints u and v", v)))),
}


def brute_solve(g: Graph, problem: str, *, k: Optional[int] = None,
                targets: Optional[tuple[int, ...]] = None,
                u: Optional[int] = None, v: Optional[int] = None,
                max_n: int = DEFAULT_ORACLE_BOUND,
                max_n_paths: int = DEFAULT_PATH_ORACLE_BOUND) -> BruteSolution:
    """Solve one of the supported problems by exhaustive search.

    Problems: mis, mwis, max_clique, chromatic_number, min_clique_cover,
    knc(k), k_dominating(k), distance_k_dominating(k),
    total_k_dominating(k), two_tuple_dominating, steiner_set(targets),
    feedback_vertex_set, next_to_shortest(u, v).

    mis, max_clique and mwis read one numpy table over all 2**n vertex
    subsets, about 21 bytes a subset (1.4 MB at n = 16); max_n bounds it.
    The size cap is checked before the parameters.
    """
    name = problem.lower()
    if name not in _PROBLEMS:
        raise BadParams(f"unknown problem {problem!r}")
    solver, read = _PROBLEMS[name]
    _check_size(g, max_n_paths if name == "next_to_shortest" else max_n, name)
    params = read(name, k, targets, u, v)
    value, witness = solver(g, *(x for _, x in params))
    return BruteSolution(name, value, witness, params)


def maximal_independent_sets(g: Graph, *, max_n: int = DEFAULT_ORACLE_BOUND
                             ) -> list[tuple[int, ...]]:
    """Every inclusion-maximal independent set, sorted lexicographically."""
    _check_size(g, max_n, "maximal independent set enumeration")
    # maximal: independent, and every vertex lies in or next to the set
    maximal = _independent_table(g.n, g.adj_bits)
    masks = np.arange(1 << g.n, dtype=np.int64)
    for v in g.vertices():
        maximal &= masks & (g.adj_bits[v] | 1 << (v - 1)) != 0
    return sorted(_set_of(mask) for mask in np.flatnonzero(maximal).tolist())


def maximal_cliques_bruteforce(g: Graph, *, max_n: int = DEFAULT_ORACLE_BOUND
                               ) -> list[tuple[int, ...]]:
    """Every maximal clique via the complement's maximal independent sets."""
    return maximal_independent_sets(g.complement(), max_n=max_n)


def is_at_free(g: Graph, *, max_n: int = DEFAULT_ORACLE_BOUND) -> bool:
    """True when no three pairwise non-adjacent vertices form an asteroidal
    triple (each pair joined by a path avoiding the third's closed
    neighbourhood)."""
    _check_size(g, max_n, "asteroidal triple")

    def joined_avoiding(x: int, y: int, z: int) -> bool:
        banned = g.adj_bits[z] | (1 << (z - 1))
        if banned >> (x - 1) & 1 or banned >> (y - 1) & 1:
            return False
        return bool(reach(g, 1 << (x - 1), ~banned) >> (y - 1) & 1)

    for x, y, z in combinations(g.vertices(), 3):
        if g.has_edge(x, y) or g.has_edge(y, z) or g.has_edge(x, z):
            continue
        if (joined_avoiding(x, y, z) and joined_avoiding(x, z, y)
                and joined_avoiding(y, z, x)):
            return False
    return True


def is_comparability_bruteforce(g: Graph, *, max_edges: int = 24) -> bool:
    """Search for a transitive orientation of the edges."""
    if len(g.edge_array) > max_edges:
        raise InstanceTooLarge(
            f"comparability oracle capped at {max_edges} edges, got {len(g.edge_array)}")
    edges = g.sorted_edges()
    orient: dict[tuple[int, int], tuple[int, int]] = {}

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def propagate(trail: list, a: int, b: int) -> bool:
        """Record a->b plus every orientation transitivity then forces."""
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
            # a->b with b->c forces a->c; c->a with a->b forces c->b
            for c in _set_of(g.adj_bits[b]):
                if c != a and orient.get(key(b, c)) == (b, c):
                    if not g.has_edge(a, c):
                        return False
                    stack.append((a, c))
            for c in _set_of(g.adj_bits[a]):
                if c != b and orient.get(key(c, a)) == (c, a):
                    if not g.has_edge(c, b):
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


def is_interval_bruteforce(g: Graph, *, max_n: int = 9) -> bool:
    """Search for a vertex order in which every vertex's earlier
    neighbours occupy a suffix of the order built so far.

    Such an order exists exactly when the graph is an interval graph:
    indexing intervals by right endpoint gives one, and conversely the
    order directly yields a representation.
    """
    _check_size(g, max_n, "interval recognition")
    n = g.n
    order: list[int] = []
    used = [False] * (n + 1)

    def suffix_ok(x: int) -> bool:
        seen_gap = False
        for w in reversed(order):
            if g.has_edge(x, w):
                if seen_gap:
                    return False
            else:
                seen_gap = True
        return True

    def place() -> bool:
        if len(order) == n:
            return True
        for x in range(1, n + 1):
            if used[x] or not suffix_ok(x):
                continue
            used[x] = True
            order.append(x)
            if place():
                return True
            order.pop()
            used[x] = False
        return False

    return place()


def find_hole(g: Graph, min_len: int = 4) -> Optional[tuple[int, ...]]:
    """First chordless cycle with at least min_len vertices, or None.

    The search is deterministic: cycles are explored with the smallest
    vertex first and neighbours in ascending order.
    """
    adj = g.adj_bits
    for v0 in g.vertices():
        path = [v0]

        def extend(on_path: int) -> Optional[tuple[int, ...]]:
            tail = path[-1]
            interior = on_path & ~(1 << (v0 - 1)) & ~(1 << (tail - 1))
            for w in _set_of(adj[tail]):
                if w <= v0 or on_path >> (w - 1) & 1:
                    continue
                if len(path) >= 2:
                    if adj[w] >> (v0 - 1) & 1:
                        # w can only act as the closing vertex of the cycle
                        if len(path) + 1 >= min_len and not adj[w] & interior:
                            return tuple(path) + (w,)
                        continue
                    # any chord to an interior path vertex kills the branch
                    if adj[w] & interior:
                        continue
                path.append(w)
                found = extend(on_path | 1 << (w - 1))
                if found:
                    return found
                path.pop()
            return None

        found = extend(1 << (v0 - 1))
        if found:
            return found
    return None


def are_isomorphic_bruteforce(g: Graph, h: Graph, *, max_n: int = 8) -> bool:
    """Isomorphism test by permutation search."""
    _check_size(g, max_n, "isomorphism")
    _check_size(h, max_n, "isomorphism")
    if g.n != h.n or len(g.edge_array) != len(h.edge_array):
        return False
    if sorted(g.degree(v) for v in g.vertices()) != sorted(
            h.degree(v) for v in h.vertices()):
        return False
    gd = [g.degree(v) for v in g.vertices()]
    hd = [h.degree(v) for v in h.vertices()]
    for perm in permutations(range(1, g.n + 1)):
        if any(gd[v - 1] != hd[perm[v - 1] - 1] for v in g.vertices()):
            continue
        if all(h.has_edge(perm[u - 1], perm[v - 1]) for u, v in g.sorted_edges()):
            return True
    return False
