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
from .graph import Graph, bfs_apsp, bfs_distances

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


def _mask_of(vs) -> int:
    mask = 0
    for v in vs:
        mask |= 1 << (v - 1)
    return mask


def _set_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _reach(g: Graph, start_bits: int, mask: int) -> int:
    """start_bits plus every vertex of mask that a path inside mask joins to it."""
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


def _mask_connected(g: Graph, mask: int) -> bool:
    return mask == 0 or _reach(g, mask & -mask, mask) == mask


def _balls(g: Graph, k: int) -> dict[int, int]:
    """Bit v-1 of entry z is set iff v lies within distance k of z."""
    dist = bfs_apsp(g)
    cover = {}
    for z in g.vertices():
        mask = 0
        for v in g.vertices():
            d = dist[z - 1][v - 1]
            if d is not None and d <= k:
                mask |= 1 << (v - 1)
        cover[z] = mask
    return cover


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


def _heaviest_set(n: int, bits, w) -> tuple[int, tuple[int, ...]]:
    """The heaviest of the subsets no two of whose vertices meet in bits.

    w[v] is vertex v's non-negative integer weight; of equally heavy
    subsets the smallest sorted vertex tuple wins.  One table entry per
    subset of 1..n, in int64 unless the weights could overflow it.
    """
    total = np.zeros(1 << n, dtype=np.int64 if sum(w) < 2 ** 62 else object)
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        total[half:2 * half] = total[:half] + w[v]
    score = np.where(_independent_table(n, bits), total, -1)
    best = score.max()
    ties = np.flatnonzero(score == best).tolist()
    return int(best), _set_of(min(ties, key=_set_of))


def _solve_mis(g: Graph) -> tuple[object, object]:
    return _heaviest_set(g.n, g.adj_bits, [1] * (g.n + 1))


def _solve_max_clique(g: Graph) -> tuple[object, object]:
    full = (1 << g.n) - 1
    bits = [0] + [full & ~g.adj_bits[v] & ~(1 << (v - 1)) for v in g.vertices()]
    return _heaviest_set(g.n, bits, [1] * (g.n + 1))


def _solve_mwis(g: Graph) -> tuple[object, object]:
    weights = [g.weight(v) for v in g.vertices()]
    d = math.lcm(*(x.denominator for x in weights))
    scaled = [0] + [x.numerator * (d // x.denominator) for x in weights]
    best, witness = _heaviest_set(g.n, g.adj_bits, scaled)
    return Fraction(best, d), witness


def _canonical_coloring(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first proper coloring with at most k colors.

    Colors are numbered by first appearance along vertex order, which
    rules out color-permutation duplicates.
    """
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


def _solve_chromatic(g: Graph) -> tuple[object, object]:
    # no coloring has fewer colors than the clique number
    for k in range(_solve_max_clique(g)[0], g.n + 1):
        witness = _canonical_coloring(g, k)
        if witness is not None:
            return k, witness
    raise AssertionError("n colors always suffice")


def _solve_clique_cover(g: Graph) -> tuple[object, object]:
    comp = g.complement()
    k, coloring = _solve_chromatic(comp)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(coloring, start=1):
        classes.setdefault(c, []).append(v)
    parts = tuple(tuple(classes[c]) for c in sorted(classes))
    return k, parts


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


def _solve_knc(g: Graph, k: int) -> tuple[object, object]:
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


def _solve_k_dominating(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"domination radius must be >= 1, got {k}")
    if g.n == 0:
        return 0, ()
    cover = _balls(g, k)
    combo = _min_cover((1 << g.n) - 1, cover, list(g.vertices()))
    return len(combo), combo


def _solve_distance_k_dominating(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"domination radius must be >= 1, got {k}")
    if g.n == 0:
        return 0, ()
    cover = _balls(g, k)
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


def _solve_total_k_dominating(g: Graph, k: int) -> tuple[object, object]:
    if k < 1:
        raise BadParams(f"domination radius must be >= 1, got {k}")
    cover = _balls(g, k)
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


def _solve_two_tuple_dominating(g: Graph, k: int = 2) -> tuple[object, object]:
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


def _solve_steiner(g: Graph, targets: tuple[int, ...]) -> tuple[object, object]:
    tset = sorted(set(targets))
    if not tset:
        raise BadParams("steiner set needs at least one target")
    for t in tset:
        if not 1 <= t <= g.n:
            raise BadParams(f"target {t} outside 1..{g.n}")
    comp_of = {}
    for i, comp in enumerate(g.components()):
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


def _acyclic_within(g: Graph, mask: int) -> bool:
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
        seen |= _reach(g, bit, mask)
    return edge_count == len(vs) - comps


def _solve_fvs(g: Graph) -> tuple[object, object]:
    everything = (1 << g.n) - 1
    for size in range(0, g.n + 1):
        for combo in combinations(g.vertices(), size):
            if _acyclic_within(g, everything & ~_mask_of(combo)):
                return size, combo
    raise AssertionError("removing all vertices leaves a forest")


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
    """
    name = problem.lower()
    simple = {
        "mis": _solve_mis,
        "mwis": _solve_mwis,
        "max_clique": _solve_max_clique,
        "chromatic_number": _solve_chromatic,
        "min_clique_cover": _solve_clique_cover,
        "feedback_vertex_set": _solve_fvs,
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
            "knc": _solve_knc,
            "k_dominating": _solve_k_dominating,
            "distance_k_dominating": _solve_distance_k_dominating,
            "total_k_dominating": _solve_total_k_dominating,
        }[name]
        value, witness = fn(g, k)
        return BruteSolution(name, value, witness, (("k", k),))
    if name == "two_tuple_dominating":
        _check_size(g, max_n, name)
        value, witness = _solve_two_tuple_dominating(g, 2 if k is None else k)
        return BruteSolution(name, value, witness, (("k", 2 if k is None else k),))
    if name == "steiner_set":
        _check_size(g, max_n, name)
        if targets is None:
            raise BadParams("steiner_set needs targets")
        value, witness = _solve_steiner(g, tuple(targets))
        return BruteSolution(name, value, witness, (("targets", tuple(sorted(set(targets)))),))
    if name == "next_to_shortest":
        _check_size(g, max_n_paths, name)
        if u is None or v is None:
            raise BadParams("next_to_shortest needs endpoints u and v")
        value, witness = _solve_next_to_shortest(g, u, v)
        return BruteSolution(name, value, witness, (("u", u), ("v", v)))
    raise BadParams(f"unknown problem {problem!r}")


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
    everything = (1 << g.n) - 1

    def joined_avoiding(x: int, y: int, z: int) -> bool:
        banned = g.adj_bits[z] | (1 << (z - 1))
        if banned >> (x - 1) & 1 or banned >> (y - 1) & 1:
            return False
        return bool(_reach(g, 1 << (x - 1), everything & ~banned) >> (y - 1) & 1)

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
            for c in g.adj[b]:
                if c != a and orient.get(key(b, c)) == (b, c):
                    if not g.has_edge(a, c):
                        return False
                    stack.append((a, c))
            for c in g.adj[a]:
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
    for v0 in g.vertices():
        path = [v0]
        on_path = {v0}

        def extend() -> Optional[tuple[int, ...]]:
            tail = path[-1]
            for w in sorted(g.adj[tail]):
                if w <= v0 or w in on_path:
                    continue
                if len(path) >= 2:
                    if g.has_edge(w, v0):
                        # w can only act as the closing vertex of the cycle
                        if (len(path) + 1 >= min_len
                                and not any(g.has_edge(w, p) for p in path[1:-1])):
                            return tuple(path) + (w,)
                        continue
                    # any chord to an interior path vertex kills the branch
                    if any(g.has_edge(w, p) for p in path[1:-1]):
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


def are_isomorphic_bruteforce(g: Graph, h: Graph, *, max_n: int = 8) -> bool:
    """Isomorphism test by permutation search."""
    _check_size(g, max_n, "isomorphism")
    _check_size(h, max_n, "isomorphism")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degree(v) for v in g.vertices()) != sorted(
            h.degree(v) for v in h.vertices()):
        return False
    gd = [g.degree(v) for v in g.vertices()]
    hd = [h.degree(v) for v in h.vertices()]
    for perm in permutations(range(1, g.n + 1)):
        if any(gd[v - 1] != hd[perm[v - 1] - 1] for v in g.vertices()):
            continue
        if all((perm[u - 1], perm[v - 1]) in h.edges
               or (perm[v - 1], perm[u - 1]) in h.edges
               for u, v in g.edges):
            return True
    return False
