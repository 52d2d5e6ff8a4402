"""Elimination orderings, chordality, and the weighted clique graph.

Everything here works off one idea: list the vertices so that each one,
together with its neighbours among the later vertices, behaves simply.
Three flavours of "simply" are supported, each checked literally against
its defining condition on the suffix-induced subgraphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import BadParams, InstanceTooLarge, MalformedModel, NotChordal
from .graph import Graph, _mask_of, _set_of, reach
from .oracles import find_hole

PERFECT = "perfect-elimination"
STRONG = "strong-elimination"
MAX_NEIGHBOURHOOD = "maximum-neighbourhood"
KINDS = (PERFECT, STRONG, MAX_NEIGHBOURHOOD)


@dataclass(frozen=True)
class Ordering:
    """A vertex sequence together with the condition it is meant for."""

    seq: tuple[int, ...]
    kind: str

    @staticmethod
    def build(seq: Iterable[int], kind: str) -> "Ordering":
        if kind not in KINDS:
            raise BadParams(f"unknown ordering kind {kind!r}")
        return Ordering(tuple(seq), kind)

    def reverse(self) -> "Ordering":
        return Ordering(self.seq[::-1], self.kind)


def lex_bfs(g: Graph, start: int = 1) -> Ordering:
    """Lexicographic breadth-first search from start, by class refinement.

    Unvisited vertices are kept as masks of equal label, largest label first
    (Habib, McConnell, Paul & Viennot, TCS 2000), and a visit splits every
    class into its neighbours, in front, and the rest.  The next vertex is
    the smallest id of the first class: largest label, smallest id on ties.
    Reverse the visit order to obtain the candidate elimination scheme.
    """
    n = g.n
    if n and not 1 <= start <= n:
        raise BadParams(f"start vertex {start} out of range 1..{n}")
    classes = [1 << (start - 1), (1 << n) - 1 ^ 1 << (start - 1)] if n else []
    order: list[int] = []
    while classes:
        low = classes[0] & -classes[0]
        classes[0] ^= low
        order.append(low.bit_length())
        nbrs, split = g.adj_bits[order[-1]], []
        for c in classes:
            inside = c & nbrs
            if inside:
                split.append(inside)
            if c ^ inside:
                split.append(c ^ inside)
        classes = split
    return Ordering(tuple(order), PERFECT)


def _head_ok(g: Graph, kind: str, v: int, later: int, rank: Mapping[int, int]) -> bool:
    # the kind's condition on v among v and later, the mask of the vertices after it
    adj = g.adj_bits
    nbrs = adj[v] & later
    if kind == PERFECT:  # each later neighbour sees all the others
        return all(not nbrs & ~adj[w] & ~(1 << (w - 1)) for w in _set_of(nbrs))
    inside = later | 1 << (v - 1)
    hoods = [adj[w] & inside | 1 << (w - 1)
             for w in sorted(_set_of(nbrs) + (v,), key=rank.__getitem__)]
    if kind == STRONG:  # closed neighbourhoods a chain under inclusion, in rank order
        return all(not a & ~b for a, b in zip(hoods, hoods[1:]))
    # MAX_NEIGHBOURHOOD: one closed neighbourhood holds all the others
    return any(all(not a & ~b for a in hoods) for b in hoods)


def check_ordering(g: Graph, o: Ordering) -> bool:
    """Evaluate the ordering's defining condition at every vertex."""
    if sorted(o.seq) != list(range(1, g.n + 1)):
        raise MalformedModel("ordering must list every vertex exactly once")
    if o.kind not in KINDS:
        raise BadParams(f"unknown ordering kind {o.kind!r}")
    rank = {v: i for i, v in enumerate(o.seq)}
    upto = itertools.accumulate((1 << (v - 1) for v in o.seq), int.__or__)
    return all(_head_ok(g, o.kind, v, (1 << g.n) - 1 ^ done, rank)
               for v, done in zip(o.seq, upto))


def is_chordal(g: Graph) -> bool:
    """Reverse of the search order must be a perfect elimination scheme."""
    return check_ordering(g, lex_bfs(g).reverse())


def find_ordering(g: Graph, kind: str, *, max_n: int = 8) -> Optional[Ordering]:
    """Exhaustive search for an ordering passing the kind's check.

    The sequence is grown from its tail, because each condition reads
    only the suffix behind its vertex; candidates are tried in ascending
    id, so the result is deterministic.
    """
    if kind not in KINDS:
        raise BadParams(f"unknown ordering kind {kind!r}")
    if g.n > max_n:
        raise InstanceTooLarge(f"ordering search capped at n={max_n}, got n={g.n}")
    rank: dict[int, int] = {}

    def grow(later: int, pos: int) -> Optional[Ordering]:
        # the first seq[:pos + 1] that can stand in front of the mask later
        if pos < 0:
            return Ordering((), kind)
        for v in _set_of((1 << g.n) - 1 & ~later):
            rank[v] = pos
            if _head_ok(g, kind, v, later, rank):
                head = grow(later | 1 << (v - 1), pos - 1)
                if head is not None:
                    return Ordering(head.seq + (v,), kind)
        return None

    return grow(0, g.n - 1)


def maximal_cliques_chordal(g: Graph) -> list[tuple[int, ...]]:
    """Read the maximal cliques off the perfect elimination scheme.

    C(v) is v with its later neighbours, and v is its earliest vertex, so
    no two are equal.  By Gavril's rule (SIAM J. Comput. 1972) C(v) is a
    maximal clique unless some u, whose earliest later neighbour is v,
    has |C(u)| = |C(v)| + 1.
    """
    order = lex_bfs(g).reverse()
    if not check_ordering(g, order):
        raise NotChordal("graph has no perfect elimination ordering")
    rank = {v: i for i, v in enumerate(order.seq)}
    upto = itertools.accumulate((1 << (v - 1) for v in order.seq), int.__or__)
    cliques = {v: g.adj_bits[v] & ~done | 1 << (v - 1) for v, done in zip(order.seq, upto)}
    parent = {u: min(_set_of(c ^ 1 << (u - 1)), key=rank.__getitem__, default=u)
              for u, c in cliques.items()}  # the earliest later neighbour
    grown = {parent[u] for u, c in cliques.items()
             if c.bit_count() == cliques[parent[u]].bit_count() + 1}
    return sorted(_set_of(c) for v, c in cliques.items() if v not in grown)


def _is_minimal_ab_separator(g: Graph, cut: frozenset[int], a: int, b: int) -> bool:
    # cut separates a from b when their sides in G - cut are disjoint, and is
    # then minimal exactly when each cut vertex has neighbours on both sides:
    # it joins them, and one missing a side could be dropped
    out = ~_mask_of(cut)
    side_a, side_b = reach(g, 1 << (a - 1), out), reach(g, 1 << (b - 1), out)
    return not side_a & side_b and all(
        g.adj_bits[c] & side_a and g.adj_bits[c] & side_b for c in cut)


@dataclass(frozen=True)
class CliqueGraph:
    """Maximal cliques joined across shared minimal separators."""

    cliques: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    mu: Mapping[tuple[int, int], int]


def clique_graph(g: Graph, *, max_n: int = 12) -> CliqueGraph:
    """Maximal cliques i < j, numbered from 1 in sorted order, are joined when
    their intersection is a minimal a,b-separator for every a only in clique
    i and b only in clique j; mu maps each such edge to the intersection's size.

    One pair decides for all: with S the intersection, each clique less S
    is a clique outside S, so it lies in one component of G - S, and the
    test reads only those two components.  The smallest a and b are tried.
    """
    if g.n > max_n:
        raise InstanceTooLarge(f"clique graph capped at n={max_n}, got n={g.n}")
    cliques = maximal_cliques_chordal(g)
    sets = [set(c) for c in cliques]
    edges = []
    mu = {}
    for i, j in itertools.combinations(range(len(cliques)), 2):
        inter = frozenset(sets[i] & sets[j])
        if _is_minimal_ab_separator(g, inter, min(sets[i] - inter), min(sets[j] - inter)):
            edge = (i + 1, j + 1)
            edges.append(edge)
            mu[edge] = len(inter)
    return CliqueGraph(tuple(cliques), tuple(edges), mu)


def is_weakly_chordal_bruteforce(g: Graph, *, max_n: int = 10) -> bool:
    """Neither the graph nor its complement has a chordless cycle of
    five or more vertices."""
    if g.n > max_n:
        raise InstanceTooLarge(f"weak chordality capped at n={max_n}, got n={g.n}")
    if find_hole(g, min_len=5) is not None:
        return False
    return find_hole(g.complement(), min_len=5) is None
