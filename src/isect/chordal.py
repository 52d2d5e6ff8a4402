"""Elimination orderings, chordality, and the weighted clique graph.

Everything here works off one idea: list the vertices so that each one,
together with its neighbours among the later vertices, behaves simply.
Three flavours of "simply" are supported, each checked literally against
its defining condition on the suffix-induced subgraphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BadParams, InstanceTooLarge, MalformedModel, NotChordal
from .graph import Graph, _mask_of, reach
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
    """Lexicographic breadth-first search from start.

    Labels collect the visit times of earlier neighbours; the next
    vertex is the unvisited one with the largest label, smallest id on
    ties.  The visit order is returned; reverse it to obtain the
    candidate elimination scheme.
    """
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


def _validated(g: Graph, o: Ordering) -> tuple[int, ...]:
    if sorted(o.seq) != list(range(1, g.n + 1)):
        raise MalformedModel("ordering must list every vertex exactly once")
    return o.seq


def _head_ok(g: Graph, kind: str, suffix: Sequence[int]) -> bool:
    # the kind's condition on the head suffix[0], read in the subgraph
    # the suffix induces; members keep their order along the suffix
    vi = suffix[0]
    members = [w for w in suffix if w == vi or w in g.adj[vi]]
    if kind == PERFECT:
        return all(g.has_edge(a, b)
                   for a, b in itertools.combinations(members[1:], 2))
    sset = set(suffix)

    def closed(v: int) -> set[int]:
        return {v} | (g.adj[v] & sset)

    if kind == STRONG:
        return all(closed(vj) <= closed(vk)
                   for vj, vk in itertools.combinations(members, 2))
    if kind == MAX_NEIGHBOURHOOD:
        hoods = {w: closed(w) for w in members}
        return any(all(hoods[w] <= hoods[u] for w in members) for u in members)
    raise BadParams(f"unknown ordering kind {kind!r}")


def check_ordering(g: Graph, o: Ordering) -> bool:
    """Evaluate the ordering's defining condition on every suffix."""
    seq = _validated(g, o)
    return all(_head_ok(g, o.kind, seq[i:]) for i in range(g.n))


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

    def grow(suffix: tuple[int, ...], left: frozenset[int]) -> Optional[tuple[int, ...]]:
        if not left:
            return suffix
        for v in sorted(left):
            cand = (v,) + suffix
            if _head_ok(g, kind, cand):
                full = grow(cand, left - {v})
                if full is not None:
                    return full
        return None

    found = grow((), frozenset(g.vertices()))
    if found is None:
        return None
    return Ordering(found, kind)


def maximal_cliques_chordal(g: Graph) -> list[tuple[int, ...]]:
    """Harvest each vertex with its later neighbours along the scheme."""
    order = lex_bfs(g).reverse()
    if not check_ordering(g, order):
        raise NotChordal("graph has no perfect elimination ordering")
    seq = order.seq
    candidates = []
    for i, v in enumerate(seq):
        later = set(seq[i + 1:])
        candidates.append(frozenset({v} | (g.adj[v] & later)))
    keep = [c for c in candidates
            if not any(c < other for other in candidates)]
    return sorted(set(tuple(sorted(c)) for c in keep))


def _separates(g: Graph, cut: frozenset[int], a: int, b: int) -> bool:
    """No path from a to b avoids cut; a and b are distinct and outside cut."""
    return not reach(g, 1 << (a - 1), ~_mask_of(cut)) >> (b - 1) & 1


def _is_minimal_ab_separator(g: Graph, cut: frozenset[int], a: int, b: int) -> bool:
    if g.has_edge(a, b) or not _separates(g, cut, a, b):
        return False
    for size in range(len(cut)):
        for sub in itertools.combinations(sorted(cut), size):
            if _separates(g, frozenset(sub), a, b):
                return False
    return True


@dataclass(frozen=True)
class CliqueGraph:
    """Maximal cliques joined across shared minimal separators."""

    cliques: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    mu: Mapping[tuple[int, int], int]


def clique_graph(g: Graph, *, max_n: int = 12) -> CliqueGraph:
    if g.n > max_n:
        raise InstanceTooLarge(f"clique graph capped at n={max_n}, got n={g.n}")
    cliques = maximal_cliques_chordal(g)
    sets = [set(c) for c in cliques]
    edges = []
    mu = {}
    for i, j in itertools.combinations(range(len(cliques)), 2):
        inter = frozenset(sets[i] & sets[j])
        if all(_is_minimal_ab_separator(g, inter, a, b)
               for a in sorted(sets[i] - sets[j])
               for b in sorted(sets[j] - sets[i])):
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
