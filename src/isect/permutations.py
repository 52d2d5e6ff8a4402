"""Permutation models: crossing diagrams, point dominance, and the MIS tree.

Vertex i is a segment from position i on the upper line to the position
of i in the sequence on the lower line; two vertices are adjacent when
their segments cross.  Mapping vertex i to the plane point (i, position
of i) turns independent sets into chains that increase in both
coordinates, which drives every algorithm here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import MalformedModel, NodeBudgetExceeded, NotAPermutation
from .graph import Graph, WeightsArg, coerce_weights, lex_trim, lex_weights, pairs_graph

Point = tuple[int, int]
ORIGIN: Point = (0, 0)


@dataclass(frozen=True)
class Permutation:
    """A bijection on 1..n, stored with its inverse."""

    pi: tuple[int, ...]
    inv: tuple[int, ...]

    @staticmethod
    def build(seq: Iterable[object]) -> "Permutation":
        pi = tuple(seq)
        n = len(pi)
        if any(not isinstance(x, int) for x in pi):
            raise NotAPermutation(f"sequence entries must be integers, got {pi!r}")
        if sorted(pi) != list(range(1, n + 1)):
            raise NotAPermutation(f"{pi!r} is not a permutation of 1..{n}")
        inv = [0] * n
        for pos, v in enumerate(pi, start=1):
            inv[v - 1] = pos
        return Permutation(pi, tuple(inv))

    @property
    def n(self) -> int:
        return len(self.pi)

    def position(self, v: int) -> int:
        """The lower-line position of vertex v."""
        return self.inv[v - 1]


@dataclass(frozen=True)
class PointRep:
    """One plane point (i, position of i) per vertex, plus the origin."""

    points: tuple[Point, ...]

    @staticmethod
    def from_permutation(p: Permutation) -> "PointRep":
        return PointRep(tuple((v, p.position(v)) for v in range(1, p.n + 1)))

    @property
    def origin(self) -> Point:
        return ORIGIN

    def point(self, v: int) -> Point:
        return self.points[v - 1]


@dataclass(frozen=True)
class PointRelation:
    connected: bool
    directly_non_connected: bool


def point_relation(rep: PointRep, p: Point, q: Point) -> PointRelation:
    """How two points of the representation relate.

    Points whose coordinates agree in order are non-connected, and
    directly so when no third point chains strictly between them in both
    coordinates; otherwise the segments behind them cross.
    """
    known = set(rep.points) | {ORIGIN}
    if p not in known or q not in known:
        raise MalformedModel("relation queries need points of the representation")
    if p == q:
        raise MalformedModel("relation queries need two distinct points")
    lo, hi = sorted((p, q))
    if not (lo[0] < hi[0] and lo[1] < hi[1]):
        return PointRelation(True, False)
    direct = not any(lo[0] < r[0] < hi[0] and lo[1] < r[1] < hi[1] for r in rep.points)
    return PointRelation(False, direct)


def build_permutation_graph(p: Permutation) -> Graph:
    """Edge (i, j) iff the segments of i and j cross."""
    pos = np.array(p.inv, dtype=np.int64)
    return pairs_graph(p.n, lambda I, J: pos[I] > pos[J])


def complement_permutation(p: Permutation) -> Permutation:
    """Reverse the sequence; the new graph is the old one's complement.

    Reversal flips every lower-line position, so each pair of segments
    swaps between crossing and parallel.
    """
    return Permutation.build(tuple(reversed(p.pi)))


def _direct_children(points: Sequence[Point], base: Point) -> tuple[Point, ...]:
    # the immediate dominance successors: above and right of base with an
    # empty open box in between.  points run by increasing first coordinate,
    # so such a q is one exactly when no earlier such point lies below it;
    # the kept points fall in their second coordinate, and the last is lowest
    out: list[Point] = []
    for q in points:
        if q[0] > base[0] and q[1] > base[1] and (not out or q[1] < out[-1][1]):
            out.append(q)
    return tuple(out)


@dataclass(frozen=True)
class MISTree:
    """The chain tree of the point representation, kept in folded form.

    Children depend only on the point, so the map below describes the
    whole unfolded tree; ``node_count`` is the size that unfolded tree
    would have, which the budget bounds.
    """

    root: Point
    children: Mapping[Point, tuple[Point, ...]]
    node_count: int
    cap: int


def build_mis_tree(p: Permutation, cap: Optional[int] = None) -> MISTree:
    """Root at the origin; children are the direct dominance successors.

    Walking root to leaf visits a strictly increasing chain of points,
    so paths never repeat a vertex.  The unfolded node count can blow up
    combinatorially, hence the budget with its explicit error.
    """
    n = p.n
    if cap is None:
        cap = 10 * n * n if n else 1
    pts = (ORIGIN, *PointRep.from_permutation(p).points)  # by increasing first coordinate
    children = {q: _direct_children(pts, q) for q in pts}
    # children lie right of their parent, so right to left sees them first
    counts: dict[Point, int] = {}
    for q in reversed(pts):
        counts[q] = 1 + sum(counts[c] for c in children[q])
    total = counts[ORIGIN]
    if total > cap:
        raise NodeBudgetExceeded(f"chain tree has {total} nodes, cap is {cap}")
    return MISTree(ORIGIN, children, total, cap)


def enumerate_mis(p: Permutation, cap: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    """All maximal independent sets, one per root-to-leaf chain.

    Every leaf chain is a maximal independent set and every maximal
    independent set shows up as one; the family is deduplicated and
    sorted.
    """
    tree = build_mis_tree(p, cap)
    found: set[tuple[int, ...]] = set()
    path: list[int] = []

    def walk(node: Point) -> None:
        kids = tree.children[node]
        if not kids:
            found.add(tuple(path))
            return
        for c in kids:
            path.append(c[0])
            walk(c)
            path.pop()

    walk(ORIGIN)
    return tuple(sorted(found))


def _chain_dp(p: Permutation, w: list[int]) -> list[int]:
    # best[v - 1]: heaviest increasing chain that starts at vertex v.  Going
    # down from v = n, a Fenwick tree over reversed lower-line positions
    # holds the best[] of the vertices already passed, so the heaviest
    # chain that can follow v is one prefix max: O(n log n) in all
    n = p.n
    best = [0] * n
    tree = [0] * (n + 1)
    for v in range(n, 0, -1):
        r = n + 1 - p.position(v)
        tail = 0
        k = r - 1
        while k:
            if tree[k] > tail:
                tail = tree[k]
            k &= k - 1
        best[v - 1] = here = w[v - 1] + tail
        while r <= n:
            if here > tree[r]:
                tree[r] = here
            r += r & -r
    return best


def mwis_permutation(p: Permutation, weights: WeightsArg = None) -> tuple[int, ...]:
    """Maximum-weight independent set, lexicographically smallest witness.

    An independent set is a chain of points increasing in both
    coordinates, so the optimum is a heaviest increasing subsequence of
    the points.  On the perturbed weights of ``lex_weights`` that chain
    is unique, so walking the vertices in index order it holds exactly
    those whose best chain weighs what is left of the optimum; less its
    zero-weight tail, it is the witness.
    """
    w = coerce_weights(p.n, weights)
    lw = lex_weights(w)
    best = _chain_dp(p, lw)
    rem = max(best, default=0)
    chosen = []
    for v in range(1, p.n + 1):
        if best[v - 1] == rem:
            chosen.append(v)
            rem -= lw[v - 1]
    return lex_trim(chosen, w)


def max_clique_permutation(p: Permutation) -> tuple[int, ...]:
    """Maximum clique, lexicographically smallest witness.

    The reversed sequence's graph is the complement of this one, so the
    cliques here are the independent sets there, and a maximum clique
    is a maximum independent set of the complement permutation.
    """
    return mwis_permutation(complement_permutation(p))
