"""Trapezoid models and the equivalence web of their four representations.

A trapezoid spans two horizontal channel lines: corners a < b on top,
c < d on the bottom.  Genuine models use distinct integer corners, the
integers 1..2n on each line, indexed by increasing b.  The same
adjacency is expressed four ways: the corner test, plane segments,
dominance boxes, and a split diagram of 2n straight lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MalformedModel
from .graph import Graph, pairs_graph
from .permutations import Permutation

Item = tuple[int, int, int, int]


@dataclass(frozen=True)
class TrapezoidModel:
    """Corner four-tuples (a, b, c, d), one per vertex, indexed by b."""

    items: tuple[Item, ...]
    lines: bool = False

    @staticmethod
    def build(items: Iterable[Sequence[object]]) -> "TrapezoidModel":
        rows: list[Item] = []
        for k, it in enumerate(items, start=1):
            try:
                a, b, c, d = it
            except (TypeError, ValueError) as exc:
                raise MalformedModel(f"trapezoid {k} needs four corners: {it!r}") from exc
            if not all(isinstance(x, int) for x in (a, b, c, d)):
                raise MalformedModel(f"trapezoid {k} has non-integer corners")
            if not (a < b and c < d):
                raise MalformedModel(f"trapezoid {k} needs a < b and c < d")
            rows.append((a, b, c, d))
        n = len(rows)
        top = sorted(x for a, b, _, _ in rows for x in (a, b))
        bot = sorted(x for _, _, c, d in rows for x in (c, d))
        if top != list(range(1, 2 * n + 1)) or bot != list(range(1, 2 * n + 1)):
            raise MalformedModel("corner points must fill 1..2n on each line")
        rights = [b for _, b, _, _ in rows]
        if any(x >= y for x, y in zip(rights, rights[1:])):
            raise MalformedModel("trapezoids must be indexed by increasing b")
        return TrapezoidModel(tuple(rows), lines=False)

    @staticmethod
    def from_lines(p: Permutation) -> "TrapezoidModel":
        """Degenerate model whose trapezoids are the segments of p.

        Vertex i collapses to the single line from top position i to its
        lower-line position, so both corner pairs coincide and each
        channel line carries the coordinates 1..n.
        """
        rows = tuple((i, i, p.position(i), p.position(i))
                     for i in range(1, p.n + 1))
        return TrapezoidModel(rows, lines=True)

    @property
    def n(self) -> int:
        return len(self.items)


def trapezoids_adjacent(ti: Sequence[int], tj: Sequence[int]) -> bool:
    """Corner test: disjoint only when one trapezoid clears the other."""
    ai, bi, ci, di = ti
    aj, bj, cj, dj = tj
    if bi < aj and di < cj:
        return False
    if bj < ai and dj < ci:
        return False
    return True


def build_trapezoid_graph(m: TrapezoidModel) -> Graph:
    """The corner test of trapezoids_adjacent over every pair at once."""
    a, b, c, d = np.array(m.items, dtype=np.int64).reshape(-1, 4).T

    def clears(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (b[X] < a[Y]) & (d[X] < c[Y])

    return pairs_graph(m.n, lambda I, J: ~(clears(I, J) | clears(J, I)))


@dataclass(frozen=True)
class SegmentRep:
    """Plane segments p_i to q_i with p_i = (a_i, c_i), q_i = (b_i, d_i)."""

    segments: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def to_segment_rep(m: TrapezoidModel) -> SegmentRep:
    # a <= b and c <= d hold for every model, so the ends are in order
    return SegmentRep(tuple(((a, c), (b, d)) for a, b, c, d in m.items))


def segments_joint(si: Sequence[Sequence[int]], sj: Sequence[Sequence[int]]) -> bool:
    """Joint unless one segment sits strictly past the other's far end.

    Shifting the origin to q_i, disjoint partners live in the open first
    quadrant; shifting to p_i, in the open third quadrant.
    """
    (pi_, qi), (pj, qj) = si, sj
    if qi[0] < pj[0] and qi[1] < pj[1]:
        return False
    if qj[0] < pi_[0] and qj[1] < pi_[1]:
        return False
    return True


@dataclass(frozen=True)
class BoxRep:
    """Axis boxes with lower corner (a_i, c_i) and upper corner (b_i, d_i)."""

    boxes: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def to_box_rep(m: TrapezoidModel) -> BoxRep:
    return BoxRep(tuple(((a, c), (b, d)) for a, b, c, d in m.items))


def boxes_incomparable(bi: Sequence[Sequence[int]], bj: Sequence[Sequence[int]]) -> bool:
    """Neither box dominates the other; dominance needs the whole lower
    corner strictly past the other's upper corner."""
    (loi, upi), (loj, upj) = bi, bj
    if loi[0] > upj[0] and loi[1] > upj[1]:
        return False
    if loj[0] > upi[0] and loj[1] > upi[1]:
        return False
    return True


def to_permutation_diagram(
    m: TrapezoidModel,
) -> tuple[Permutation, tuple[tuple[int, int], ...]]:
    """Split every trapezoid into its two boundary lines.

    Lines are labeled by their top coordinate, so vertex i owns the
    lines a_i and b_i; the returned permutation carries the 2n bottom
    positions.  A degenerate lines model keeps its own permutation, with
    both labels of a vertex equal.
    """
    if m.lines:
        seq = [0] * m.n
        for i, (_, _, c, _) in enumerate(m.items, start=1):
            seq[c - 1] = i
        return Permutation.build(seq), tuple((i, i) for i in range(1, m.n + 1))
    two_n = 2 * m.n
    seq = [0] * two_n
    for a, b, c, d in m.items:
        seq[c - 1] = a
        seq[d - 1] = b
    return Permutation.build(seq), tuple((a, b) for a, b, _, _ in m.items)


def diagram_adjacent(
    q: Permutation,
    pairing: Sequence[tuple[int, int]],
    i: int,
    j: int,
) -> bool:
    """Adjacency read off the split diagram.

    Two trapezoids meet exactly when some pair of their boundary lines
    crosses, or their top intervals overlap outright; overlap covers
    nesting and the skew case where all four lines stay parallel.
    """
    u1, u2 = pairing[i - 1]
    v1, v2 = pairing[j - 1]
    for u in (u1, u2):
        for v in (v1, v2):
            if u != v and (u - v) * (q.position(u) - q.position(v)) < 0:
                return True
    return not (u2 < v1 or v2 < u1)


def check_cocomparability_order(g: Graph, order: Sequence[int]) -> bool:
    """Does the order jump no gaps: between the ends of any edge, every
    vertex must touch one of the two ends.  Read on the graph relabelled
    by order position, where the vertices between the ends p < q of an
    edge are the bits p..q - 2 of a row."""
    if sorted(order) != list(range(1, g.n + 1)):
        raise MalformedModel("the order must list every vertex once")
    rank = np.zeros(g.n + 1, dtype=np.int64)
    rank[list(order)] = np.arange(1, g.n + 1)
    h = Graph.build(g.n, rank[g.edge_array])
    adj = h.adj_bits
    return not any(((1 << (q - 1)) - (1 << p)) & ~(adj[p] | adj[q])
                   for p, q in h.sorted_edges())
