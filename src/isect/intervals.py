"""Interval models and the algorithms that exploit their structure.

An interval model is a list of closed intervals [a_r, b_r] with exact
rational endpoints, one per vertex r in 1..n.  A strict model has all 2n
endpoints pairwise distinct and is indexed by increasing right endpoint;
the tree, distance, spanner and clique routines all lean on that order.

The graphs depend only on the order of the endpoints, so a model ranks
them to small integers once, when it is built, and every algorithm here
compares those ranks (``spans``) rather than the rationals.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    BadParams,
    DisconnectedGraph,
    EmptyGraph,
    InstanceTooLarge,
    MalformedModel,
    NotStrict,
)
from .graph import (
    Graph,
    WeightsArg,
    coerce_weights,
    lex_trim,
    lex_weights,
    pairs_graph,
    rational_pair,
)


@dataclass(frozen=True)
class IntervalModel:
    """Closed rational intervals indexed by the vertices 1..n."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    strict: bool = False

    @staticmethod
    def build(intervals: Iterable[tuple[object, object]],
              strict: bool = False) -> "IntervalModel":
        pairs: list[tuple[Fraction, Fraction]] = []
        for r, pair in enumerate(intervals, start=1):
            try:
                pairs.append(rational_pair(pair, "interval", r))
            except Exception:
                _interior(pairs)  # an earlier point is the first fault
                raise
        model = IntervalModel(tuple(pairs), strict)
        spans = model.spans  # rank the endpoints now, once, while the model is built
        # ranks keep every comparison, so the interior test reads them, not the rationals
        if any(a >= b for a, b in spans):
            _interior(pairs)
        if strict:
            # dense ranks reach 2n exactly when all 2n endpoints differ
            if max((b for _, b in spans), default=0) != 2 * model.n:
                raise NotStrict("strict models need pairwise distinct endpoints")
            if any(x[1] >= y[1] for x, y in zip(spans, spans[1:])):
                raise NotStrict("strict models are indexed by increasing right endpoint")
        return model

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """The intervals with each endpoint replaced by its rank."""
        return rank_pairs(self.intervals)

    @cached_property
    def connected(self) -> bool:
        """The intersection graph is connected: by left rank, each interval
        starts at or before the farthest right rank before it (ties meet)."""
        reach = 1  # the least endpoint, rank 1, is a left one
        for a, b in sorted(self.spans):
            if a > reach:
                return False
            reach = max(reach, b)
        return True

    @property
    def n(self) -> int:
        return len(self.intervals)

    def left(self, r: int) -> Fraction:
        return self.intervals[r - 1][0]

    def right(self, r: int) -> Fraction:
        return self.intervals[r - 1][1]


def _interior(pairs: Sequence[tuple[Fraction, Fraction]]) -> None:
    # names the first interval with no interior, if any
    for r, (a, b) in enumerate(pairs, start=1):
        if a >= b:
            raise MalformedModel(
                f"interval {r}: [{a}, {b}] has no interior; points are rejected")


def rank_pairs(pairs: Sequence[tuple[Fraction, Fraction]]) -> tuple[tuple[int, int], ...]:
    """Each endpoint's dense rank, from 1, among the distinct endpoints.

    Equal endpoints share a rank, so the ranks keep every comparison
    between endpoints, ties included.
    """
    pts = [x for pair in pairs for x in pair]
    if all(x.denominator == 1 for x in pts):
        # integers sort and hash natively, far faster than Fractions
        pts = [x.numerator for x in pts]
    rank = {x: k for k, x in enumerate(sorted(set(pts)), start=1)}
    ranked = [rank[x] for x in pts]
    return tuple(zip(ranked[::2], ranked[1::2]))


def overlaps(m: IntervalModel, i: int, j: int) -> bool:
    """Closed-interval intersection test; touching endpoints count."""
    ai, bi = m.spans[i - 1]
    aj, bj = m.spans[j - 1]
    return max(ai, aj) <= min(bi, bj)


def build_interval_graph(m: IntervalModel) -> Graph:
    """Intersection graph of the model: edge (i,j) iff the intervals meet."""
    a, b = np.array(m.spans, dtype=np.int64).reshape(-1, 2).T
    return pairs_graph(m.n, lambda I, J: (a[I] <= b[J]) & (a[J] <= b[I]))


def _events(m: IntervalModel) -> list[tuple[int, int, int]]:
    # left endpoints sort before right endpoints at equal coordinates, so
    # touching intervals are simultaneously active at the shared point
    ev = []
    for r, (a, b) in enumerate(m.spans, start=1):
        ev.append((a, 0, r))
        ev.append((b, 1, r))
    ev.sort()
    return ev


def normalize(m: IntervalModel) -> tuple[IntervalModel, tuple[int, ...]]:
    """Rewrite a model onto the endpoints 1..2n and re-index it strictly.

    Coordinate ties are broken left-endpoint-first, which keeps touching
    intervals adjacent.  Because re-indexing permutes the vertices, the
    second return value gives, for each new vertex, the original index it
    represents.  The check is one build: every edge of the strict graph,
    mapped back, meets in the input, and the edges number C(n, 2) less
    the pairs (i, j) with b_i < a_j, which are the input's non-edges.
    """
    pos = {(r, side): k for k, (_, side, r) in enumerate(_events(m), start=1)}
    order = sorted(range(1, m.n + 1), key=lambda r: pos[r, 1])
    strict = IntervalModel.build([(pos[r, 0], pos[r, 1]) for r in order], strict=True)
    back = np.array(order, dtype=np.int64) - 1  # new index -> old index, from 0
    i, j = back[build_interval_graph(strict).edge_array - 1].T
    a, b = np.array(m.spans, dtype=np.int64).reshape(-1, 2).T
    apart = np.searchsorted(np.sort(b), a, side="left").sum()
    edges_meet = ((a[i] <= b[j]) & (a[j] <= b[i])).all()
    if not edges_meet or len(i) != m.n * (m.n - 1) // 2 - apart:
        raise MalformedModel("normalization changed the intersection graph")
    return strict, tuple(order)


@dataclass(frozen=True)
class IntervalTree:
    """Rooted spanning tree of a connected strict model, parent(u) = H(u).

    H(u) and L(u) are the highest and lowest indexed vertices whose
    intervals meet u's (u itself when no neighbour is higher or lower).
    level(u) is the tree depth below the root n; the level sets partition
    1..n into blocks of consecutive integers.
    """

    n: int
    parent: Mapping[int, int]
    highest: tuple[int, ...]
    lowest: tuple[int, ...]
    level: tuple[int, ...]
    levels: tuple[frozenset[int], ...]
    height: int
    main_path: tuple[int, ...]

    @property
    def root(self) -> int:
        return self.n

    def H(self, u: int) -> int:
        return self.highest[u - 1]

    def L(self, u: int) -> int:
        return self.lowest[u - 1]

    def tree_graph(self) -> Graph:
        return Graph.build(self.n, [(u, p) for u, p in self.parent.items()])


def _parents(m: IntervalModel, what: str) -> list[int]:
    # H(u) = max{w : a_w <= b_u} at index u, index 0 unused, for a strict,
    # non-empty, connected model; the test is adjacency for w > u because
    # b increases, so H(u) = u for some u < n means nothing later meets u
    if not m.strict:
        raise NotStrict(f"{what} needs a strict model")
    if m.n == 0:
        raise EmptyGraph(f"{what} needs a non-empty model")
    a, b = np.array(m.spans, dtype=np.int64).T
    by_a = np.argsort(a)
    high = np.maximum.accumulate(by_a)[np.searchsorted(a[by_a], b, side="right") - 1] + 1
    cut = np.flatnonzero(high[:-1] == np.arange(1, len(a)))
    if cut.size:
        raise DisconnectedGraph(f"vertex {cut[0] + 1} meets no later interval")
    return [0, *high.tolist()]


def _chain_up(high: list[int], u: int) -> list[int]:
    # the parent chain from vertex u up to the root n; from 1, the main path
    chain = [u]
    while chain[-1] != len(high) - 1:
        chain.append(high[chain[-1]])
    return chain


def build_interval_tree(m: IntervalModel) -> IntervalTree:
    """Tree with parent(u) = H(u), plus levels, height and the main path."""
    high = _parents(m, "the interval tree")
    n = m.n
    a, b = np.array(m.spans, dtype=np.int64).T
    low = np.searchsorted(b, a, side="left") + 1  # L(u) = min{w : b_w >= a_u}
    parent = {u: high[u] for u in range(1, n)}
    level = [0] * (n + 1)
    for u in range(n - 1, 0, -1):
        level[u] = level[high[u]] + 1
    height = level[1]
    buckets: list[set[int]] = [set() for _ in range(height + 1)]
    for u in range(1, n + 1):
        buckets[level[u]].add(u)
    return IntervalTree(
        n=n,
        parent=parent,
        highest=tuple(high[1:]),
        lowest=tuple(low.tolist()),
        level=tuple(level[1:]),
        levels=tuple(frozenset(s) for s in buckets),
        height=height,
        main_path=tuple(_chain_up(high, 1)),
    )


def distance_query(t: IntervalTree, g: Graph, u: int, v: int) -> int:
    """Exact distance between u and v from the level structure.

    Same-level vertices are at distance 1 or 2.  Otherwise the lower
    indexed vertex is the deeper one; it climbs its parent chain to the
    vertex z1 one level below the target's level, and the answer is the
    climb length plus 1, 2 or 3 according to whether z1, its parent, or
    neither is adjacent to the target.
    """
    if not (1 <= u <= t.n and 1 <= v <= t.n):
        raise MalformedModel(f"vertices {u}, {v} outside 1..{t.n}")
    if u == v:
        return 0
    if u > v:
        u, v = v, u
    if g.has_edge(u, v):
        return 1
    lu, lv = t.level[u - 1], t.level[v - 1]
    if lu == lv:
        return 2
    z1 = u
    while t.level[z1 - 1] > lv + 1:
        z1 = t.highest[z1 - 1]
    climbed = lu - lv - 1
    if g.has_edge(z1, v):
        return climbed + 1
    z2 = t.highest[z1 - 1]
    if g.has_edge(z2, v):
        return climbed + 2
    return climbed + 3


def apsp_interval(m: IntervalModel) -> list[list[int]]:
    """All-pairs distances of a connected strict model in O(n²) work.

    For u < v, d(u, v) = 1 when a_v <= b_u, and otherwise
    d(u, v) = 1 + d(H(u), v): a shortest path may leave u through H(u).
    Rows are filled from u = n - 1 down, each with its mirror column, so
    d(H(u), v) is ready: in row H(u) when H(u) < v, and when H(u) > v in
    row v, since then H(u) meets v by the umbrella property.
    """
    high = _parents(m, "the distance recurrence")
    n = m.n
    a, b = np.array(m.spans, dtype=np.int64).T
    out = np.zeros((n, n), dtype=np.int64)
    for u in range(n - 1, 0, -1):  # row u - 1 holds d(u, v) for v > u at v - 1
        out[u - 1, u:] = out[u:, u - 1] = np.where(
            a[u:] <= b[u - 1], 1, out[high[u] - 1, u:] + 1)
    return out.tolist()


def diameter_and_center(m: IntervalModel) -> tuple[int, frozenset[int]]:
    """Diameter by the level rule, center by eccentricity scan.

    The diameter is the tree height h unless some deepest-but-one level
    vertex misses the main-path vertex at level 1, in which case it is
    h + 1.
    """
    t = build_interval_tree(m)
    if t.n == 1:
        return 0, frozenset({1})
    w1 = t.main_path[-2]
    tight = all(v == w1 or overlaps(m, v, w1) for v in t.levels[1])
    diam = t.height if tight else t.height + 1
    dist = apsp_interval(m)
    ecc = [max(row) for row in dist]
    radius = min(ecc)
    center = frozenset(i + 1 for i, e in enumerate(ecc) if e == radius)
    return diam, center


@dataclass(frozen=True)
class SpannerTree:
    """Spanning tree with stretch at most 3 and its per-level anchors.

    main_vertices[l] is the main-path vertex at level l; every other
    vertex hangs directly off the anchor just above it.
    """

    tree: Graph
    stretch: Fraction
    main_vertices: tuple[int, ...]


def tree_3_spanner(m: IntervalModel) -> SpannerTree:
    """Spanning tree whose distances stretch the graph's by at most 3.

    Main-path vertices keep their chain edges; a vertex strictly between
    consecutive main-path vertices is reparented onto the higher of the
    two, an edge the chain edge above it guarantees to exist.
    """
    n = m.n
    path = np.array(_chain_up(_parents(m, "the 3-spanner"), 1), dtype=np.int64)
    others = np.delete(np.arange(1, n + 1), path - 1)
    edges = np.concatenate([np.stack([path[:-1], path[1:]], axis=1),
                            np.stack([others, path[np.searchsorted(path, others)]], axis=1)])
    return SpannerTree(
        tree=Graph.build(n, edges),
        stretch=Fraction(3),
        main_vertices=tuple(reversed(path.tolist())),
    )


def greedy_color(m: IntervalModel) -> dict[int, int]:
    """Proper coloring by a left-to-right sweep with the lowest free color.

    Colors are 1-based.  The number used equals the deepest point
    overlap, which is also the largest clique size, so the count is
    optimal.
    """
    color: dict[int, int] = {}
    free: list[int] = []
    next_color = 1
    for _, side, r in _events(m):
        if side == 0:
            if free:
                color[r] = heapq.heappop(free)
            else:
                color[r] = next_color
                next_color += 1
        else:
            heapq.heappush(free, color[r])
    return color


def mwis_interval(m: IntervalModel, weights: WeightsArg = None) -> tuple[int, ...]:
    """Maximum-weight independent set, lexicographically smallest witness.

    Weights default to 1 and must be non-negative rationals.  One DP
    over the intervals by right endpoint, on the perturbed weights of
    ``lex_weights``, has a single optimum; its back-trace, less the
    zero-weight tail, is the witness.  O(n log n) comparisons.
    """
    w = coerce_weights(m.n, weights)
    lw = lex_weights(w)
    spans = m.spans
    order = sorted(range(m.n), key=lambda i: spans[i][1])
    rights = [spans[i][1] for i in order]
    # before[k]: the intervals ahead of order[k] that end strictly left of it
    before = [bisect_left(rights, spans[i][0]) for i in order]
    best = [0] * (m.n + 1)
    for k, i in enumerate(order):
        best[k + 1] = max(best[k], best[before[k]] + lw[i])
    chosen = []
    k = m.n
    while k:
        if best[k] == best[k - 1]:
            k -= 1
        else:
            chosen.append(order[k - 1] + 1)
            k = before[k - 1]
    return lex_trim(sorted(chosen), w)


def maximal_cliques_interval(m: IntervalModel) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of a strict model, left to right.

    The active set is snapshotted whenever it is about to shrink right
    after having grown; scanning by coordinate makes each vertex's
    cliques consecutive in the returned order and caps the count at n.
    """
    if not m.strict:
        raise NotStrict("the clique sweep needs pairwise distinct endpoints")
    active: set[int] = set()
    grew = False
    out: list[tuple[int, ...]] = []
    for _, side, r in _events(m):
        if side == 0:
            active.add(r)
            grew = True
        else:
            if grew:
                out.append(tuple(sorted(active)))
            active.discard(r)
            grew = False
    return tuple(out)


def has_consecutive_ones(matrix: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Row order making every column's 1s contiguous, or None.

    Rows are indexed 0-based in the witness.  The search tries all row
    permutations in lexicographic order, so inputs are capped at 8 rows.
    """
    rows = [tuple(row) for row in matrix]
    if len(rows) > 8:
        raise InstanceTooLarge(f"{len(rows)} rows; the permutation search caps at 8")
    if not rows:
        return ()
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise BadParams("matrix rows have unequal lengths")
        if any(x not in (0, 1) for x in row):
            raise BadParams("matrix entries must be 0 or 1")
    cols = [[i for i, row in enumerate(rows) if row[c]] for c in range(width)]
    for perm in permutations(range(len(rows))):
        pos = {r: k for k, r in enumerate(perm)}
        # each column's 1s sit on len(ones) consecutive rows
        if all(max(pos[r] for r in ones) - min(pos[r] for r in ones) + 1 == len(ones)
               for ones in cols if ones):
            return perm
    return None
