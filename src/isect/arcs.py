"""Circular-arc models and the algorithms that exploit their geometry.

An arc is a pair (h, t) of rational circle positions; the arc runs
clockwise from its head h to its tail t, wrapping past the largest
coordinate when h > t.  All 2n endpoints of a model are pairwise
distinct, so containment tests never need to break ties.

A canonical model has endpoints that are exactly the integers 1..2n,
with arc 1 starting at position 1 and heads increasing with the index.
Any valid model can be rewritten into canonical form without changing
its intersection graph, because only the cyclic order of the endpoints
matters.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadParams,
    DisconnectedGraph,
    EmptyGraph,
    InfeasibleProblem,
    MalformedModel,
    SharedEndpoint,
)
from .graph import (Graph, WeightsArg, coerce_weights, lex_trim, lex_weights, pairs_graph,
                    rational, rational_pair)
from .intervals import IntervalModel, mwis_interval, rank_pairs

ArcPair = tuple[Fraction, Fraction]
Span = tuple[int, int]


@dataclass(frozen=True)
class ArcModel:
    """A family of circular arcs with pairwise distinct endpoints."""

    arcs: tuple[ArcPair, ...]

    @staticmethod
    def build(arcs: Iterable[tuple[object, object]]) -> "ArcModel":
        pairs: list[ArcPair] = []
        for k, arc in enumerate(arcs, start=1):
            try:
                pairs.append(rational_pair(arc, "arc", k))
            except Exception:
                _coinciding(pairs)  # an earlier arc's fault comes first
                raise
        model = ArcModel(tuple(pairs))
        # rank the endpoints now, once: the 2n dense ranks are distinct
        # exactly when the largest is 2n, and only when they are not are
        # the rationals compared, to name the first fault
        if max(map(max, model.spans), default=0) != 2 * model.n:
            _coinciding(pairs)
            seen: dict[Fraction, int] = {}
            for k, (h, t) in enumerate(pairs, start=1):
                for x in (h, t):
                    if x in seen:
                        raise SharedEndpoint(
                            f"arcs {seen[x]} and {k} share the endpoint {x}")
                    seen[x] = k
        return model

    @property
    def n(self) -> int:
        return len(self.arcs)

    def head(self, r: int) -> Fraction:
        return self.arcs[r - 1][0]

    def tail(self, r: int) -> Fraction:
        return self.arcs[r - 1][1]

    @cached_property
    def spans(self) -> tuple[Span, ...]:
        """The arcs with each endpoint replaced by its rank in 1..2n."""
        return rank_pairs(self.arcs)

    @cached_property
    def canonical(self) -> bool:
        """Endpoints are their own ranks and the heads increase from 1."""
        heads = [h for h, _ in self.spans]
        return (self.arcs == self.spans and heads[:1] in ([], [1])
                and all(x < y for x, y in zip(heads, heads[1:])))

    @cached_property
    def covers_circle(self) -> bool:
        """Every point of the circle lies on some arc."""
        return self.n > 0 and _uncovered_gap(self.spans) is None

    @cached_property
    def connected(self) -> bool:
        """The intersection graph is connected: at most one gap is uncovered.
        Every endpoint lies on its own arc, so no two open gaps are adjacent,
        and k >= 2 of them cut the union into k non-empty pieces."""
        if self.n <= 1:
            return True
        return bool(np.count_nonzero(_reach_table(self.spans)[1:2 * self.n + 1] == 0) <= 1)


def _coinciding(pairs: Sequence[ArcPair]) -> None:
    # names the first arc whose head is its tail, if any
    for k, (h, t) in enumerate(pairs, start=1):
        if h == t:
            raise SharedEndpoint(f"arc {k} has coinciding endpoints")


def _reach_table(spans: Sequence[Span]) -> np.ndarray:
    # cw[p] for p in 0..4n over the doubled circle: the farthest unrolled
    # tail among the arcs covering the gap just past p, or 0 when none
    # does; arc copies one turn back and on are laid at heads 0 and +2n
    two_n = 2 * len(spans)
    heads, tails = np.array(spans).T
    ends = np.where(tails > heads, tails, tails + two_n)
    far = np.zeros(2 * two_n + 1, dtype=np.int64)
    far[0] = max(ends.max() - two_n, 0)
    far[heads] = ends
    far[heads + two_n] = ends + two_n
    far = np.maximum.accumulate(far)
    return np.where(far > np.arange(2 * two_n + 1), far, 0)


def _uncovered_gap(spans: Sequence[Span]) -> Optional[int]:
    # the rank p of the first endpoint whose following gap no arc covers
    open_at = np.flatnonzero(_reach_table(spans)[1:2 * len(spans) + 1] == 0)
    return int(open_at[0]) + 1 if open_at.size else None


def _inside(arc: tuple, p: object) -> bool:
    # p strictly inside the clockwise walk from the head to the tail
    h, t = arc
    if h < t:
        return h < p < t
    return p > h or p < t


def _meet(a: tuple, b: tuple) -> bool:
    return _inside(a, b[0]) or _inside(a, b[1]) or _inside(b, a[0]) or _inside(b, a[1])


def arc_contains_point(arc: tuple[object, object], p: object) -> bool:
    """True when the point p lies strictly inside the arc.

    pre: p differs from both endpoints of the arc.
    """
    return _inside(rational_pair(arc, "arc", 1), rational(p, "point"))


def arcs_intersect(a: tuple[object, object], b: tuple[object, object]) -> bool:
    """True when two arcs with all-distinct endpoints share a point."""
    return _meet(rational_pair(a, "arc", 1), rational_pair(b, "arc", 2))


def build_circular_arc_graph(m: ArcModel) -> Graph:
    """Intersection graph of the arcs, vertex r for arc r.

    With all endpoints distinct, two arcs meet exactly when one holds the
    other's head: walking back from a shared point, the first head reached
    lies inside the other arc.
    """
    h, t = np.array(m.spans, dtype=np.int64).reshape(-1, 2).T

    def holds(X: np.ndarray, P: np.ndarray) -> np.ndarray:
        # the head of arc P strictly inside arc X, as in _inside
        hx, tx, p = h[X], t[X], h[P]
        return ((hx < p) & (p < tx)) | ((tx < hx) & ((hx < p) | (p < tx)))

    return pairs_graph(m.n, lambda I, J: holds(I, J) | holds(J, I))


def canonicalize(
    arcs: Union[ArcModel, Iterable[tuple[object, object]]],
) -> tuple[ArcModel, tuple[int, ...]]:
    """Rewrite a model onto the endpoints 1..2n, heads increasing.

    Returns the canonical model and ``order`` with ``order[k - 1]`` the
    input arc that became arc k.  Ranking the endpoints and rotating the
    circle preserve cyclic order, hence the intersection graph.
    """
    m0 = arcs if isinstance(arcs, ArcModel) else ArcModel.build(arcs)
    if m0.n == 0:
        return m0, ()
    two_n = 2 * m0.n
    base = min(h for h, _ in m0.spans)
    rotated = [((h - base) % two_n + 1, (t - base) % two_n + 1) for h, t in m0.spans]
    order = sorted(range(1, m0.n + 1), key=lambda j: rotated[j - 1][0])
    return ArcModel.build([rotated[j - 1] for j in order]), tuple(order)


@dataclass(frozen=True)
class CutSplit:
    """Arc ids on either side of a cut placed just past ``cut_point``."""

    cut_point: int
    backward: frozenset[int]
    forward: frozenset[int]


def split_at_cut(m: ArcModel) -> CutSplit:
    """Split a canonical model at the tail of its last arc.

    The backward side holds every arc whose closed span contains that
    tail; those arcs pairwise overlap there, so the backward side is a
    clique.  Forward arcs avoid the whole gap just past the cut point,
    so they straighten into intervals without losing adjacencies.
    """
    if not m.canonical:
        raise MalformedModel("cut splits need a canonical model")
    if m.n == 0:
        raise EmptyGraph("cannot split an empty model")
    cut = m.spans[-1][1]
    # endpoints are distinct, so the cut is an endpoint of arc n alone
    back = frozenset(r for r in range(1, m.n + 1)
                     if r == m.n or _inside(m.spans[r - 1], cut))
    fwd = frozenset(range(1, m.n + 1)) - back
    return CutSplit(cut, back, fwd)


def delete_closed_neighborhood(
    m: ArcModel, i: int,
) -> tuple[IntervalModel, tuple[int, ...]]:
    """Remove arc i and everything it intersects; straighten the rest.

    The survivors avoid the span of arc i entirely, so cutting the
    circle at the head of arc i turns them into intervals with the same
    pairwise intersections.  Returns the interval model and the original
    arc id of each of its vertices, in increasing id order.
    """
    if not 1 <= i <= m.n:
        raise MalformedModel(f"arc {i} is out of range")
    spans = m.spans
    target = spans[i - 1]
    survivors = [r for r in range(1, m.n + 1)
                 if r != i and not _meet(target, spans[r - 1])]
    two_n = 2 * m.n
    h0 = target[0]
    pairs = [((spans[r - 1][0] - h0) % two_n, (spans[r - 1][1] - h0) % two_n)
             for r in survivors]
    return IntervalModel.build(pairs), tuple(survivors)


def _straighten(m: ArcModel, cut: int) -> list[Span]:
    # unroll the circle at a seam just past the endpoint ranked cut; arcs
    # that cross the seam keep their exit position but extend left of it
    two_n = 2 * m.n
    out: list[Span] = []
    for h, t in m.spans:
        lh = (h - cut - 1) % two_n + 1
        lt = (t - cut - 1) % two_n + 1
        out.append((lh, lt) if lh < lt else (lh - two_n, lt))
    return out


def straighten_at_gap(m: ArcModel) -> IntervalModel:
    """Intervals with the same graph as a model that misses some gap.

    Cutting inside an uncovered gap crosses no arc, so vertex r of the
    result is arc r and every adjacency is preserved exactly.
    """
    if m.n == 0:
        return IntervalModel.build([])
    cut = _uncovered_gap(m.spans)
    if cut is None:
        raise InfeasibleProblem("every gap of the circle is covered")
    return IntervalModel.build(_straighten(m, cut))


def arcs_to_intervals_with_sentinel(m: ArcModel) -> IntervalModel:
    """Unroll a canonical model at its standard cut, plus one sentinel.

    Vertex r <= n is arc r; arcs crossing the seam just past the last
    tail become intervals reaching left of the origin.  Vertex n + 1 is
    a sentinel interval that ends at the origin, placed so it meets
    exactly the seam-crossing intervals.
    """
    if not m.canonical:
        raise MalformedModel("the sentinel transfer needs a canonical model")
    if m.n == 0:
        raise EmptyGraph("cannot transfer an empty model")
    pairs = _straighten(m, m.spans[-1][1])
    sentinel = (pairs[-1][0] - 2 * m.n, 0)
    return IntervalModel.build(pairs + [sentinel])


def mwis_circular_arc(m: ArcModel, weights: WeightsArg = None) -> tuple[int, ...]:
    """Maximum-weight independent set, lexicographically smallest witness.

    Straighten at the gap the fewest arcs cover.  The arcs crossing the
    cut pairwise meet, so an independent set is forward arcs alone, or
    one crossing arc i and forward arcs in its gap: i meets none of
    those.  Forward arcs alone are one interval solve.  Crossing arc i,
    straightened to [a, b], leaves the forward arcs that start past b and
    end before a + 2n: with the forward arcs sorted by right end, a
    prefix of them, masked by their left ends.  One pass of the interval
    DP over that prefix, skipping the arcs the mask drops, solves case i
    on the global ``lex_weights``: the best total over the masked arcs
    ending left of arc k is already at hand when k is reached.  So the
    sort and each arc's predecessor count are shared, and the whole
    solve is O(n log n + n·c) for c crossing arcs.

    The cases hold every independent set and no other, and each returns
    its lexicographically smallest optimum, with no zero-weight tail.  So
    no equally heavy case optimum is a prefix of another, and the one
    with the largest total under the global ``lex_weights`` is also the
    smallest tuple.
    """
    if m.n == 0:
        return ()
    w = coerce_weights(m.n, weights)
    lw = lex_weights(w)
    heads, tails = np.array(m.spans).T
    delta = np.zeros(2 * m.n + 1, dtype=np.int64)
    delta[heads], delta[tails] = 1, -1
    # the count of arcs over the gap past each rank, less the wrapping ones
    cut = int(np.argmin(np.cumsum(delta)[1:])) + 1
    pairs = _straighten(m, cut)
    fwd = [r for r in range(1, m.n + 1) if pairs[r - 1][0] >= 1]
    pick = mwis_interval(IntervalModel.build([pairs[r - 1] for r in fwd]),
                         [w[r - 1] for r in fwd])
    found = [tuple(fwd[k - 1] for k in pick)]
    # the forward arcs by right end; before[k]: how many end left of the k-th
    order = sorted(fwd, key=lambda r: pairs[r - 1][1])
    left = [pairs[r - 1][0] for r in order]
    right = [pairs[r - 1][1] for r in order]
    before = [bisect_left(right, x) for x in left]
    lwo = [lw[r - 1] for r in order]
    for i, (a, b) in enumerate(pairs, start=1):
        if a >= 1:
            continue
        best = [0]
        for x, j, y in zip(left[:bisect_left(right, a + 2 * m.n)], before, lwo):
            best.append(max(best[-1], best[j] + y) if x > b else best[-1])
        chosen, k = [i], len(best) - 1
        while k:
            if best[k] == best[k - 1]:
                k -= 1
            else:
                chosen.append(order[k - 1])
                k = before[k - 1]
        found.append(lex_trim(sorted(chosen), w))
    return max(found, key=lambda chosen: sum(lw[v - 1] for v in chosen))


def _hops(spans: Sequence[Span]) -> np.ndarray:
    # entry (s, v): 0 on the diagonal, 1 when v meets s, else 1 + the number
    # of clockwise ends of the reach around s laid before the head of v, or
    # n + 1 when the reach never passes it
    n, two_n = len(spans), 2 * len(spans)
    cw = _reach_table(spans)
    heads, tails = np.array(spans, dtype=np.int32).T
    span = (tails - heads) % two_n
    # all sources step their chains of ends at once, each end marked at its
    # distance clockwise from the head; at h + 2n the whole gap is swept
    seen = np.zeros((n, two_n + 2), dtype=np.int32)
    rows, total = np.arange(n), np.zeros(n, dtype=np.int32)
    end, last = heads + span, heads
    while (moved := end != last).any():
        seen[rows, end - heads] = 1
        total += moved
        end, last = np.minimum(np.maximum(cw[end], end), heads + two_n), end
    # just past the last end the count is lifted to n: the reach never
    # passes a head beyond it
    seen[rows, last - heads + 1] = n - total
    np.cumsum(seen, axis=1, out=seen)
    rel_h = heads - heads[:, None]
    rel_h += two_n * (rel_h < 0)  # (h_v - h_s) mod 2n
    # no end lies on a head, so seen[s, rel_h] ends come before v's head:
    # none when v's head lies in s; v also meets s when it runs over h_s
    out = np.take_along_axis(seen, rel_h, axis=1)
    out += 1
    rel_h += span
    out[rel_h >= two_n] = 1
    np.fill_diagonal(out, 0)
    return out


def apsp_circular_arc(m: ArcModel) -> list[list[int]]:
    """All-pairs distances of a connected arc intersection graph.

    Reach chains on the ranked endpoints: the arcs within k hops of arc
    s cover one circular interval, and a hop moves its clockwise end to
    the farthest tail among the arcs covering just past it, and its
    counter-clockwise end likewise by heads; a table over the doubled
    circle makes each hop O(1).  An arc v missing s lies in the gap past
    s, so d(s, v) is 1 plus the first hop at which either end passes the
    near endpoint of v, the count of that end's positions before it.  All
    chains step in lockstep, at most n + 1 steps of O(n), and one running
    count per row reads the counts off: O(n²) time and memory.  Raises
    EmptyGraph for no arcs, and DisconnectedGraph, before any table is
    built, when the model is not connected.
    """
    if m.n == 0:
        raise EmptyGraph("no distances in an empty model")
    if not m.connected:
        raise DisconnectedGraph("distances need a connected model")
    # the counter-clockwise chains are the clockwise ones of the mirror
    mirror = [(2 * m.n + 1 - t, 2 * m.n + 1 - h) for h, t in m.spans]
    return np.minimum(_hops(m.spans), _hops(mirror)).tolist()


def is_proper(m: ArcModel) -> bool:
    """True when no arc's span properly contains another arc's span.

    That holds exactly when the tails come in the cyclic order of the
    heads: sorted by head h, the tails unrolled past their heads,
    e = h + (t - h) mod 2n, strictly increase, and the last stays below
    e_first + 2n, the first arc's tail one turn on.
    """
    if m.n <= 1:
        return True
    h, t = np.array(m.spans, dtype=np.int64).T
    e = (h + (t - h) % (2 * m.n))[np.argsort(h)]
    return bool((e[1:] > e[:-1]).all() and e[-1] < e[0] + 2 * m.n)


@dataclass(frozen=True)
class CIParams:
    """Parameters of the evenly spaced two-family arc construction.

    The circle is scaled so the 2n head positions sit at the integers
    0..2n-1; ``eps`` is the tail offset measured in those lattice steps.
    Offsets of 1/2 or more make endpoints collide or nest one family
    inside the other, so the open interval (0, 1/2) is the whole domain.
    """

    n: int
    k: int
    eps: Fraction

    @staticmethod
    def build(n: int, k: int, eps: object) -> "CIParams":
        if not isinstance(n, int) or not isinstance(k, int):
            raise BadParams("n and k must be integers")
        if not n > k >= 1:
            raise BadParams(f"need n > k >= 1, got n={n}, k={k}")
        try:
            e = Fraction(eps)
        except (TypeError, ValueError) as exc:
            raise BadParams("eps must be rational") from exc
        if not 0 < e < Fraction(1, 2):
            raise BadParams(f"eps must lie strictly between 0 and 1/2, got {e}")
        return CIParams(n, k, e)


def _ci_raw(p: CIParams) -> list[ArcPair]:
    two_n = 2 * p.n
    arcs: list[ArcPair] = []
    for i in range(p.n):
        arcs.append((Fraction(2 * i), (2 * (i + p.k) + p.eps) % two_n))
    for i in range(p.n):
        arcs.append((Fraction(2 * i + 1), (2 * (i + p.k) + 1 - p.eps) % two_n))
    return arcs


def generate_ci(p: CIParams) -> ArcModel:
    """Canonical model of 2n arcs in two evenly rotated families.

    Family one runs from each even position across k vertex spacings
    plus the offset; family two starts half a spacing later and stops
    the offset short.  With the offset below half a lattice step the
    model is proper.
    """
    model, _ = canonicalize(_ci_raw(p))
    return model
