"""Further model families: dotted intervals, tolerance representations,
chords of a circle, disk points, boxes, and the line-graph operator.

Arithmetic is exact throughout: progressions meet via modular reasoning,
disk adjacency compares squared rational distances, and infinite
tolerance is the symbolic math.inf, never a large stand-in number.
The dotted, disk and tolerance builders compare integers: the rationals
times their common denominator, as int64 when every one is below 2**30
in absolute value, so no product they form overflows, and as Python
integers in object arrays otherwise.  No float is ever involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    EmptyGraph,
    MalformedModel,
    SharedEndpoint,
    SizeBudgetExceeded,
)
from .graph import Graph, common_denominator, pairs_graph, rational, rational_pair
from .intervals import rank_pairs

INFINITE_TOLERANCE = math.inf


# scaled values below this in absolute value are int64: a sum of two
# squared differences, or a product of two jumps, stays below 2**63
_SMALL = 1 << 30


def _integers(xs: Sequence[Fraction]) -> np.ndarray:
    # the rationals (or ints) times their common denominator
    den = common_denominator(xs)
    vals = [x.numerator * (den // x.denominator) for x in xs]
    small = -_SMALL < min(vals, default=0) and max(vals, default=0) < _SMALL
    return np.array(vals, dtype=np.int64 if small else object)


@dataclass(frozen=True)
class DottedInterval:
    """The arithmetic progression s, s+d, ..., t."""

    s: int
    t: int
    d: int

    @staticmethod
    def build(s: int, t: int, d: int) -> "DottedInterval":
        if not all(isinstance(x, int) for x in (s, t, d)):
            raise MalformedModel("dotted interval needs integer s, t, d")
        if s < 1 or t < 1 or d < 1:
            raise MalformedModel("dotted interval needs positive s, t, d")
        if s > t:
            raise MalformedModel(f"start {s} exceeds end {t}")
        if (t - s) % d:
            raise MalformedModel(f"end {t} is not on the jump grid of {s} mod {d}")
        return DottedInterval(s, t, d)

    def points(self) -> range:
        return range(self.s, self.t + 1, self.d)


def dotted_intersect(x: DottedInterval, y: DottedInterval) -> bool:
    """Do the two progressions share an integer?

    Solved as a congruence system: a common value needs the starts to
    agree modulo gcd of the jumps, and the smallest aligned value must
    fall before both ends.
    """
    lo = max(x.s, y.s)
    hi = min(x.t, y.t)
    if lo > hi:
        return False
    g = math.gcd(x.d, y.d)
    if (y.s - x.s) % g:
        return False
    step = x.d // g * y.d
    # one simultaneous solution, then the first of them at or past lo
    k = (y.s - x.s) // g * pow(x.d // g, -1, y.d // g) % (y.d // g)
    z = x.s + k * x.d
    z += -((z - lo) // step) * step
    return z <= hi


def _bezout(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # g = gcd(a, b) and x with a*x = g mod b, elementwise for positive a, b:
    # extended Euclid on every lane at once, a lane held once its remainder is 0
    g, r = np.broadcast_arrays(a, b)
    x, y = np.ones_like(g), np.zeros_like(g)
    while np.any(r):
        live = r != 0
        q = g // np.where(live, r, 1)
        g, r = np.where(live, r, g), np.where(live, g - q * r, r)
        x, y = np.where(live, y, x), np.where(live, x - q * y, y)
    return g, x


def build_ddig(items: Sequence[DottedInterval]) -> tuple[Graph, int]:
    """Edge iff the progressions share an integer, with the largest jump.

    ``dotted_intersect``'s congruence test over blocks of pairs, each
    block running one extended Euclid on its pairs of jumps.  Up to
    n = 21, numpy's fixed cost is more than testing each pair: the two
    cross between n = 20 and 22 on the generator's dotted models.
    """
    n = len(items)
    if n <= 21:
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if dotted_intersect(items[i - 1], items[j - 1])]
        return Graph.build(n, edges), max((it.d for it in items), default=0)
    s, t, d = _integers([v for it in items for v in (it.s, it.t, it.d)]).reshape(-1, 3).T

    def meets(I: np.ndarray, J: np.ndarray) -> np.ndarray:
        # inv: d[I] / g inverted modulo d[J] / g
        g, inv = _bezout(d[I], d[J])
        lo, hi = np.maximum(s[I], s[J]), np.minimum(t[I], t[J])
        gap = s[J] - s[I]
        # the one solution z = s[I] + k d[I] below s[I] plus the lcm of the
        # jumps, then the first of them at or past lo
        k = gap // g * inv % (d[J] // g)
        step = d[I] // g * d[J]
        z = s[I] + k * d[I]
        z = z - (z - lo) // step * step
        return (lo <= hi) & (gap % g == 0) & (z <= hi)

    return pairs_graph(n, meets), int(d.max())


@dataclass(frozen=True)
class ToleranceRep:
    """Closed intervals with per-vertex tolerances; points allowed."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    tolerances: tuple[object, ...]

    @staticmethod
    def build(intervals: Iterable[Sequence[object]],
              tolerances: object) -> "ToleranceRep":
        ivs = []
        for k, iv in enumerate(intervals, start=1):
            lo, hi = rational_pair(iv, "interval", k)
            if lo > hi:
                raise MalformedModel(f"interval {k} is reversed")
            ivs.append((lo, hi))
        n = len(ivs)
        if isinstance(tolerances, Mapping):
            extra = set(tolerances) - set(range(1, n + 1))
            if extra:
                raise MalformedModel(f"tolerances name unknown vertices {sorted(extra)}")
            raw = [tolerances.get(v, 1) for v in range(1, n + 1)]
        else:
            raw = list(tolerances)  # type: ignore[call-overload]
            if len(raw) != n:
                raise MalformedModel(f"expected {n} tolerances, got {len(raw)}")
        tols: list[object] = []
        for k, t in enumerate(raw, start=1):
            val = t if t == INFINITE_TOLERANCE else rational(t, f"tolerance {k}")
            if val <= 0:
                raise MalformedModel(f"tolerance {k} must be positive, got {t!r}")
            tols.append(val)
        return ToleranceRep(tuple(ivs), tuple(tols))

    @property
    def n(self) -> int:
        return len(self.intervals)

    def length(self, v: int) -> Fraction:
        lo, hi = self.intervals[v - 1]
        return hi - lo


def build_tolerance_graph(rep: ToleranceRep) -> Graph:
    """Edge iff the overlap length reaches the smaller tolerance.

    Length is measure, not point count, so touching intervals overlap
    with length zero and point intervals are always isolated; disjoint
    ones overlap by a negative length.  An infinite tolerance becomes a
    number past the widest overlap any pair can have, so none reaches it.
    """
    finite = np.array([t != INFINITE_TOLERANCE for t in rep.tolerances], dtype=bool)
    vals = _integers([x for iv in rep.intervals for x in iv]
                     + [t for t, f in zip(rep.tolerances, finite) if f])
    lo, hi = vals[:2 * rep.n].reshape(-1, 2).T
    tol = np.full(rep.n, hi.max(initial=0) - lo.min(initial=0) + 1, dtype=vals.dtype)
    tol[finite] = vals[2 * rep.n:]

    def tolerated(I: np.ndarray, J: np.ndarray) -> np.ndarray:
        overlap = np.minimum(hi[I], hi[J]) - np.maximum(lo[I], lo[J])
        return overlap >= np.minimum(tol[I], tol[J])

    return pairs_graph(rep.n, tolerated)


def classify_tolerance_rep(rep: ToleranceRep) -> dict[str, bool]:
    """The two flags of a tolerance model.

    Bounded: each tolerance is at most its interval's length.  Regular:
    each tolerance past its length is infinite, the tolerances are
    distinct, and no two intervals share an endpoint, checked by one set:
    the intervals' endpoint sets, joined, repeat no value.
    """
    bounded = all(rep.tolerances[v - 1] <= rep.length(v)
                  for v in range(1, rep.n + 1))
    capped = all(rep.tolerances[v - 1] == INFINITE_TOLERANCE
                 for v in range(1, rep.n + 1)
                 if rep.tolerances[v - 1] > rep.length(v))
    distinct = len(set(rep.tolerances)) == rep.n
    ends = [x for iv in rep.intervals for x in set(iv)]
    separated = len(set(ends)) == len(ends)
    return {"bounded": bounded, "regular": capped and distinct and separated}


@dataclass(frozen=True)
class ChordModel:
    """Chords of a circle, named by their two positions on the rim."""

    chords: tuple[tuple[int, int], ...]

    @staticmethod
    def build(chords: Iterable[Sequence[int]]) -> "ChordModel":
        out = []
        seen: set[int] = set()
        for k, ch in enumerate(chords, start=1):
            try:
                x, y = ch
            except (TypeError, ValueError) as exc:
                raise MalformedModel(f"chord {k} is not a pair: {ch!r}") from exc
            if not (isinstance(x, int) and isinstance(y, int)):
                raise MalformedModel(f"chord {k} has non-integer positions")
            if x == y:
                raise SharedEndpoint(f"chord {k} has coinciding endpoints")
            for p in (x, y):
                if p in seen:
                    raise SharedEndpoint(f"position {p} used twice")
                seen.add(p)
            out.append((min(x, y), max(x, y)))
        return ChordModel(tuple(out))

    @property
    def n(self) -> int:
        return len(self.chords)


def chords_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Endpoints interleave around the circle."""
    (x1, y1), (x2, y2) = sorted((tuple(sorted(a)), tuple(sorted(b))))
    return x1 < x2 < y1 < y2


def build_circle_graph(m: ChordModel) -> Graph:
    """Edge iff the chords cross: one end of chord j lies between the ends
    of chord i and the other does not.  Positions are ranked first, since
    only their order matters and the model allows any integers."""
    x, y = np.array(rank_pairs(m.chords), dtype=np.int64).reshape(-1, 2).T

    def between(I: np.ndarray, P: np.ndarray) -> np.ndarray:
        return (x[I] < P) & (P < y[I])

    return pairs_graph(m.n, lambda I, J: between(I, x[J]) ^ between(I, y[J]))


@dataclass(frozen=True)
class DiskPoints:
    """Plane points adjacent within rational distance threshold r."""

    points: tuple[tuple[Fraction, Fraction], ...]
    r: Fraction

    @staticmethod
    def build(points: Iterable[Sequence[object]], r: object = 1) -> "DiskPoints":
        pts = []
        for k, p in enumerate(points, start=1):
            pts.append(rational_pair(p, "point", k))
        radius = rational(r, "radius")
        if radius <= 0:
            raise BadParams(f"radius must be positive, got {r!r}")
        return DiskPoints(tuple(pts), radius)

    @property
    def n(self) -> int:
        return len(self.points)


def build_unit_disk_graph(p: DiskPoints) -> Graph:
    """Closed threshold on exact squared distances."""
    vals = _integers([c for pt in p.points for c in pt] + [p.r])
    x, y = vals[:-1].reshape(-1, 2).T
    rr = vals[-1] ** 2

    def near(I: np.ndarray, J: np.ndarray) -> np.ndarray:
        dx, dy = x[I] - x[J], y[I] - y[J]
        return dx * dx + dy * dy <= rr

    return pairs_graph(p.n, near)


@dataclass(frozen=True)
class KBoxModel:
    """Per vertex, a product of k closed intervals."""

    k: int
    boxes: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    @staticmethod
    def build(k: int, boxes: Iterable[Sequence[Sequence[object]]]) -> "KBoxModel":
        if not isinstance(k, int) or k < 1:
            raise BadParams(f"dimension must be a positive integer, got {k!r}")
        out = []
        for v, box in enumerate(boxes, start=1):
            sides = []
            for c, side in enumerate(box, start=1):
                lo, hi = rational_pair(side, f"box {v} side", c)
                if lo > hi:
                    raise MalformedModel(f"box {v} side {c} is reversed")
                sides.append((lo, hi))
            if len(sides) != k:
                raise DimensionMismatch(
                    f"box {v} has {len(sides)} sides, expected {k}")
            out.append(tuple(sides))
        return KBoxModel(k, tuple(out))

    @property
    def n(self) -> int:
        return len(self.boxes)


def build_box_graph(m: KBoxModel) -> Graph:
    """Edge iff the boxes meet, i.e. they overlap in every coordinate.

    Only the order of the sides along an axis matters, so each axis is
    ranked once, as interval models are.
    """
    axes = [np.array(rank_pairs([box[c] for box in m.boxes]), dtype=np.int64)
            .reshape(-1, 2).T for c in range(m.k)]

    def meets(I: np.ndarray, J: np.ndarray) -> np.ndarray:
        hit = np.True_
        for lo, hi in axes:
            hit = hit & (lo[I] <= hi[J]) & (lo[J] <= hi[I])
        return hit

    return pairs_graph(m.n, meets)


def verify_box_representation(g: Graph, m: KBoxModel) -> bool:
    """Is m a box representation of g?"""
    built = build_box_graph(m)
    return g.n == built.n and np.array_equal(g.edge_array, built.edge_array)


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """One vertex per edge; adjacency is sharing an endpoint.

    Edge labels are assigned in lexicographic endpoint order, so the
    vertex names of the result are reproducible.
    """
    labels = tuple(g.sorted_edges())
    if not labels:
        raise EmptyGraph("the graph has no edges, so its line graph is empty")
    u, v = g.edge_array.T

    def share(I: np.ndarray, J: np.ndarray) -> np.ndarray:
        return (u[I] == u[J]) | (u[I] == v[J]) | (v[I] == u[J]) | (v[I] == v[J])

    return pairs_graph(len(labels), share), labels


def iterate_line_graph(g: Graph, steps: int, *, max_size: int = 20000) -> list[Graph]:
    """Apply the line-graph operator repeatedly.

    Stops early once the sequence reaches a graph with at most one
    vertex, since everything beyond is empty.
    """
    if steps < 1:
        raise BadParams(f"steps must be at least 1, got {steps}")
    out: list[Graph] = []
    cur = g
    for _ in range(steps):
        m = len(cur.edge_array)
        if m > max_size:
            raise SizeBudgetExceeded(
                f"line graph would have {m} vertices, cap {max_size}")
        if m:
            cur = line_graph(cur)[0]
        else:
            cur = Graph.build(0, [])
        out.append(cur)
        if cur.n <= 1:
            break
    return out
