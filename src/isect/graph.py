"""Undirected graph value type and exact structural utilities.

Vertices are the integers 1..n.  A graph stores its edges as one int64
(m, 2) array of (min, max) rows, sorted row-major without duplicates,
and bitmask rows derived from it on first use; the library reads only
those, and the edge set and adjacency sets are views for callers.
Optional vertex weights are exact rationals; nothing in this module
ever goes through floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, zip_longest
from math import lcm
from numbers import Integral
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadParams,
    DisconnectedGraph,
    MalformedModel,
    NotSubgraph,
    SizeBudgetExceeded,
)

# weight arguments accepted by the solvers: none, a vertex-keyed mapping
# with default 1, or a dense length-n sequence
WeightsArg = Optional[object]


def coerce_weights(n: int, weights: WeightsArg) -> list[Fraction]:
    """Turn a weight argument into a dense list of non-negative rationals.

    The one weight rule, which ``Graph.build`` applies too but with
    MalformedModel for BadParams: mapping keys are vertices 1..n, and
    every value is a non-negative rational.
    """
    if weights is None:
        return [Fraction(1)] * n
    if isinstance(weights, Mapping):
        given, one = _weight_map(n, weights, BadParams), Fraction(1)
        return [given.get(r, one) for r in range(1, n + 1)]
    seq = list(weights)  # type: ignore[call-overload]
    if len(seq) != n:
        raise BadParams(f"expected {n} weights, got {len(seq)}")
    return _rationals(seq, range(1, n + 1), BadParams)


def _weight_map(n: int, weights: Mapping, error: type) -> dict[int, Fraction]:
    # the given keys only, so a sparse mapping on a large n stays small
    ids = list(weights)
    for v in ids:
        if not (isinstance(v, Integral) and 1 <= v <= n):
            raise error(f"weight for unknown vertex {v!r}")
    return dict(zip(ids, _rationals([weights[v] for v in ids], ids, error)))


def _rationals(seq: Sequence[object], ids: Sequence[int], error: type) -> list[Fraction]:
    # seq as non-negative rationals; ids[k] is the vertex of seq[k]
    vals: list[Fraction] = []
    try:  # one try around the loop costs nothing per weight
        for x in seq:
            # a Fraction is kept: Fraction(x) would re-make it past an ABC check
            w = x if type(x) is Fraction else Fraction(x)  # type: ignore[arg-type]
            if w.numerator < 0:
                raise error(f"negative weight {w} at vertex {ids[len(vals)]}")
            vals.append(w)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise error(f"weight {x!r} at vertex {ids[len(vals)]} is not a rational") from exc
    return vals


# the bits a common denominator may have: the exact builders and weighted
# solvers scale every rational by it, so their integers grow with it
MAX_DENOMINATOR_BITS = 1024


def common_denominator(xs: Iterable[Fraction]) -> int:
    """The lcm of the denominators of xs; SizeBudgetExceeded past
    MAX_DENOMINATOR_BITS bits, checked as each distinct one is folded in."""
    d = 1
    for q in {x.denominator for x in xs}:
        d = lcm(d, q)
        if d.bit_length() > MAX_DENOMINATOR_BITS:
            raise SizeBudgetExceeded(
                f"common denominator of the rationals passes {MAX_DENOMINATOR_BITS} bits")
    return d


def lex_weights(w: Sequence[Fraction]) -> list[int]:
    """Integer weights under which a max-weight DP has a single optimum.

    Scaled to integers by their common denominator and shifted past n
    bits, vertex v's weight also gets bit n - v.  Those bits never carry,
    so the heaviest set wins, and of equally heavy sets the one holding
    the smaller vertex at their first difference: symbolic perturbation
    (Edelsbrunner & Mücke, "Simulation of Simplicity", ACM TOG 1990).
    """
    n = len(w)
    d = common_denominator(w)
    return [x.numerator * (d // x.denominator) << n | 1 << (n - v)
            for v, x in enumerate(w, start=1)]


def lex_trim(chosen: Sequence[int], w: Sequence[Fraction]) -> tuple[int, ...]:
    """The lexicographically smallest optimum, from the sorted perturbed one.

    They differ only by zero-weight vertices after the last weighted one,
    and dropping those leaves a prefix: as heavy, and a smaller tuple.
    """
    k = len(chosen)
    while k and w[chosen[k - 1] - 1] == 0:
        k -= 1
    return tuple(chosen[:k])


def rational(x: object, what: str) -> Fraction:
    """x as a rational, named by ``what`` if it is none; a Fraction is kept."""
    if type(x) is Fraction:
        return x
    try:
        return Fraction(x)  # type: ignore[arg-type]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedModel(f"{what} is not rational: {x!r}") from exc


def rational_pair(item: object, what: str, k: int) -> tuple[Fraction, Fraction]:
    """Item k of a model, two values such as an interval's ends, as rationals;
    a value that is a Fraction already is kept as it is."""
    try:
        x, y = item  # type: ignore[misc]
        return (x if type(x) is Fraction else Fraction(x),
                y if type(y) is Fraction else Fraction(y))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedModel(f"{what} {k} is not a pair of rationals: {item!r}") from exc


def _normalize_edge(u: int, v: int, n: int) -> tuple[int, int]:
    if not (isinstance(u, int) and isinstance(v, int)):
        raise MalformedModel(f"edge endpoints must be integers, got ({u!r}, {v!r})")
    if u == v:
        raise MalformedModel(f"self-loop at vertex {u}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise MalformedModel(f"edge ({u}, {v}) outside vertex range 1..{n}")
    return (u, v) if u < v else (v, u)


# vertex ids are stored as int64
_MAX_VERTICES = (1 << 63) - 1
# below this n an edge row sorts by the one key lo * (n + 1) + hi < 2**63
_ONE_KEY_VERTICES = 1 << 31


def _normalize_edge_array(edges: np.ndarray, n: int) -> np.ndarray:
    # the checks of _normalize_edge over a whole (m, 2) array at once; the
    # first bad row goes back through it to raise the same error
    if edges.dtype.kind not in "iu" or edges.ndim != 2 or edges.shape[1] != 2:
        raise MalformedModel(
            f"edge array must be (m, 2) integers, got {edges.dtype} {edges.shape}")
    lo, hi = np.minimum(*edges.T), np.maximum(*edges.T)
    bad = np.flatnonzero((lo == hi) | (lo < 1) | (hi > n))
    if bad.size:
        _normalize_edge(*edges[bad[0]].tolist(), n)
    rows = np.empty((len(lo), 2), dtype=np.int64)
    rows[:, 0], rows[:, 1] = lo, hi
    lo, hi = rows.T
    # rows already strictly increasing, as pairs_graph makes them, skip the sort
    if not np.all((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))):
        # one int64 key orders the rows as (lo, hi) does while n(n + 2) fits
        rows = rows[np.argsort(lo * (n + 1) + hi) if n < _ONE_KEY_VERTICES
                    else np.lexsort((hi, lo))]
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        rows = rows[fresh]
    return rows


def _normalize_edge_pairs(edges: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    found, item = set(), edges  # a non-iterable edges argument is named itself
    try:  # one try around the loop costs nothing per pair
        for item in edges:
            u, v = item
            found.add(_normalize_edge(u, v, n))
    except (TypeError, ValueError) as exc:
        raise MalformedModel(f"edge item {item!r} is not a pair of vertices") from exc
    pairs = sorted(found)
    return np.fromiter(chain.from_iterable(pairs), dtype=np.int64,
                       count=2 * len(pairs)).reshape(-1, 2)


def _name_table(names: np.ndarray, left: bytes, right: bytes) -> np.ndarray:
    """``left + name + right`` for each NUL-padded name, one S string a row."""
    w, a = names.dtype.itemsize, len(left)
    block = np.empty((len(names), a + w + len(right)), np.uint8)
    block[:, :a] = np.frombuffer(left, np.uint8)
    block[:, a:a + w] = names.view(np.uint8).reshape(-1, w)
    block[:, a + w:] = np.frombuffer(right, np.uint8)
    return block.view(f"S{block.shape[1]}").ravel()


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph on vertices 1..n.

    ``Graph.build`` is the validated entry point.  It takes the edges as
    integer pairs or as one (m, 2) integer array, and checks both alike:
    integer ends, no self-loop, both ends in 1..n.  ``edge_array`` is the
    stored form, and ``adj_bits`` its rows as vertex masks; the library
    reads only these.  ``edges``, ``adj`` and ``sorted_edges()`` are views
    of it for callers.  Two graphs are equal when they have the same n,
    edges and weights.
    """

    n: int
    edge_array: np.ndarray
    weights: Optional[Mapping[int, Fraction]] = None

    @staticmethod
    def build(n: int, edges: Union[np.ndarray, Iterable[tuple[int, int]]],
              weights: Optional[Mapping[int, object]] = None) -> "Graph":
        if n < 0:
            raise MalformedModel(f"vertex count must be non-negative, got {n}")
        if n > _MAX_VERTICES:
            raise MalformedModel(f"vertex count {n} is past the 64-bit id range")
        if isinstance(edges, np.ndarray):
            rows = _normalize_edge_array(edges, n)
        else:
            rows = _normalize_edge_pairs(edges, n)
        rows.flags.writeable = False
        wmap = None
        if weights is not None:
            wmap = _weight_map(n, weights, MalformedModel)
        return Graph(n, rows, wmap)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.weights == other.weights
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as (min, max) tuples of plain ints."""
        return frozenset(self.sorted_edges())

    @cached_property
    def adj(self) -> dict[int, frozenset[int]]:
        return {v: frozenset(_set_of(self.adj_bits[v])) for v in self.vertices()}

    @cached_property
    def adj_bits(self) -> list[int]:
        """Adjacency as bitmasks; bit v-1 of entry u set iff (u,v) is an edge."""
        bits = [0] * (self.n + 1)
        for u, v in self.sorted_edges():
            bits[u] |= 1 << (v - 1)
            bits[v] |= 1 << (u - 1)
        return bits

    def has_edge(self, u: int, v: int) -> bool:
        # the range test keeps a negative u from indexing the rows from the end
        return 0 < u <= self.n and 0 < v <= self.n and self.adj_bits[u] >> (v - 1) & 1 == 1

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise KeyError(v)
        return self.adj_bits[v].bit_count()

    def weight(self, v: int) -> Fraction:
        if self.weights is None:
            return Fraction(1)
        return self.weights.get(v, Fraction(1))

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def sorted_edges(self) -> list[tuple[int, int]]:
        lo, hi = self.edge_array.T.tolist()
        return list(zip(lo, hi))

    def edge_text(self, pattern: str, sep: str = "") -> str:
        """Every edge in order, written as ``pattern`` with its ends in
        place of ``{u}`` and ``{v}``, joined by ``sep``.

        Two byte tables over the vertices the edges name hold the text of
        ``pattern`` up to and after ``{v}``, each name NUL-padded to the
        width of the largest; one gather writes every edge and the padding
        is dropped, so a NUL in ``pattern`` or ``sep`` is a ValueError.
        """
        if "\0" in pattern + sep:
            raise ValueError("edge_text patterns cannot hold a NUL")
        head, rest = pattern.split("{u}")
        mid, tail = rest.split("{v}")
        rows = self.edge_array
        top = int(rows[:, 1].max(initial=0))
        if top <= rows.size:
            ids, slots = np.arange(top + 1), rows
        else:
            # sparse ids: a table of only the ids in use, not all of 0..top
            ids, slots = np.unique(rows, return_inverse=True)
            slots = slots.reshape(rows.shape)
        names = ids.astype(f"S{len(str(ids[-1]))}")
        pre = _name_table(names, head.encode(), mid.encode())
        post = _name_table(names, b"", (tail + sep).encode())
        # one record per edge, its two fields written in place; freed as
        # soon as its bytes are out
        out = np.empty(len(slots), [("u", pre.dtype), ("v", post.dtype)])
        out["u"], out["v"] = pre.take(slots[:, 0]), post.take(slots[:, 1])
        text = out.tobytes()
        del out
        text = text.translate(None, b"\0")
        return str(memoryview(text)[:len(text) - len(sep.encode())], "utf-8")

    def complement(self) -> "Graph":
        # the strict upper triangle less the edges; argwhere reads it row-major, sorted
        pairs = np.triu(np.ones((self.n, self.n), dtype=bool), 1)
        pairs[tuple((self.edge_array - 1).T)] = False
        return Graph.build(self.n, np.argwhere(pairs) + 1, self.weights)

    def induced(self, keep: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on `keep`, relabeled 1..k; returns (graph, new->old map)."""
        old = sorted(set(keep))
        for v in old:
            if not 1 <= v <= self.n:
                raise MalformedModel(f"vertex {v} outside 1..{self.n}")
        pos = {v: i + 1 for i, v in enumerate(old)}
        edges = [(pos[u], pos[v]) for u, v in self.sorted_edges() if u in pos and v in pos]
        weights = None
        if self.weights is not None:
            weights = {pos[v]: self.weights[v] for v in old if v in self.weights}
        return Graph.build(len(old), edges, weights), {i + 1: v for i, v in enumerate(old)}

    def components(self) -> list[frozenset[int]]:
        """Vertex sets of the components, ordered by their smallest vertex."""
        comps = []
        rest = (1 << self.n) - 1
        while rest:
            comp = reach(self, rest & -rest)
            comps.append(frozenset(_set_of(comp)))
            rest &= ~comp
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or reach(self, 1) == (1 << self.n) - 1


_BLOCK_CELLS = 1 << 16  # pairs per block, at least one row: block temporaries stay small


def pairs_graph(n: int, meets: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Graph:
    """Graph on 1..n with edge (i+1, j+1) for each pair i < j that meets.

    ``meets(I, J)`` maps a column I of 0-based row indices and a row J of
    0-based column indices to their broadcast boolean grid.  It is called
    on blocks of rows, each with the columns past its first row.
    """
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    idx = np.arange(n)
    parts = [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, n - 1, rows):
        I, J = idx[lo:lo + rows, None], idx[None, lo + 1:]
        r, c = np.nonzero((J > I) & meets(I, J))
        parts.append(np.stack([r + (lo + 1), c + (lo + 2)], axis=1))
    return Graph.build(n, np.concatenate(parts))


@dataclass(frozen=True)
class Metrics:
    """Eccentricities and the derived distance invariants of a connected graph."""

    ecc: dict[int, int] = field(compare=False)
    radius: int = 0
    diameter: int = 0
    center: frozenset[int] = frozenset()
    mean_distance: Fraction = Fraction(0)


def _mask_of(vs: Iterable[int]) -> int:
    return sum(1 << (v - 1) for v in set(vs))


def _set_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def bfs_layers(g: Graph, start: int, within: int = -1) -> Iterator[int]:
    """Breadth-first layers around the vertex mask start, as vertex masks.

    Layer 0 is start; layer d + 1 holds the vertices of within (all by
    default) next to layer d and in no earlier one, up to the first empty
    layer.  Every reachability and distance helper reads this walk.
    """
    adj = g.adj_bits
    seen = frontier = start
    while frontier:
        yield frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length()]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier


def reach(g: Graph, start: int, within: int = -1) -> int:
    """start plus every vertex of within that a path inside within joins to it."""
    return sum(bfs_layers(g, start, within))  # the layers are disjoint


def balls(g: Graph, k: int) -> dict[int, int]:
    """Bit v-1 of entry z is set iff v is within distance k (>= -1) of z."""
    return {z: sum(islice(bfs_layers(g, 1 << (z - 1)), k + 1)) for z in g.vertices()}


def bfs_distances(g: Graph, source: int) -> list[Optional[int]]:
    """Distances from source to every vertex; None marks unreachable.

    Index 0 of the result is unused padding.
    """
    dist: list[Optional[int]] = [None] * (g.n + 1)
    for d, layer in enumerate(bfs_layers(g, 1 << (source - 1))):
        while layer:
            low = layer & -layer
            dist[low.bit_length()] = d
            layer ^= low
    return dist


def bfs_apsp(g: Graph) -> list[list[Optional[int]]]:
    """All-pairs distances by repeated BFS, as an n x n matrix.

    Row i, column j holds the distance between vertices i+1 and j+1;
    unreachable pairs hold None, never a large stand-in value.
    """
    return [bfs_distances(g, s)[1:] for s in g.vertices()]


def metrics(g: Graph) -> Metrics:
    """Eccentricity, radius, diameter, center and mean distance.

    Mean distance is the average over ordered distinct pairs, kept exact.
    """
    if g.n == 0:
        raise MalformedModel("metrics undefined on the empty graph")
    if not g.is_connected():
        raise DisconnectedGraph("metrics need a connected graph")
    sizes = [list(map(int.bit_count, bfs_layers(g, 1 << (v - 1)))) for v in g.vertices()]
    ecc = {v: len(row) - 1 for v, row in enumerate(sizes, start=1)}
    radius = min(ecc.values())
    center = frozenset(v for v, e in ecc.items() if e == radius)
    total = sum(d * size for row in sizes for d, size in enumerate(row))
    mean = Fraction(total, max(g.n * (g.n - 1), 1))
    return Metrics(ecc, radius, max(ecc.values()), center, mean)


def hinge_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose removal increases some remaining pairwise distance.

    Removing x never shortens a distance, so x is a hinge exactly when,
    from some other vertex, a breadth-first layer inside G - x differs
    from the same layer in G with x taken out.
    """
    if not g.is_connected():
        raise DisconnectedGraph("hinge vertices are defined on connected graphs")
    layers = [list(bfs_layers(g, 1 << (s - 1))) for s in g.vertices()]

    def hinge(x: int) -> bool:
        keep = ~(1 << (x - 1))
        return any(new != old & keep
                   for s in g.vertices() if s != x
                   for new, old in zip_longest(bfs_layers(g, 1 << (s - 1), keep),
                                               layers[s - 1], fillvalue=0))

    return frozenset(filter(hinge, g.vertices()))


def cut_vertices_and_blocks(g: Graph) -> tuple[frozenset[int], list[frozenset[int]]]:
    """Articulation vertices and biconnected blocks (as vertex sets).

    Blocks cover every edge; an isolated vertex forms a trivial block of
    its own so that the block list always covers the vertex set.  One
    depth-first search with low points (Hopcroft & Tarjan, CACM 1973):
    seen holds the visited vertices no block has taken yet, and when
    child v of p finishes with low[v] >= disc[p], p and the entries of
    seen from v on are a block, and those entries leave seen.  The cut
    vertices are those in two or more blocks.
    """
    adj = g.adj_bits
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    at = [0] * (g.n + 1)  # each vertex's index in seen
    blocks: list[frozenset[int]] = []
    t = 0
    for root in g.vertices():
        if disc[root]:
            continue
        t += 1
        disc[root] = low[root] = t
        seen = [root]
        # iterative DFS; stack entries are (vertex, parent, neighbour iterator)
        stack = [(root, 0, iter(_set_of(adj[root])))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    at[w] = len(seen)
                    seen.append(w)
                    stack.append((w, v, iter(_set_of(adj[w]))))
                    break
                # a finished descendant was discovered later and lowers nothing
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        blocks.append(frozenset(seen[at[v]:] + [p]))
                        del seen[at[v]:]
        if not adj[root]:
            blocks.append(frozenset({root}))
    shared = Counter(chain.from_iterable(blocks))
    return frozenset(v for v, k in shared.items() if k > 1), blocks


def is_tree_t_spanner(g: Graph, h: Graph, t) -> bool:
    """Check that h is a spanning tree of g with stretch factor at most t.

    t may be an int or Fraction.  Raises NotSubgraph, naming the smallest
    edge of h that g lacks, and DisconnectedGraph when g is not connected.
    Only g's edges need checking (Peleg & Schäffer, J. Graph Theory 1989):
    each g-neighbour of v must lie in v's ball of radius floor(t) in h.
    """
    num, den = Fraction(t).as_integer_ratio()
    if h.n != g.n:
        raise NotSubgraph(f"spanning subgraph must keep n={g.n}, got {h.n}")
    for v in g.vertices():
        foreign = h.adj_bits[v] & ~g.adj_bits[v]
        if foreign:  # all past v: an edge to a smaller vertex was met there
            e = (v, (foreign & -foreign).bit_length())
            raise NotSubgraph(f"edge {e} of the claimed spanner is not in the graph")
    if not g.is_connected():
        raise DisconnectedGraph("stretch is undefined for a disconnected graph")
    if len(h.edge_array) != g.n - 1 or not h.is_connected():
        return False
    near = balls(h, max(num // den, -1))  # below radius 0 every ball is empty
    return all(not g.adj_bits[v] & ~near[v] for v in g.vertices())
