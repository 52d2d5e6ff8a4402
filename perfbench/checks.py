"""Reference answers for the benchmark's output checks.

Adjacency comes from the raw JSON model document and the definition of
each model kind, never from the isect builders, so a wrong builder or a
wrong solver shows up as a mismatch.  Optimum values come from routes
independent of the structured solvers: greedy and sweep arguments,
increasing subsequences, breadth-first search.  At n <= 16 the isect
brute-force oracle, run on the graph derived here, gives the value.

Every check returns None when the output is right and a one-line reason
when it is not; none of them uses ``assert``, so they still run under
``python -O``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np

SMALL_N = 16  # largest n the brute-force oracle accepts
_COORD_LIMIT = 2 ** 30  # scaled coordinates stay far from int64 overflow


class CheckError(Exception):
    """The model document is outside what the checker can derive."""


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _scaled(*columns: list) -> list[np.ndarray]:
    """Rational columns as int64 arrays over one common denominator."""
    fracs = [[Fraction(v) for v in col] for col in columns]
    den = lcm(1, *(f.denominator for col in fracs for f in col))
    out = []
    for col in fracs:
        ints = [f.numerator * (den // f.denominator) for f in col]
        if any(abs(v) >= _COORD_LIMIT for v in ints):
            raise CheckError("coordinates too large for the checker")
        out.append(np.array(ints, dtype=np.int64))
    return out


def _rows(doc: dict) -> list[dict]:
    return sorted(doc["items"], key=lambda rec: rec["id"])


def _meet(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # closed intervals share a point iff each starts before the other ends
    return (lo[:, None] <= hi[None, :]) & (lo[None, :] <= hi[:, None])


def _arc_holds(h: np.ndarray, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    # [i, j]: point p_j lies strictly inside arc i, which runs clockwise
    # from h_i to t_i and wraps past the top when h_i > t_i
    H, T, P = h[:, None], t[:, None], p[None, :]
    return np.where(H < T, (H < P) & (P < T), (P > H) | (P < T))


def _dotted(rows: list[dict], n: int) -> np.ndarray:
    # two progressions meet iff some integer lies on both
    pts = [np.arange(r["s"], r["t"] + 1, r["d"], dtype=np.int64) for r in rows]
    owner = np.repeat(np.arange(n), [len(p) for p in pts])
    allp = np.concatenate(pts) if pts else np.zeros(0, dtype=np.int64)
    order = np.argsort(allp, kind="stable")
    allp, owner = allp[order], owner[order]
    cuts = np.flatnonzero(np.diff(allp)) + 1
    adj = np.zeros((n, n), dtype=bool)
    for group in np.split(owner, cuts):
        if len(group) > 1:
            adj[np.ix_(group, group)] = True
    return adj


def adjacency(doc: dict) -> np.ndarray:
    """Symmetric n x n intersection matrix of a model document."""
    kind = doc["kind"]
    if kind == "permutation":
        pi = doc["items"][0]["pi"]
        n = len(pi)
        pos = np.empty(n, dtype=np.int64)
        pos[np.array(pi, dtype=np.int64) - 1] = np.arange(n)
        v = np.arange(n)
        # segments of i < j cross iff j sits left of i on the lower line
        adj = (v[:, None] < v[None, :]) & (pos[:, None] > pos[None, :])
        adj = adj | adj.T
    elif kind == "graph":
        rec = doc["items"][0]
        n = rec["n"]
        adj = np.zeros((n, n), dtype=bool)
        for u, v in rec["edges"]:
            adj[u - 1, v - 1] = adj[v - 1, u - 1] = True
    else:
        rows = _rows(doc)
        n = len(rows)
        if kind == "interval":
            lo, hi = _scaled([r["a"] for r in rows], [r["b"] for r in rows])
            adj = _meet(lo, hi)
        elif kind == "arcs":
            h, t = _scaled([r["h"] for r in rows], [r["t"] for r in rows])
            adj = _arc_holds(h, t, h) | _arc_holds(h, t, t)
            adj = adj | adj.T
        elif kind == "trapezoid":
            a, b, c, d = (np.array([r[f] for r in rows], dtype=np.int64)
                          for f in "abcd")
            # disjoint iff one trapezoid ends before the other starts on
            # both lines
            apart = (b[:, None] < a[None, :]) & (d[:, None] < c[None, :])
            adj = ~(apart | apart.T)
        elif kind == "dotted":
            adj = _dotted(rows, n)
        elif kind == "tolerance":
            finite = [r["tol"] for r in rows if r["tol"] != "inf"]
            a, b, tol = _scaled([r["a"] for r in rows], [r["b"] for r in rows],
                                finite)
            # an infinite tolerance exceeds every overlap length
            never = int(b.max() - a.min()) + 1 if n else 1
            it = iter(tol.tolist())
            tol = np.array([never if r["tol"] == "inf" else next(it) for r in rows],
                           dtype=np.int64)
            lo = np.maximum(a[:, None], a[None, :])
            hi = np.minimum(b[:, None], b[None, :])
            adj = (lo <= hi) & (hi - lo >= np.minimum(tol[:, None], tol[None, :]))
        elif kind == "chords":
            x = np.array([min(r["x"], r["y"]) for r in rows], dtype=np.int64)
            y = np.array([max(r["x"], r["y"]) for r in rows], dtype=np.int64)
            # chords cross iff their endpoints interleave around the rim
            cross = ((x[:, None] < x[None, :]) & (x[None, :] < y[:, None])
                     & (y[:, None] < y[None, :]))
            adj = cross | cross.T
        elif kind == "disks":
            x, y, r = _scaled([p["x"] for p in rows], [p["y"] for p in rows],
                              [doc["r"]])
            dx = x[:, None] - x[None, :]
            dy = y[:, None] - y[None, :]
            adj = dx * dx + dy * dy <= r[0] * r[0]
        elif kind == "boxes":
            k = len(rows[0]["intervals"]) if rows else 0
            adj = np.ones((n, n), dtype=bool)
            for c in range(k):
                lo, hi = _scaled([r["intervals"][c][0] for r in rows],
                                 [r["intervals"][c][1] for r in rows])
                adj &= _meet(lo, hi)
        else:
            raise CheckError(f"unknown kind {kind!r}")
    np.fill_diagonal(adj, False)
    return adj


def edge_text(adj: np.ndarray) -> str:
    """The edge list exactly as ``isect build`` prints it."""
    us, vs = np.nonzero(np.triu(adj, 1))
    return "".join(f"{u} {v}\n" for u, v in zip((us + 1).tolist(), (vs + 1).tolist()))


def weights(doc: dict, n: int) -> list[Fraction]:
    raw = doc.get("weights")
    if raw is None:
        return [Fraction(1)] * n
    if isinstance(raw, dict):
        out = [Fraction(1)] * n
        for key, val in raw.items():
            out[int(key) - 1] = Fraction(val)
        return out
    return [Fraction(x) for x in raw]


# -- answers --------------------------------------------------------------------


def parse_answer(text: str) -> dict[str, list[str]]:
    """Map each output line's first word to the words after it."""
    out = {}
    for line in text.splitlines():
        head, *rest = line.split(" ")
        out[head] = rest
    return out


def _vertex_list(words: list[str], n: int) -> Optional[list[int]]:
    try:
        vs = [int(w) for w in words]
    except ValueError:
        return None
    if len(set(vs)) != len(vs) or any(not 1 <= v <= n for v in vs):
        return None
    return vs


def _weighted_interval_max(lo: list[int], hi: list[int], w: list[Fraction]) -> Fraction:
    # classic scheduling DP over right endpoints; closed intervals that
    # touch intersect, so a predecessor must end strictly before a_j
    order = sorted(range(len(lo)), key=lambda j: hi[j])
    ends = [hi[j] for j in order]
    best = [Fraction(0)] * (len(order) + 1)
    for k, j in enumerate(order, start=1):
        p = bisect_left(ends, lo[j])
        best[k] = max(best[k - 1], best[p] + w[j])
    return best[-1]


def _heaviest_increasing(seq: list[int], w: list[Fraction]) -> Fraction:
    # Fenwick tree of prefix maxima over the values 1..n
    n = len(seq)
    tree = [Fraction(0)] * (n + 1)
    best = Fraction(0)
    for value, weight in zip(seq, w):
        i, prefix = value - 1, Fraction(0)
        while i > 0:
            prefix = max(prefix, tree[i])
            i -= i & -i
        total = prefix + weight
        best = max(best, total)
        i = value
        while i <= n:
            tree[i] = max(tree[i], total)
            i += i & -i
    return best


def _longest_increasing(seq: list[int]) -> int:
    tails: list[int] = []
    for x in seq:
        k = bisect_left(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
    return len(tails)


def _arc_mwis(doc: dict, adj: np.ndarray, w: list[Fraction]) -> Fraction:
    # a nonempty independent set contains some arc i; the arcs missing i
    # lie in the open gap from t_i round to h_i, where they are intervals
    rows = _rows(doc)
    h, t = (col.tolist() for col in _scaled([r["h"] for r in rows],
                                             [r["t"] for r in rows]))
    span = max(h + t) - min(h + t) + 1
    best = Fraction(0)
    for i in range(len(rows)):
        def unroll(p: int) -> int:
            return p - t[i] if p > t[i] else p - t[i] + span
        free = np.flatnonzero(~adj[i]).tolist()
        free.remove(i)
        lo = [unroll(h[j]) for j in free]
        hi = [unroll(t[j]) for j in free]
        best = max(best, w[i] + _weighted_interval_max(lo, hi, [w[j] for j in free]))
    return best


def _max_overlap(lo: list[int], hi: list[int]) -> int:
    # left endpoints sort first at a shared coordinate: touching counts
    events = sorted([(x, 0) for x in lo] + [(x, 1) for x in hi])
    depth = deepest = 0
    for _, side in events:
        depth += 1 if side == 0 else -1
        deepest = max(deepest, depth)
    return deepest


def reference_value(doc: dict, adj: np.ndarray, problem: str) -> object:
    """Optimum of ``problem`` on the model, without the structured solvers."""
    n = adj.shape[0]
    w = weights(doc, n) if problem == "mwis" else [Fraction(1)] * n
    if n <= SMALL_N:
        from isect.graph import Graph
        from isect.oracles import brute_solve
        us, vs = np.nonzero(np.triu(adj, 1))
        g = Graph.build(n, zip((us + 1).tolist(), (vs + 1).tolist()),
                        dict(enumerate(w, start=1)))
        name = "chromatic_number" if problem == "coloring" else problem
        return brute_solve(g, name).value
    kind = doc["kind"]
    if kind == "interval":
        rows = _rows(doc)
        lo, hi = (col.tolist() for col in _scaled([r["a"] for r in rows],
                                                   [r["b"] for r in rows]))
        if problem in ("mis", "mwis"):
            return _weighted_interval_max(lo, hi, w)
        return _max_overlap(lo, hi)  # clique number = chromatic number
    if kind == "permutation":
        pi = doc["items"][0]["pi"]
        if problem == "mis":
            return _longest_increasing(pi)
        if problem == "mwis":
            return _heaviest_increasing(pi, [w[v - 1] for v in pi])
        if problem == "max_clique":
            return _longest_increasing([-v for v in pi])
    if kind == "arcs" and problem in ("mis", "mwis"):
        return _arc_mwis(doc, adj, w)
    raise CheckError(f"no reference for {problem} on {kind} at n={n}")


def check_answer(doc: dict, adj: np.ndarray, problem: str, text: str,
                 expected: object) -> Optional[str]:
    """Check a solve or oracle output: feasible witness, optimal value."""
    n = adj.shape[0]
    ans = parse_answer(text)
    if len(ans.get("value", ())) != 1:
        return "no value line"
    try:
        value = Fraction(ans["value"][0])
    except (ValueError, ZeroDivisionError):
        return f"bad value {ans['value'][0]!r}"
    if problem == "coloring":
        colors = ans.get("colors")
        if colors is None or len(colors) != n:
            return "colors line does not cover every vertex"
        try:
            col = np.array([int(c) for c in colors], dtype=np.int64)
        except ValueError:
            return "non-integer color"
        if (adj & (col[:, None] == col[None, :])).any():
            return "two adjacent vertices share a color"
        achieved = Fraction(len(set(col.tolist())))
    else:
        vs = _vertex_list(ans.get("witness", []), n)
        if vs is None:
            return "witness is not a set of distinct vertices"
        idx = np.array(vs, dtype=np.int64) - 1
        block = adj[np.ix_(idx, idx)]
        if problem == "max_clique":
            if not block[~np.eye(len(vs), dtype=bool)].all():
                return "witness is not a clique"
        elif block.any():
            return "witness is not independent"
        if problem == "mwis":
            w = weights(doc, n)
            achieved = sum((w[v - 1] for v in vs), Fraction(0))
        else:
            achieved = Fraction(len(vs))
    if achieved != value:
        return f"witness achieves {achieved}, output says {value}"
    if value != expected:
        return f"value {value}, reference {expected}"
    return None


# -- distances ----------------------------------------------------------------


def distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances by frontier products; -1 when unreachable."""
    n = adj.shape[0]
    step = adj.astype(np.float32)
    dist = np.full((n, n), -1, dtype=np.int64)
    reached = np.eye(n, dtype=bool)
    dist[reached] = 0
    frontier = reached
    k = 0
    while frontier.any():
        k += 1
        frontier = ((frontier.astype(np.float32) @ step) > 0) & ~reached
        dist[frontier] = k
        reached |= frontier
    return dist


def check_distances(adj: np.ndarray, got: object) -> Optional[str]:
    want = distances(adj)
    if (want < 0).any():
        return "model graph is disconnected"
    try:
        mat = np.array(got, dtype=np.int64)
    except (TypeError, ValueError):
        return "distance matrix is not rectangular"
    if mat.shape != want.shape:
        return f"distance matrix has shape {mat.shape}, want {want.shape}"
    bad = np.argwhere(mat != want)
    if len(bad):
        u, v = (bad[0] + 1).tolist()
        return f"d({u},{v}) = {mat[u - 1, v - 1]}, BFS gives {want[u - 1, v - 1]}"
    return None


def check_spanner(adj: np.ndarray, tree_edges: object) -> Optional[str]:
    """A spanning tree of the graph whose stretch is at most 3."""
    n = adj.shape[0]
    edges = sorted(tree_edges)
    if len(edges) != n - 1:
        return f"{len(edges)} tree edges for n={n}"
    tree = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not adj[u - 1, v - 1]:
            return f"tree edge ({u},{v}) is not a graph edge"
        tree[u - 1, v - 1] = tree[v - 1, u - 1] = True
    if (distances(tree) < 0).any():
        return "tree does not span the graph"
    # a subgraph is a t-spanner iff every graph edge has a path of at
    # most t edges in it
    near = (tree | np.eye(n, dtype=bool)).astype(np.float32)
    within3 = (near @ near @ near) > 0
    bad = np.argwhere(adj & ~within3)
    if len(bad):
        u, v = (bad[0] + 1).tolist()
        return f"edge ({u},{v}) is stretched beyond 3"
    return None
