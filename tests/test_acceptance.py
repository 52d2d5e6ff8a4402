"""End-to-end acceptance: fifteen headline behaviours, one line each.

Each test carries its criterion number and label; the conftest hook
prints one pass/fail line per criterion in the terminal summary.
Corpora are seeded and shared where criteria overlap.
"""

import functools
import time
from collections import deque
from fractions import Fraction

from isect.arcs import (
    ArcModel,
    apsp_circular_arc,
    arcs_intersect,
    build_circular_arc_graph,
    canonicalize,
    delete_closed_neighborhood,
    mwis_circular_arc,
    split_at_cut,
)
from isect.chordal import clique_graph, is_chordal, is_weakly_chordal_bruteforce, maximal_cliques_chordal
from isect.generators import GeneratorSpec, generate_model
from isect.geom import (
    DottedInterval,
    INFINITE_TOLERANCE,
    KBoxModel,
    ToleranceRep,
    build_box_graph,
    build_ddig,
    build_tolerance_graph,
    build_unit_disk_graph,
    DiskPoints,
    dotted_intersect,
    iterate_line_graph,
    line_graph,
    verify_box_representation,
)
from isect.graph import Graph, bfs_apsp, bfs_distances, is_tree_t_spanner, metrics
from isect.intervals import (
    IntervalModel,
    apsp_interval,
    build_interval_graph,
    build_interval_tree,
    diameter_and_center,
    distance_query,
    greedy_color,
    maximal_cliques_interval,
    mwis_interval,
    overlaps,
    tree_3_spanner,
)
from isect.oracles import (
    are_isomorphic_bruteforce,
    brute_solve,
    find_hole,
    is_interval_bruteforce,
    maximal_cliques_bruteforce,
    maximal_independent_sets,
)
from isect.permutations import (
    Permutation,
    PointRep,
    build_permutation_graph,
    complement_permutation,
    enumerate_mis,
    max_clique_permutation,
    mwis_permutation,
    point_relation,
)
from isect.rng import SplitMix64
from isect.trapezoids import (
    TrapezoidModel,
    boxes_incomparable,
    build_trapezoid_graph,
    check_cocomparability_order,
    diagram_adjacent,
    segments_joint,
    to_box_rep,
    to_permutation_diagram,
    to_segment_rep,
    trapezoids_adjacent,
)


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            fn()
        wrapper.acceptance = (num, label)
        return wrapper
    return deco


# -- shared corpora ----------------------------------------------------------

@functools.lru_cache(maxsize=1)
def interval_corpus() -> tuple[IntervalModel, ...]:
    # 500 connected strict models, n between 2 and 200
    rng = SplitMix64(0xC0FFEE)
    out = []
    for _ in range(500):
        n = 2 + rng.below(199)
        seed = rng.next_u64() >> 1
        out.append(generate_model(GeneratorSpec(
            "interval", n, seed, {"strict": True, "connected": True})).model)
    return tuple(out)


def _sparse_adj(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _sparse_bfs(adj: list[list[int]], n: int, src: int) -> list:
    dist: list = [None] * (n + 1)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# -- criteria ----------------------------------------------------------------

DOTTED_FIVE = [(1, 5, 2), (2, 3, 1), (1, 7, 2), (4, 6, 2), (6, 8, 2)]


@criterion(1, "five dotted progressions give the stated edges within 1 ms")
def test_criterion_01_dotted_fixture():
    items = [DottedInterval.build(*row) for row in DOTTED_FIVE]
    g, jump = build_ddig(items)
    assert g.sorted_edges() == [(1, 2), (1, 3), (2, 3), (4, 5)]
    assert jump == 2
    best = min(
        (lambda t0: (build_ddig(items), time.perf_counter() - t0))(
            time.perf_counter())[1]
        for _ in range(5))
    assert best < 0.001, f"build took {best * 1000:.3f} ms"


SHARED_INTERVALS = [(0, 3), (1, 4), (3, 9), (8, 11), (9, 11), (4, 8), (5, 7)]
SHARED_TOLERANCES = (1, 1, 4, 1, 1, 1, INFINITE_TOLERANCE)


@criterion(2, "tolerances prune exactly the over-demanded overlap")
def test_criterion_02_tolerance_fixture():
    plain = build_interval_graph(IntervalModel.build(SHARED_INTERVALS))
    assert plain.has_edge(3, 7)
    rep = ToleranceRep.build(SHARED_INTERVALS, SHARED_TOLERANCES)
    g = build_tolerance_graph(rep)
    assert not g.has_edge(3, 7)
    assert g.sorted_edges() == [(1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (6, 7)]


SEVEN_EDGE_BASE = Graph.build(
    6, [(1, 2), (1, 5), (1, 6), (2, 3), (3, 4), (4, 5), (4, 6)])


@criterion(3, "line graph of the seven-edge base has its ten adjacencies")
def test_criterion_03_line_graph_fixture():
    lg, labels = line_graph(SEVEN_EDGE_BASE)
    assert labels == ((1, 2), (1, 5), (1, 6), (2, 3), (3, 4), (4, 5), (4, 6))
    assert lg.n == 7
    assert lg.sorted_edges() == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 6), (3, 7),
        (4, 5), (5, 6), (5, 7), (6, 7)]


@criterion(4, "distance stack matches oracles on 500 connected strict models")
def test_criterion_04_interval_distance_stack():
    t0 = time.perf_counter()
    rng = SplitMix64(99)
    for m in interval_corpus():
        n = m.n
        g = build_interval_graph(m)
        # umbrella: below every vertex the neighbourhood is one solid run
        for w in range(1, n + 1):
            below = [u for u in g.adj[w] if u < w]
            if below:
                assert len(below) == w - min(below), f"umbrella broken at {w}"
        if n <= 60:
            for u, w in g.edges:
                for v in range(u + 1, w):
                    assert g.has_edge(v, w)
        tree = build_interval_tree(m)
        from_last = bfs_distances(g, n)
        assert all(tree.level[v - 1] == from_last[v] for v in range(1, n + 1))
        dist = apsp_interval(m)
        assert dist == bfs_apsp(g)
        if n <= 40:
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
        else:
            pairs = [(1 + rng.below(n), 1 + rng.below(n)) for _ in range(150)]
        for u, v in pairs:
            assert distance_query(tree, g, u, v) == dist[u - 1][v - 1]
        diameter, center = diameter_and_center(m)
        stats = metrics(g)
        assert diameter == stats.diameter and center == stats.center
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60, f"corpus sweep took {elapsed:.1f} s"


@criterion(5, "tree 3-spanner built and verified on every corpus model")
def test_criterion_05_tree_spanner():
    for m in interval_corpus():
        spanner = tree_3_spanner(m)
        g = build_interval_graph(m)
        assert is_tree_t_spanner(g, spanner.tree, 3)


@criterion(6, "greedy interval coloring is optimal across the corpus")
def test_criterion_06_interval_coloring():
    small = 0
    for m in interval_corpus():
        used = len(set(greedy_color(m).values()))
        omega = max(len(c) for c in maximal_cliques_interval(m))
        assert used == omega
        if m.n <= 9:
            small += 1
            chi = brute_solve(build_interval_graph(m), "chromatic_number").value
            assert used == chi
    rng = SplitMix64(0xA11CE)
    for _ in range(30):
        n = 2 + rng.below(8)
        m = generate_model(GeneratorSpec(
            "interval", n, rng.next_u64() >> 1, {"strict": True})).model
        used = len(set(greedy_color(m).values()))
        assert used == max(len(c) for c in maximal_cliques_interval(m))
        assert used == brute_solve(build_interval_graph(m),
                                   "chromatic_number").value
        small += 1
    assert small >= 30


def _connected_arc_model(rng: SplitMix64, n: int) -> ArcModel:
    while True:
        m = generate_model(GeneratorSpec("arcs", n, rng.next_u64() >> 1)).model
        if m.connected:
            return m


@criterion(7, "arc suite: cut clique, mwis, apsp, neighborhood deletion")
def test_criterion_07_circular_arcs():
    rng = SplitMix64(0xBEEF)
    for _ in range(300):
        n = 1 + rng.below(40)
        raw = generate_model(GeneratorSpec("arcs", n, rng.next_u64() >> 1)).model
        canon, _ = canonicalize(raw)
        split = split_at_cut(canon)
        back = sorted(split.backward)
        for i, u in enumerate(back):
            for v in back[i + 1:]:
                assert arcs_intersect(canon.arcs[u - 1], canon.arcs[v - 1])
    for _ in range(50):
        n = 2 + rng.below(13)
        mf = generate_model(GeneratorSpec("arcs", n, rng.next_u64() >> 1,
                                          {"weights": True}))
        picked = mwis_circular_arc(mf.model, mf.weights)
        value = sum((mf.weights[v - 1] for v in picked), Fraction(0))
        g = Graph.build(n, build_circular_arc_graph(mf.model).edges,
                        dict(enumerate(mf.weights, start=1)))
        assert value == brute_solve(g, "mwis").value
    for _ in range(50):
        n = 2 + rng.below(59)
        m = _connected_arc_model(rng, n)
        assert apsp_circular_arc(m) == bfs_apsp(build_circular_arc_graph(m))
    for _ in range(30):
        n = 2 + rng.below(8)
        m = generate_model(GeneratorSpec("arcs", n, rng.next_u64() >> 1)).model
        g = build_circular_arc_graph(m)
        for i in range(1, n + 1):
            straightened, survivors = delete_closed_neighborhood(m, i)
            residual, relabel = g.induced(survivors)
            assert tuple(relabel[k] for k in sorted(relabel)) == survivors
            assert build_interval_graph(straightened).edges == residual.edges
            assert is_interval_bruteforce(residual)


@criterion(8, "permutation suite: complement, mis family, mwis, clique, points")
def test_criterion_08_permutations():
    rng = SplitMix64(0xD1CE)
    for _ in range(1000):
        n = 1 + rng.below(50)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        p = Permutation.build(seq)
        g = build_permutation_graph(p)
        assert build_permutation_graph(complement_permutation(p)) == g.complement()
    for _ in range(300):
        n = 1 + rng.below(11)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        p = Permutation.build(seq)
        family = {frozenset(s) for s in enumerate_mis(p)}
        oracle = {frozenset(s)
                  for s in maximal_independent_sets(build_permutation_graph(p))}
        assert family == oracle
    for _ in range(40):
        n = 2 + rng.below(15)
        mf = generate_model(GeneratorSpec("permutation", n, rng.next_u64() >> 1,
                                          {"weights": True}))
        picked = mwis_permutation(mf.model, mf.weights)
        value = sum((mf.weights[v - 1] for v in picked), Fraction(0))
        g = Graph.build(n, build_permutation_graph(mf.model).edges,
                        dict(enumerate(mf.weights, start=1)))
        assert value == brute_solve(g, "mwis").value
    for _ in range(40):
        n = 2 + rng.below(15)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        p = Permutation.build(seq)
        clique = max_clique_permutation(p)
        assert len(clique) == brute_solve(build_permutation_graph(p),
                                          "max_clique").value
        positions = [p.position(v) for v in clique]
        assert positions == sorted(positions, reverse=True)
    # four point facts, for every sequence consistent with the pinned points
    import itertools
    for extra in itertools.permutations([1, 6, 7]):
        inv = {1: 5, 2: 2, 4: 3, 7: 4,
               3: extra[0], 5: extra[1], 6: extra[2]}
        seq = [0] * 7
        for v, pos in inv.items():
            seq[pos - 1] = v
        rep = PointRep.from_permutation(Permutation.build(seq))
        far = point_relation(rep, (2, 2), (7, 4))
        assert not far.connected and not far.directly_non_connected
        near = point_relation(rep, (1, 5), (2, 2))
        assert near.connected
        step = point_relation(rep, (2, 2), (4, 3))
        assert not step.connected and step.directly_non_connected


@criterion(9, "trapezoid representations agree and stay weakly chordal")
def test_criterion_09_trapezoids():
    rng = SplitMix64(0xF00D)
    weak_checked = 0
    for _ in range(500):
        n = 1 + rng.below(100)
        m = generate_model(GeneratorSpec("trapezoid", n, rng.next_u64() >> 1)).model
        g = build_trapezoid_graph(m)
        segs = to_segment_rep(m).segments
        boxes = to_box_rep(m).boxes
        q, pairing = to_permutation_diagram(m)
        assert check_cocomparability_order(g, range(1, n + 1))
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                expected = g.has_edge(a, b)
                assert trapezoids_adjacent(m.items[a - 1], m.items[b - 1]) == expected
                assert segments_joint(segs[a - 1], segs[b - 1]) == expected
                assert boxes_incomparable(boxes[a - 1], boxes[b - 1]) == expected
                assert diagram_adjacent(q, pairing, a, b) == expected
        if n <= 9:
            assert is_weakly_chordal_bruteforce(g)
            weak_checked += 1
    for _ in range(100):
        n = 1 + rng.below(40)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        p = Permutation.build(seq)
        degenerate = TrapezoidModel.from_lines(p)
        assert build_trapezoid_graph(degenerate) == build_permutation_graph(p)
    while weak_checked < 40:
        n = 1 + rng.below(9)
        m = generate_model(GeneratorSpec("trapezoid", n, rng.next_u64() >> 1)).model
        assert is_weakly_chordal_bruteforce(build_trapezoid_graph(m))
        weak_checked += 1


def _all_graphs_n5():
    slots = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    for mask in range(1 << 10):
        yield Graph.build(5, [slots[i] for i in range(10) if mask >> i & 1])


@criterion(10, "chordal recognition, clique counts, separator triangles")
def test_criterion_10_chordal():
    for g in _all_graphs_n5():
        assert is_chordal(g) == (find_hole(g) is None)
    rng = SplitMix64(0xCAB)
    for _ in range(500):
        n = 1 + rng.below(9)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.coin()]
        g = Graph.build(n, edges)
        assert is_chordal(g) == (find_hole(g) is None)
    triangles = 0
    for _ in range(60):
        n = 2 + rng.below(11)
        m = generate_model(GeneratorSpec("interval", n, rng.next_u64() >> 1)).model
        g = build_interval_graph(m)
        cliques = maximal_cliques_chordal(g)
        assert len(cliques) <= g.n
        assert set(cliques) == set(maximal_cliques_bruteforce(g))
        cg = clique_graph(g)
        adjacency = {tuple(sorted(e)) for e in cg.edges}
        k = len(cg.cliques)
        members = [set(c) for c in cg.cliques]
        for x in range(1, k + 1):
            for y in range(x + 1, k + 1):
                if (x, y) not in adjacency:
                    continue
                for z in range(y + 1, k + 1):
                    if (x, z) not in adjacency or (y, z) not in adjacency:
                        continue
                    seps = sorted((members[x - 1] & members[y - 1],
                                   members[x - 1] & members[z - 1],
                                   members[y - 1] & members[z - 1]), key=len)
                    assert seps[0] == seps[1] or seps[1] == seps[2]
                    assert seps[0] <= seps[2] and seps[1] <= seps[2]
                    triangles += 1
    for _ in range(40):
        n = 1 + rng.below(40)
        m = generate_model(GeneratorSpec("interval", n, rng.next_u64() >> 1)).model
        assert is_chordal(build_interval_graph(m))


@criterion(11, "disk graphs color within three omega minus two")
def test_criterion_11_disk_coloring_bound():
    rng = SplitMix64(0x5EED)
    for _ in range(200):
        n = 1 + rng.below(9)
        pts = [(Fraction(rng.below(13), 2), Fraction(rng.below(13), 2))
               for _ in range(n)]
        g = build_unit_disk_graph(DiskPoints.build(pts, 1))
        chi = brute_solve(g, "chromatic_number").value
        omega = brute_solve(g, "max_clique").value
        assert chi <= 3 * omega - 2


@criterion(12, "box graphs are coordinate-wise meets; a 2-box 4-cycle verifies")
def test_criterion_12_boxes():
    rng = SplitMix64(0xB0C5)
    for _ in range(200):
        n = 1 + rng.below(30)
        k = 1 + rng.below(3)
        m = generate_model(GeneratorSpec("boxes", n, rng.next_u64() >> 1,
                                         {"k": k})).model
        g = build_box_graph(m)
        common = None
        for c in range(k):
            layer = build_interval_graph(IntervalModel.build(
                [box[c] for box in m.boxes]))
            common = layer.edges if common is None else common & layer.edges
        assert g.edges == common
        assert verify_box_representation(g, m)
    cycle = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    found = _search_two_box_cycle(cycle)
    assert found is not None
    assert verify_box_representation(cycle, found)


def _search_two_box_cycle(cycle: Graph):
    # bounded search over integer corner boxes inside [0, 3] x [0, 3]:
    # enumerate one-coordinate side assignments up to edge-set identity,
    # then look for two whose edge sets meet in exactly the cycle
    import itertools
    sides = [(a, b) for a in range(4) for b in range(a, 4)]
    assignments: dict[frozenset, tuple] = {}
    for combo in itertools.product(sides, repeat=4):
        key = frozenset(build_box_graph(KBoxModel.build(
            1, [[side] for side in combo])).edges)
        assignments.setdefault(key, combo)
    for e1, e2 in itertools.product(sorted(assignments, key=sorted), repeat=2):
        if e1 & e2 == cycle.edges:
            xs, ys = assignments[e1], assignments[e2]
            return KBoxModel.build(2, [[xs[v], ys[v]] for v in range(4)])
    return None


@criterion(13, "iterated line graphs behave by family")
def test_criterion_13_line_graph_iteration():
    for k in range(3, 9):
        cycle = Graph.build(k, [(i, i % k + 1) for i in range(1, k + 1)])
        assert are_isomorphic_bruteforce(cycle, line_graph(cycle)[0])
    claw = Graph.build(4, [(1, 2), (1, 3), (1, 4)])
    seq = iterate_line_graph(claw, 3)
    triangle = Graph.build(3, [(1, 2), (1, 3), (2, 3)])
    assert all(step == triangle for step in seq)
    for k in range(2, 8):
        path = Graph.build(k, [(i, i + 1) for i in range(1, k)])
        seq = iterate_line_graph(path, k + 3)
        assert len(seq) == k - 1
        assert seq[-1].n == 1
        if k >= 3:
            assert seq[-2].n == 2
    k4 = Graph.build(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    sizes = [k4.n] + [g.n for g in iterate_line_graph(k4, 3)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


@criterion(14, "modular stepping test agrees with point enumeration")
def test_criterion_14_dotted_crt():
    rng = SplitMix64(0x7777)
    disagreements = 0
    for _ in range(10_000):
        pair = []
        for _ in range(2):
            s = 1 + rng.below(1000)
            d = 1 + rng.below(20)
            pair.append(DottedInterval.build(s, s + d * rng.below(60), d))
        x, y = pair
        fast = dotted_intersect(x, y)
        slow = bool(set(x.points()) & set(y.points()))
        if fast != slow:
            disagreements += 1
    assert disagreements == 0


@criterion(15, "structured distance code beats brute budgets at scale")
def test_criterion_15_perf_smoke():
    # dense random strict model, three thousand vertices
    n = 3000
    rng = SplitMix64(2026)
    pool = list(range(1, 6 * n + 1))
    rng.shuffle(pool)
    pts = pool[:2 * n]
    rows = sorted((tuple(sorted((pts[2 * i], pts[2 * i + 1])))
                   for i in range(n)), key=lambda ab: ab[1])
    m = IntervalModel.build(rows, strict=True)
    t0 = time.perf_counter()
    dist = apsp_interval(m)
    apsp_time = time.perf_counter() - t0
    assert apsp_time < 5, f"apsp took {apsp_time:.2f} s"
    # oracle spot check: sweep out the adjacency, then plain queue search
    events = sorted([(a, 0, i) for i, (a, b) in enumerate(rows, 1)]
                    + [(b, 1, i) for i, (a, b) in enumerate(rows, 1)])
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    active: set[int] = set()
    for _, side, r in events:
        if side == 0:
            for s in active:
                adj[s].append(r)
                adj[r].append(s)
            active.add(r)
        else:
            active.discard(r)
    for src in (1, 777, n):
        row = _sparse_bfs(adj, n, src)
        assert all(dist[src - 1][v - 1] == row[v] for v in range(1, n + 1))

    # overlapping staircase, a hundred thousand vertices
    big_n = 100_000
    big_rows = [(5 * i, 5 * i + 6 + (i % 3)) for i in range(1, big_n + 1)]
    big = IntervalModel.build(big_rows, strict=True)
    t1 = time.perf_counter()
    spanner = tree_3_spanner(big)
    spanner_time = time.perf_counter() - t1
    assert spanner_time < 1, f"spanner took {spanner_time:.2f} s"
    tree = spanner.tree
    assert len(tree.edges) == big_n - 1
    for u, v in tree.edges:
        assert overlaps(big, u, v)
    tree_adj = _sparse_adj(big_n, tree.edges)
    reach = _sparse_bfs(tree_adj, big_n, 1)
    assert all(x is not None for x in reach[1:])
    graph_adj: list[list[int]] = [[] for _ in range(big_n + 1)]
    for i in range(1, big_n + 1):
        j = i + 1
        while j <= big_n and 5 * j <= big_rows[i - 1][1]:
            graph_adj[i].append(j)
            graph_adj[j].append(i)
            j += 1
    for src in (1, 40_000, 99_999):
        in_graph = _sparse_bfs(graph_adj, big_n, src)
        in_tree = _sparse_bfs(tree_adj, big_n, src)
        for v in range(1, big_n + 1, 997):
            assert in_graph[v] <= in_tree[v] <= 3 * in_graph[v]
