import math
import time
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    apsp_interval_reference,
    arc_model_build_reference,
    interval_model_build_reference,
    normalize_reference,
    outcome,
)
from isect import intervals
from isect.arcs import ArcModel
from isect.errors import (
    BadParams,
    DisconnectedGraph,
    EmptyGraph,
    InstanceTooLarge,
    MalformedModel,
    NotStrict,
)
from isect.generators import GeneratorSpec, generate_model
from isect.graph import Graph, bfs_apsp, bfs_distances, is_tree_t_spanner, metrics
from isect.intervals import (
    IntervalModel,
    apsp_interval,
    build_interval_graph,
    build_interval_tree,
    diameter_and_center,
    distance_query,
    greedy_color,
    has_consecutive_ones,
    maximal_cliques_interval,
    mwis_interval,
    normalize,
    tree_3_spanner,
)
from isect.oracles import brute_solve, maximal_cliques_bruteforce
from isect.rng import SplitMix64


def random_model(rng: SplitMix64, n: int) -> IntervalModel:
    """Distinct integer endpoints: a shuffled pool split into pairs."""
    pool = list(range(1, 2 * n + 1))
    rng.shuffle(pool)
    pairs = []
    for i in range(n):
        x, y = pool[2 * i], pool[2 * i + 1]
        pairs.append((min(x, y), max(x, y)))
    return IntervalModel.build(pairs)


def connected_strict_models(seed: int, count: int, lo: int, hi: int):
    """Yield `count` connected strict models with sizes in [lo, hi]."""
    rng = SplitMix64(seed)
    got = 0
    attempts = 0
    while got < count:
        attempts += 1
        assert attempts < 100 * count, "generator kept producing disconnected models"
        n = rng.randint(lo, hi)
        strict, _ = normalize(random_model(rng, n))
        if strict.connected:
            got += 1
            yield strict


# -- model validation --------------------------------------------------------

def test_model_rejects_points_and_reversed():
    with pytest.raises(MalformedModel):
        IntervalModel.build([(1, 1)])
    with pytest.raises(MalformedModel):
        IntervalModel.build([(3, 2)])
    with pytest.raises(MalformedModel):
        IntervalModel.build([(0, "x")])


def test_strict_flag_checks():
    with pytest.raises(NotStrict):
        IntervalModel.build([(1, 3), (3, 5)], strict=True)
    with pytest.raises(NotStrict):
        IntervalModel.build([(5, 8), (1, 4)], strict=True)
    m = IntervalModel.build([(1, 4), (2, 5)], strict=True)
    assert m.n == 2 and m.left(2) == 2 and m.right(1) == 4


# -- graph construction ------------------------------------------------------

def test_build_graph_disjoint_and_nested():
    assert build_interval_graph(IntervalModel.build([(0, 1), (2, 3)])).edges == frozenset()
    g = build_interval_graph(IntervalModel.build([(0, 10), (1, 2), (3, 4)]))
    assert g.sorted_edges() == [(1, 2), (1, 3)]


STAGGERED = [(0, 3), (1, 4), (3, 9), (8, 11), (9, 11), (4, 8), (5, 7)]


def test_build_graph_staggered_family():
    g = build_interval_graph(IntervalModel.build(STAGGERED))
    assert g.has_edge(3, 7)
    assert g.sorted_edges() == [
        (1, 2), (1, 3), (2, 3), (2, 6), (3, 4), (3, 5),
        (3, 6), (3, 7), (4, 5), (4, 6), (6, 7),
    ]


# -- normalization -----------------------------------------------------------

def test_normalize_relabels_strict_input():
    m = IntervalModel.build([(1, 4), (2, 5)], strict=True)
    strict, order = normalize(m)
    assert strict.strict and order == (1, 2)
    assert strict.intervals == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))


def test_normalize_keeps_touching_adjacent():
    strict, order = normalize(IntervalModel.build([(0, 1), (1, 2)]))
    assert order == (1, 2)
    assert build_interval_graph(strict).has_edge(1, 2)


def test_normalize_staggered_family():
    m = IntervalModel.build(STAGGERED)
    strict, order = normalize(m)
    assert strict.strict
    assert sorted(x for ab in strict.intervals for x in ab) == list(range(1, 15))
    old = build_interval_graph(m)
    new = build_interval_graph(strict)
    mapped = {tuple(sorted((order[u - 1], order[v - 1]))) for u, v in new.edges}
    assert mapped == set(old.sorted_edges())


def test_normalize_rejects_a_strict_build_that_loses_an_edge(monkeypatch):
    def lossy(m):
        g = build_interval_graph(m)
        return Graph.build(g.n, g.edge_array[1:]) if m.strict else g

    monkeypatch.setattr(intervals, "build_interval_graph", lossy)
    with pytest.raises(MalformedModel) as err:
        normalize(IntervalModel.build(STAGGERED))
    assert str(err.value) == "normalization changed the intersection graph"


def test_normalize_rejects_a_strict_build_that_swaps_an_edge(monkeypatch):
    # the edge count still matches, so only the per-edge test can catch it
    def swapped(m):
        g = build_interval_graph(m)
        if not m.strict:
            return g
        apart = next((u, v) for u in range(1, m.n + 1) for v in range(u + 1, m.n + 1)
                     if not g.has_edge(u, v))
        return Graph.build(g.n, np.vstack([g.edge_array[1:], [apart]]))

    monkeypatch.setattr(intervals, "build_interval_graph", swapped)
    with pytest.raises(MalformedModel) as err:
        normalize(IntervalModel.build(STAGGERED))
    assert str(err.value) == "normalization changed the intersection graph"


rational = st.fractions(min_value=-12, max_value=12, max_denominator=6)
interval_pairs = (
    st.tuples(rational, rational)
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: (min(t), max(t)))
)
small_models = st.lists(interval_pairs, min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(small_models)
def test_normalize_preserves_graph_property(pairs):
    m = IntervalModel.build(pairs)
    strict, order = normalize(m)
    assert sorted(order) == list(range(1, m.n + 1))
    old = build_interval_graph(m)
    new = build_interval_graph(strict)
    mapped = {tuple(sorted((order[u - 1], order[v - 1]))) for u, v in new.edges}
    assert mapped == old.edges


# rational ends on a short grid make shared endpoints common
grid = st.sampled_from([Fraction(k, 3) for k in range(13)])
tied_pairs = st.tuples(grid, grid).filter(lambda t: t[0] != t[1]).map(
    lambda t: (min(t), max(t)))


@settings(max_examples=200, deadline=None)
@given(st.lists(tied_pairs, max_size=12))
@example([])
@example([(0, 1)])
def test_normalize_matches_the_reference(pairs):
    m = IntervalModel.build(pairs)
    assert outcome(normalize, m) == outcome(normalize_reference, m)


@settings(max_examples=60, deadline=None)
@given(small_models)
def test_spans_order_like_the_rationals(pairs):
    # small denominators over a short range make shared endpoints common
    m = IntervalModel.build(pairs)
    pts = [x for ab in m.intervals for x in ab]
    ranks = [x for ab in m.spans for x in ab]
    assert sorted(set(ranks)) == list(range(1, len(set(pts)) + 1))
    for x, rx in zip(pts, ranks):
        for y, ry in zip(pts, ranks):
            assert (x < y) == (rx < ry) and (x == y) == (rx == ry)


@st.composite
def grid_models(draw):
    """0..12 intervals starting on the grid k / 3 in [0, 12], at most 2/3, 2
    or 12 long by draw, so shared and touching ends are common, and so are
    connected and disconnected models."""
    n = draw(st.integers(0, 12))
    top = draw(st.sampled_from([2, 6, 36]))
    starts = draw(st.lists(st.integers(0, 36), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    return IntervalModel.build([(Fraction(a, 3), Fraction(a + d, 3))
                                for a, d in zip(starts, lengths)])


@settings(max_examples=300, deadline=None)
@given(grid_models())
@example(IntervalModel.build([]))
@example(IntervalModel.build([(0, 1), (1, 2)]))
@example(IntervalModel.build([(0, 1), (2, 3), (1, 2)]))
@example(IntervalModel.build([(0, 1), (Fraction(3, 2), 2)]))
def test_connected_matches_the_graph(m):
    assert m.connected == build_interval_graph(m).is_connected()


@settings(max_examples=60, deadline=None)
@given(small_models)
def test_umbrella_property(pairs):
    strict, _ = normalize(IntervalModel.build(pairs))
    g = build_interval_graph(strict)
    for u, w in g.edges:
        for v in range(u + 1, w):
            assert g.has_edge(v, w)


# -- interval tree -----------------------------------------------------------

def test_tree_on_triangle():
    m = IntervalModel.build([(1, 4), (2, 5), (3, 6)], strict=True)
    t = build_interval_tree(m)
    assert t.root == 3 and t.parent == {1: 3, 2: 3}
    assert t.H(1) == t.H(2) == 3 and t.height == 1
    assert t.main_path == (1, 3)


def test_tree_on_chain():
    m = IntervalModel.build([(1, 3), (2, 5), (4, 7)], strict=True)
    t = build_interval_tree(m)
    assert t.parent == {1: 2, 2: 3}
    assert t.height == 2 and t.main_path == (1, 2, 3)
    assert t.levels == (frozenset({3}), frozenset({2}), frozenset({1}))
    assert t.L(1) == 1 and t.L(2) == 1 and t.L(3) == 2


def test_tree_rejects_bad_input():
    with pytest.raises(NotStrict):
        build_interval_tree(IntervalModel.build([(1, 3), (2, 5)]))
    with pytest.raises(DisconnectedGraph):
        build_interval_tree(IntervalModel.build([(1, 2), (3, 4)], strict=True))
    with pytest.raises(EmptyGraph):
        build_interval_tree(IntervalModel.build([], strict=True))


def test_tree_invariants_on_random_models():
    for m in connected_strict_models(seed=11, count=20, lo=2, hi=40):
        g = build_interval_graph(m)
        t = build_interval_tree(m)
        n = m.n
        dist = bfs_distances(g, n)
        assert list(t.level) == [dist[u] for u in range(1, n + 1)]
        assert all(t.H(u) <= t.H(u + 1) for u in range(1, n))
        assert all(t.L(u) <= u <= t.H(u) for u in range(1, n + 1))
        for i in range(len(t.levels) - 1):
            assert max(t.levels[i + 1]) == min(t.levels[i]) - 1
        for lv in t.levels:
            lo, hi = min(lv), max(lv)
            assert lv == frozenset(range(lo, hi + 1))
        tg = t.tree_graph()
        assert len(tg.edges) == n - 1 and tg.is_connected()
        assert tg.edges <= g.edges


def test_tree_highest_and_lowest_are_the_closed_neighbourhood_ends():
    for m in connected_strict_models(seed=13, count=30, lo=1, hi=50):
        g = build_interval_graph(m)
        t = build_interval_tree(m)
        for u in range(1, m.n + 1):
            hood = g.adj[u] | {u}
            assert (t.H(u), t.L(u)) == (max(hood), min(hood))


# -- distance queries and APSP -----------------------------------------------

def test_distance_query_fixtures():
    m = IntervalModel.build([(1, 4), (2, 5), (3, 6)], strict=True)
    g = build_interval_graph(m)
    t = build_interval_tree(m)
    assert distance_query(t, g, 2, 2) == 0
    assert distance_query(t, g, 1, 2) == 1
    with pytest.raises(MalformedModel):
        distance_query(t, g, 0, 2)


def test_distance_query_matches_bfs():
    for m in connected_strict_models(seed=23, count=12, lo=2, hi=50):
        g = build_interval_graph(m)
        t = build_interval_tree(m)
        dist = bfs_apsp(g)
        for u in range(1, m.n + 1):
            for v in range(1, m.n + 1):
                assert distance_query(t, g, u, v) == dist[u - 1][v - 1]


def test_apsp_triangle_and_chain():
    k3 = IntervalModel.build([(1, 4), (2, 5), (3, 6)], strict=True)
    assert apsp_interval(k3) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    chain = IntervalModel.build([(i, i + 4) for i in range(1, 18, 3)], strict=True)
    g = build_interval_graph(chain)
    assert g.sorted_edges() == [(i, i + 1) for i in range(1, 6)]
    assert apsp_interval(chain)[0][5] == 5


def test_apsp_rejects_bad_input():
    with pytest.raises(NotStrict):
        apsp_interval(IntervalModel.build([(1, 3), (2, 5)]))
    with pytest.raises(DisconnectedGraph):
        apsp_interval(IntervalModel.build([(1, 2), (3, 4)], strict=True))
    with pytest.raises(EmptyGraph):
        apsp_interval(IntervalModel.build([], strict=True))


def test_apsp_matches_bfs():
    for m in connected_strict_models(seed=37, count=15, lo=1, hi=60):
        assert apsp_interval(m) == bfs_apsp(build_interval_graph(m))


@st.composite
def connected_pairs(draw):
    """Integer intervals, each meeting the union of those before it."""
    lo, hi = 0, draw(st.integers(1, 6))
    pairs = [(lo, hi)]
    for _ in range(draw(st.integers(0, 38))):
        a = draw(st.integers(lo - 4, hi))
        b = max(a, lo) + draw(st.integers(1, 6))
        pairs.append((a, b))
        lo, hi = min(lo, a), max(hi, b)
    return pairs


STAIRCASE = [(5 * i, 5 * i + 6 + (i % 3)) for i in range(1, 101)]


@settings(max_examples=200, deadline=None)
@given(connected_pairs())
@example([(0, 1)])
@example([(0, 2), (1, 3)])
@example(STAIRCASE)
def test_apsp_matches_the_reference(pairs):
    strict, _ = normalize(IntervalModel.build(pairs))
    assert outcome(apsp_interval, strict) == outcome(apsp_interval_reference, strict)


# -- diameter and center -----------------------------------------------------

def test_diameter_complete_and_chain():
    kn = IntervalModel.build([(i, 10 + i) for i in range(1, 7)], strict=True)
    diam, center = diameter_and_center(kn)
    assert diam == 1 and center == frozenset(range(1, 7))
    chain = IntervalModel.build([(i, i + 4) for i in range(1, 21, 3)], strict=True)
    assert diameter_and_center(chain)[0] == 6


def test_diameter_and_center_match_metrics():
    for m in connected_strict_models(seed=41, count=20, lo=1, hi=45):
        g = build_interval_graph(m)
        want = metrics(g)
        diam, center = diameter_and_center(m)
        assert diam == want.diameter
        assert center == want.center


# -- tree 3-spanner ----------------------------------------------------------

# raw tree distance between the adjacent pair (1,2) is 4 here, so the
# unmodified tree is not a 3-spanner but the reparented one is
SPANNER_WITNESS = [
    (0, 2), (1, 3), (Fraction(3, 2), 4), (Fraction(5, 2), 5), (Fraction(7, 2), 6),
]


def test_spanner_witness_model():
    m = IntervalModel.build(SPANNER_WITNESS, strict=True)
    g = build_interval_graph(m)
    raw = build_interval_tree(m).tree_graph()
    assert is_tree_t_spanner(g, raw, 3) is False
    s = tree_3_spanner(m)
    assert s.stretch == 3
    assert is_tree_t_spanner(g, s.tree, 3) is True
    assert s.main_vertices == (5, 3, 1)


def test_spanner_on_triangle_and_random():
    k3 = IntervalModel.build([(1, 4), (2, 5), (3, 6)], strict=True)
    assert is_tree_t_spanner(build_interval_graph(k3), tree_3_spanner(k3).tree, 3)
    for m in connected_strict_models(seed=53, count=20, lo=1, hi=60):
        g = build_interval_graph(m)
        s = tree_3_spanner(m)
        assert is_tree_t_spanner(g, s.tree, 3) is True
        levels = build_interval_tree(m).levels
        assert all(s.main_vertices[i] in levels[i] for i in range(len(levels)))


def test_spanner_hangs_each_vertex_on_the_next_main_path_vertex():
    # the construction one vertex at a time, from the interval tree's main path
    for m in connected_strict_models(seed=59, count=30, lo=1, hi=60):
        mp = build_interval_tree(m).main_path
        want = {(mp[i], mp[i + 1]) for i in range(len(mp) - 1)}
        want |= {(u, mp[bisect_left(mp, u)]) for u in range(1, m.n + 1) if u not in mp}
        s = tree_3_spanner(m)
        assert s.tree.edges == want and s.tree.n == m.n
        assert all(type(u) is int and type(v) is int for u, v in s.tree.edges)
        assert s.main_vertices == tuple(reversed(mp))


def test_spanner_rejects_bad_input():
    with pytest.raises(NotStrict):
        tree_3_spanner(IntervalModel.build([(1, 3), (2, 5)]))
    with pytest.raises(DisconnectedGraph):
        tree_3_spanner(IntervalModel.build([(1, 2), (3, 4)], strict=True))
    with pytest.raises(EmptyGraph):
        tree_3_spanner(IntervalModel.build([], strict=True))


# -- coloring ----------------------------------------------------------------

def test_greedy_color_fixtures():
    disjoint = IntervalModel.build([(i, i + 1) for i in range(0, 8, 2)])
    assert set(greedy_color(disjoint).values()) == {1}
    k3 = IntervalModel.build([(1, 4), (2, 5), (3, 6)])
    assert sorted(greedy_color(k3).values()) == [1, 2, 3]
    touching = IntervalModel.build([(0, 1), (1, 2)])
    assert sorted(greedy_color(touching).values()) == [1, 2]


def test_greedy_color_matches_oracle():
    rng = SplitMix64(67)
    for _ in range(25):
        n = rng.randint(1, 9)
        m = random_model(rng, n)
        g = build_interval_graph(m)
        coloring = greedy_color(m)
        for u, v in g.edges:
            assert coloring[u] != coloring[v]
        want = brute_solve(g, "chromatic_number").value
        assert len(set(coloring.values())) == want


# -- maximum weight independent sets -----------------------------------------

def test_mwis_fixtures():
    disjoint = IntervalModel.build([(i, i + 1) for i in range(0, 8, 2)])
    assert mwis_interval(disjoint) == (1, 2, 3, 4)
    k3 = IntervalModel.build([(1, 4), (2, 5), (3, 6)])
    assert mwis_interval(k3, [1, 5, 2]) == (2,)
    assert mwis_interval(k3, {2: 5, 3: 2}) == (2,)
    assert mwis_interval(k3, [0, 0, 0]) == ()
    with pytest.raises(BadParams):
        mwis_interval(k3, [1, -2, 1])
    with pytest.raises(BadParams):
        mwis_interval(k3, [1, 2])


def test_mwis_matches_oracle():
    rng = SplitMix64(71)
    for _ in range(25):
        n = rng.randint(1, 12)
        m = random_model(rng, n)
        weights = [rng.randint(0, 6) for _ in range(n)]
        g = build_interval_graph(m)
        got = mwis_interval(m, weights)
        # oracle weighs with the graph's weight map
        gw = Graph.build(g.n, g.sorted_edges(), {v: weights[v - 1] for v in g.vertices()})
        want = brute_solve(gw, "mwis", max_n=16)
        assert got == want.witness
        assert sum(weights[v - 1] for v in got) == want.value


def test_mwis_scales_to_a_weighted_model_of_1600():
    mf = generate_model(GeneratorSpec("interval", 1600, 1, {"weights": True}))
    t0 = time.perf_counter()
    mwis_interval(mf.model, mf.weights)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.25, f"mwis_interval took {elapsed:.3f} s at n = 1600"


# -- maximal cliques ---------------------------------------------------------

def test_maximal_cliques_fixtures():
    p3 = IntervalModel.build([(1, 4), (3, 6), (5, 8)], strict=True)
    assert maximal_cliques_interval(p3) == ((1, 2), (2, 3))
    k3 = IntervalModel.build([(1, 4), (2, 5), (3, 6)], strict=True)
    assert maximal_cliques_interval(k3) == ((1, 2, 3),)
    with pytest.raises(NotStrict):
        maximal_cliques_interval(IntervalModel.build([(1, 4), (3, 6)]))


def test_maximal_cliques_match_brute():
    rng = SplitMix64(79)
    for _ in range(20):
        n = rng.randint(1, 12)
        strict, _ = normalize(random_model(rng, n))
        g = build_interval_graph(strict)
        got = maximal_cliques_interval(strict)
        assert len(got) <= n
        assert {frozenset(c) for c in got} == {
            frozenset(c) for c in maximal_cliques_bruteforce(g)
        }
        # each vertex's cliques occupy a consecutive run of the list
        for v in g.vertices():
            hits = [i for i, c in enumerate(got) if v in c]
            assert hits == list(range(hits[0], hits[-1] + 1))


# -- consecutive ones --------------------------------------------------------

def test_consecutive_ones_basics():
    assert has_consecutive_ones([]) == ()
    assert has_consecutive_ones([(1, 0), (0, 1)]) == (0, 1)
    c4_cliques = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    assert has_consecutive_ones(c4_cliques) is None
    with pytest.raises(InstanceTooLarge):
        has_consecutive_ones([[1]] * 9)
    with pytest.raises(BadParams):
        has_consecutive_ones([(1, 0), (1,)])
    with pytest.raises(BadParams):
        has_consecutive_ones([(1, 2)])


def test_clique_matrices_have_consecutive_ones():
    rng = SplitMix64(83)
    for _ in range(10):
        n = rng.randint(1, 10)
        strict, _ = normalize(random_model(rng, n))
        cliques = maximal_cliques_interval(strict)[:8]
        matrix = [[1 if v in c else 0 for v in range(1, n + 1)] for c in cliques]
        assert has_consecutive_ones(matrix) is not None


# -- the rank-checked constructors against the parent's ------------------------

def _built(build, *args):
    try:
        m = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    pairs = m.intervals if isinstance(m, IntervalModel) else m.arcs
    return m, m.spans, [tuple(map(type, p)) for p in pairs]


values = st.one_of(st.integers(-3, 8), st.integers(-3, 8),
                   st.fractions(min_value=-3, max_value=8, max_denominator=4),
                   st.sampled_from(["1/2", "3", "x", "1/0", None, 0.5, True, math.inf]))
raw_items = st.lists(st.one_of(st.tuples(values, values), st.tuples(values, values),
                               st.sampled_from([None, (1, 2, 3), "12", 7, ()])),
                     max_size=7)


@settings(max_examples=200, deadline=None)
@given(raw_items, st.booleans())
def test_constructors_match_the_parents_checks(items, strict):
    assert (_built(IntervalModel.build, items, strict)
            == _built(interval_model_build_reference, items, strict))
    assert _built(ArcModel.build, items) == _built(arc_model_build_reference, items)


def test_first_fault_in_item_order_is_reported():
    # a point before an item that is no pair: the point is named
    with pytest.raises(MalformedModel, match="interval 1: .* no interior"):
        IntervalModel.build([(2, 1), ("x", "y")])
    with pytest.raises(MalformedModel, match="interval 2 is not a pair"):
        IntervalModel.build([(1, 2), ("x", "y"), (3, 3)])
    with pytest.raises(MalformedModel, match="interval 2: .* no interior"):
        IntervalModel.build([(1, 2), (Fraction(5, 2), "5/2"), (3, 3)])
    # a coinciding arc is named before a shared endpoint, wherever it falls
    with pytest.raises(MalformedModel, match="arc 3 has coinciding endpoints"):
        ArcModel.build([(1, 2), (2, 5), (7, 7)])
    with pytest.raises(MalformedModel, match="arcs 1 and 2 share the endpoint 2"):
        ArcModel.build([(1, 2), (2, 5), (7, 8)])
    with pytest.raises(MalformedModel, match="arc 1 has coinciding endpoints"):
        ArcModel.build([(4, 4), None])
    # an endpoint Fraction cannot take at all still comes after an earlier fault
    with pytest.raises(MalformedModel, match="interval 1: .* no interior"):
        IntervalModel.build([(2, 1), (0, math.inf)])
    with pytest.raises(MalformedModel, match="arc 1 has coinciding endpoints"):
        ArcModel.build([(4, 4), (0, math.inf)])
    with pytest.raises(MalformedModel, match="interval 2 is not a pair of rationals"):
        IntervalModel.build([(1, 2), (0, math.inf)])
