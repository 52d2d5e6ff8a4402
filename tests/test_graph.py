"""Graph value type and structural utilities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    acyclic_within_reference,
    adj_bits_reference,
    adj_reference,
    are_isomorphic_bruteforce_reference,
    balls_reference,
    bfs_distances_reference,
    check_cocomparability_order_reference,
    complement_reference,
    complete_graph,
    components_reference,
    cut_vertices_and_blocks_reference,
    cycle_graph,
    edge_set_reference,
    edge_text_reference,
    empty_graph,
    find_hole_reference,
    hinge_vertices_reference,
    is_comparability_bruteforce_reference,
    is_connected_reference,
    is_minimal_ab_separator_reference,
    is_tree_t_spanner_reference,
    metrics_reference,
    mwis_interval_reference,
    mwis_permutation_reference,
    next_to_shortest_reference,
    path_graph,
    random_graph,
    rational_pair_reference,
    rationals_reference,
    reach_reference,
    star_graph,
)
from isect.arcs import ArcModel, build_circular_arc_graph, mwis_circular_arc
from isect.chordal import _is_minimal_ab_separator
from isect.errors import (
    BadParams,
    DisconnectedGraph,
    IsectError,
    MalformedModel,
    NotSubgraph,
    SizeBudgetExceeded,
)
from isect.graph import (
    MAX_DENOMINATOR_BITS,
    Graph,
    _rationals,
    rational_pair,
    balls,
    bfs_apsp,
    bfs_distances,
    common_denominator,
    cut_vertices_and_blocks,
    hinge_vertices,
    is_tree_t_spanner,
    lex_trim,
    lex_weights,
    metrics,
    reach,
)
from isect.intervals import IntervalModel, build_interval_graph, mwis_interval
from isect.modelfile import _EDGE_JSON
from isect.oracles import (
    _acyclic_within,
    are_isomorphic_bruteforce,
    brute_solve,
    find_hole,
    is_comparability_bruteforce,
)
from isect.permutations import Permutation, build_permutation_graph, mwis_permutation
from isect.rng import SplitMix64
from isect.trapezoids import check_cocomparability_order


def test_build_normalizes_edges():
    g = Graph.build(3, [(3, 1), (2, 3)])
    assert g.sorted_edges() == [(1, 3), (2, 3)]
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(1, 2)


def test_build_rejects_bad_edges():
    with pytest.raises(MalformedModel):
        Graph.build(3, [(1, 1)])
    with pytest.raises(MalformedModel):
        Graph.build(3, [(1, 4)])
    with pytest.raises(MalformedModel):
        Graph.build(3, [(0, 2)])


@pytest.mark.parametrize("edges", [[(1, 2, 3)], [1, 2]], ids=["triple", "flat"])
def test_build_rejects_malformed_pairs(edges):
    with pytest.raises(MalformedModel) as err:
        Graph.build(3, edges)
    assert str(err.value) == f"edge item {edges[0]!r} is not a pair of vertices"


@pytest.mark.parametrize("weights, message", [
    ({99: 5}, "weight for unknown vertex 99"),
    ({4: 5}, "weight for unknown vertex 4"),
    ({0: 5}, "weight for unknown vertex 0"),
    ({"a": 5}, "weight for unknown vertex 'a'"),
    ({1: "x"}, "weight 'x' at vertex 1 is not a rational"),
    ({3: None}, "weight None at vertex 3 is not a rational"),
    ({2: -1}, "negative weight -1 at vertex 2"),
    (["x", 1, 1], "weight 'x' at vertex 1 is not a rational"),
    ([1, 1, None], "weight None at vertex 3 is not a rational"),
    ([1, 1], "expected 3 weights, got 2"),
], ids=["far", "above", "zero", "str-key", "str", "none", "negative", "seq-str", "seq-none", "short"])
def test_one_weight_rule_for_the_solvers_and_build(weights, message):
    models = [(mwis_interval, IntervalModel.build([(0, 1), (2, 3), (4, 5)])),
              (mwis_circular_arc, ArcModel.build([(0, 1), (2, 3), (4, 5)])),
              (mwis_permutation, Permutation.build([3, 1, 2]))]
    for solve, model in models:
        with pytest.raises(BadParams) as err:
            solve(model, weights)
        assert str(err.value) == message
    if isinstance(weights, dict):  # Graph.build takes a vertex-keyed mapping
        with pytest.raises(MalformedModel) as err:
            Graph.build(3, [(1, 2)], weights)
        assert str(err.value) == message


def test_build_takes_an_edge_array():
    g = Graph.build(4, np.array([[3, 1], [2, 3], [1, 3], [4, 2]], dtype=np.int32))
    assert g.sorted_edges() == [(1, 3), (2, 3), (2, 4)]
    assert all(type(u) is int and type(v) is int for u, v in g.edges)
    assert g == Graph.build(4, [(3, 1), (2, 3), (1, 3), (4, 2)])
    assert Graph.build(3, np.empty((0, 2), dtype=np.int64)).edges == frozenset()


@pytest.mark.parametrize("edges, message", [
    (np.array([[1, 2], [3, 3]]), "self-loop at vertex 3"),
    (np.array([[1, 2], [2, 5]]), "edge (2, 5) outside vertex range 1..4"),
    (np.array([[0, 2]]), "edge (0, 2) outside vertex range 1..4"),
    (np.array([[1.0, 2.0]]), "edge array must be (m, 2) integers, got float64 (1, 2)"),
    (np.array([1, 2]), "edge array must be (m, 2) integers, got int64 (2,)"),
    (np.array([[1, 2, 3]]), "edge array must be (m, 2) integers, got int64 (1, 3)"),
    (np.array([[[1, 2]]]), "edge array must be (m, 2) integers, got int64 (1, 1, 2)"),
    # booleans are not vertices
    (np.array([[True, False]]), "edge array must be (m, 2) integers, got bool (1, 2)"),
], ids=["loop", "above", "below", "float", "flat", "wide", "deep", "bool"])
def test_build_rejects_bad_edge_arrays(edges, message):
    with pytest.raises(MalformedModel) as err:
        Graph.build(4, edges)
    assert str(err.value) == message


def test_edge_array_errors_match_the_pair_path():
    for edges in ([(1, 2), (3, 3)], [(2, 1), (4, 6)], [(-1, 2)]):
        with pytest.raises(MalformedModel) as by_pairs:
            Graph.build(4, edges)
        with pytest.raises(MalformedModel) as by_array:
            Graph.build(4, np.array(edges))
        assert str(by_array.value) == str(by_pairs.value)


# -- the stored edge array against the frozenset core it replaced -----------

@st.composite
def _edge_inputs(draw):
    """n, and its edges as pairs or as an array: repeated, reversed, unsorted."""
    n = draw(st.integers(0, 12))
    pairs = [] if n < 2 else draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1]),
        max_size=40))
    form = draw(st.sampled_from(["pairs", "int8", "int32", "int64", "uint16", "uint64"]))
    if form == "pairs":
        return n, pairs
    return n, np.array(pairs, dtype=form).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(_edge_inputs())
@example((0, []))
@example((0, np.empty((0, 2), dtype=np.int64)))
@example((5, np.array([[5, 1], [1, 5], [2, 3], [3, 2], [1, 5]])))
def test_graph_views_equal_the_frozenset_core(case):
    n, edges = case
    want = edge_set_reference(n, edges)
    g = Graph.build(n, edges)
    assert g.edges == want
    assert g.sorted_edges() == sorted(want)
    assert g.adj == adj_reference(n, want)
    assert g.adj_bits == adj_bits_reference(n, want)
    assert all(type(x) is int for e in g.edges for x in e)
    assert all(type(x) is int for e in g.sorted_edges() for x in e)
    assert all(type(x) is int for nbrs in g.adj.values() for x in nbrs)
    assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (len(want), 2)
    assert not g.edge_array.flags.writeable
    assert g.edge_text("{u} {v}\n") == "".join(f"{u} {v}\n" for u, v in sorted(want))
    same = Graph.build(n, sorted(want, reverse=True))
    assert g == same and hash(g) == hash(same)
    assert g != Graph.build(n + 1, sorted(want))
    assert g != Graph.build(n, sorted(want), {v: 1 for v in range(1, n + 1)})
    if want:
        assert g != Graph.build(n, sorted(want)[1:])


def test_edge_text_on_sparse_vertex_ids():
    # a table over 0..10**12 would not fit; the ids in use are formatted instead
    g = Graph.build(10 ** 12, [(10 ** 12, 1), (5, 7), (7, 10 ** 12)])
    assert g.edge_text("{u}-{v}", ",") == "1-1000000000000,5-7,7-1000000000000"


# braces and non-ASCII text around the ends, so the byte tables hold more
# than one byte per character and the split keeps the other braces
EDGE_PATTERNS = ["{u} {v}\n", _EDGE_JSON, "«{x}» {u} → {v} {}ü"]


@st.composite
def _edge_text_graphs(draw):
    """Dense random graphs, paths, edgeless graphs, one edge, and sparse
    ids up to 2**62 that make edge_text table only the ids in use."""
    shape = draw(st.sampled_from(["dense", "path", "empty", "one", "sparse"]))
    if shape == "dense":
        return random_graph(SplitMix64(draw(st.integers(0, 2 ** 32))),
                            draw(st.integers(2, 60)), draw(st.integers(1, 3)), 3)
    if shape == "path":
        return path_graph(draw(st.integers(1, 3000)))
    if shape == "empty":
        return empty_graph(draw(st.integers(0, 5)))
    top = draw(st.sampled_from([2, 9, 10, 99, 100, 10 ** 6, 2 ** 62]))
    ends = st.integers(1, top)
    pairs = st.tuples(ends, ends).filter(lambda e: e[0] != e[1])
    size = (1, 1) if shape == "one" else (1, 12)
    return Graph.build(top, draw(st.lists(pairs, min_size=size[0], max_size=size[1])))


@settings(max_examples=300, deadline=None)
@given(_edge_text_graphs(), st.sampled_from(EDGE_PATTERNS),
       st.sampled_from(["", ",", ",\n", "; ", "·"]))
@example(path_graph(10_000), "{u} {v}\n", "")
@example(Graph.build(2 ** 62, [(1, 2 ** 62), (3, 2 ** 62 - 1)]), _EDGE_JSON, ",\n")
def test_edge_text_matches_the_parents_writer(g, pattern, sep):
    assert g.edge_text(pattern, sep) == edge_text_reference(g, pattern, sep)


def test_edge_text_rejects_a_nul_in_its_pattern():
    # the NUL padding of the name tables is dropped, and a NUL of the
    # pattern's own would go with it
    for g in (path_graph(3), empty_graph(2)):
        for pattern, sep in (("{u}\0{v}", ""), ("{u} {v}", "\0")):
            with pytest.raises(ValueError, match="NUL"):
                g.edge_text(pattern, sep)


def test_build_rejects_vertex_counts_past_int64():
    with pytest.raises(MalformedModel, match="64-bit"):
        Graph.build(2 ** 63, [])
    assert Graph.build(2 ** 63 - 1, [(1, 2 ** 63 - 1)]).sorted_edges() == [(1, 2 ** 63 - 1)]


def test_build_rejects_negative_weight():
    with pytest.raises(MalformedModel):
        Graph.build(2, [(1, 2)], weights={1: -1})


def test_weights_default_to_one():
    g = Graph.build(2, [(1, 2)], weights={1: Fraction(5, 2)})
    assert g.weight(1) == Fraction(5, 2)
    assert g.weight(2) == 1


def test_complement_of_path():
    assert path_graph(4).complement().sorted_edges() == [(1, 3), (1, 4), (2, 4)]


def test_has_edge_and_degree_outside_the_vertex_range():
    # vertex n has a neighbour, so reading row -1 as row n would show
    g = star_graph(4)
    for x in (0, -1, g.n + 1):
        assert not any(g.has_edge(x, y) or g.has_edge(y, x) for y in range(-1, g.n + 2))
        with pytest.raises(KeyError):
            g.degree(x)
    assert [g.degree(v) for v in g.vertices()] == [4, 1, 1, 1, 1]


def test_induced_relabels_and_maps_back():
    g = cycle_graph(5)
    sub, back = g.induced([2, 3, 5])
    assert sub.n == 3
    assert sub.sorted_edges() == [(1, 2)]  # only (2,3) survives
    assert back == {1: 2, 2: 3, 3: 5}


def test_components_and_connectivity():
    g = Graph.build(5, [(1, 2), (4, 5)])
    comps = sorted(tuple(sorted(c)) for c in g.components())
    assert comps == [(1, 2), (3,), (4, 5)]
    assert not g.is_connected()
    assert cycle_graph(4).is_connected()
    assert empty_graph(1).is_connected()


def test_bfs_apsp_path():
    assert bfs_apsp(path_graph(4)) == [
        [0, 1, 2, 3],
        [1, 0, 1, 2],
        [2, 1, 0, 1],
        [3, 2, 1, 0],
    ]


def test_bfs_apsp_marks_unreachable_with_none():
    d = bfs_apsp(empty_graph(2))
    assert d == [[0, None], [None, 0]]


def test_bfs_apsp_single_vertex():
    assert bfs_apsp(empty_graph(1)) == [[0]]


def test_metrics_c5():
    m = metrics(cycle_graph(5))
    assert set(m.ecc.values()) == {2}
    assert m.radius == 2 and m.diameter == 2
    assert m.center == frozenset({1, 2, 3, 4, 5})
    assert m.mean_distance == Fraction(3, 2)


def test_metrics_p4():
    m = metrics(path_graph(4))
    assert m.ecc == {1: 3, 2: 2, 3: 2, 4: 3}
    assert m.radius == 2 and m.diameter == 3
    assert m.center == frozenset({2, 3})
    assert m.mean_distance == Fraction(5, 3)


def test_metrics_requires_connected():
    with pytest.raises(DisconnectedGraph):
        metrics(empty_graph(2))
    with pytest.raises(MalformedModel):
        metrics(empty_graph(0))


def test_hinge_vertices():
    assert hinge_vertices(path_graph(3)) == frozenset({2})
    assert hinge_vertices(cycle_graph(4)) == frozenset()
    assert hinge_vertices(path_graph(5)) == frozenset({2, 3, 4})
    # C5 plus a chord: removing a chord endpoint stretches some pair
    g = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
    assert hinge_vertices(g) == frozenset({2, 5})


def test_cut_vertices_and_blocks_path():
    cuts, blocks = cut_vertices_and_blocks(path_graph(3))
    assert cuts == frozenset({2})
    assert sorted(tuple(sorted(b)) for b in blocks) == [(1, 2), (2, 3)]


def test_cut_vertices_and_blocks_cycle():
    cuts, blocks = cut_vertices_and_blocks(cycle_graph(4))
    assert cuts == frozenset()
    assert [tuple(sorted(b)) for b in blocks] == [(1, 2, 3, 4)]


def test_blocks_two_triangles_sharing_vertex():
    g = Graph.build(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    cuts, blocks = cut_vertices_and_blocks(g)
    assert cuts == frozenset({3})
    assert sorted(tuple(sorted(b)) for b in blocks) == [(1, 2, 3), (3, 4, 5)]


def test_blocks_cover_isolated_vertices():
    cuts, blocks = cut_vertices_and_blocks(empty_graph(2))
    assert cuts == frozenset()
    assert sorted(tuple(sorted(b)) for b in blocks) == [(1,), (2,)]


def test_blocks_cover_all_edges_random_shape():
    g = Graph.build(7, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 4), (6, 7)])
    cuts, blocks = cut_vertices_and_blocks(g)
    assert cuts == frozenset({3, 4, 6})
    covered = set()
    for b in blocks:
        for u in b:
            for v in b:
                if u < v and g.has_edge(u, v):
                    covered.add((u, v))
    assert covered == set(g.sorted_edges())


def test_tree_spanner_checks():
    c4 = cycle_graph(4)
    tree = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
    assert is_tree_t_spanner(c4, tree, 3)
    assert not is_tree_t_spanner(c4, tree, 2)
    assert is_tree_t_spanner(path_graph(4), path_graph(4), 1)


def test_tree_spanner_rejects_foreign_edge():
    with pytest.raises(NotSubgraph, match=r"edge \(1, 4\) of the claimed spanner"):
        is_tree_t_spanner(path_graph(4), Graph.build(4, [(1, 2), (2, 3), (1, 4)]), 3)
    # the smallest foreign edge is named, whatever order h holds them in
    with pytest.raises(NotSubgraph, match=r"edge \(1, 3\) of the claimed spanner"):
        is_tree_t_spanner(path_graph(4), Graph.build(4, [(2, 4), (1, 4), (1, 3)]), 3)


def test_tree_spanner_rejects_non_tree():
    c4 = cycle_graph(4)
    triangle_plus_isolated = Graph.build(4, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotSubgraph):
        # (1,3) is not an edge of C4
        is_tree_t_spanner(c4, triangle_plus_isolated, 3)
    k4 = complete_graph(4)
    assert not is_tree_t_spanner(k4, Graph.build(4, [(1, 2), (2, 3), (1, 3)]), 3)


def test_tree_spanner_accepts_fraction_stretch():
    star = star_graph(3)
    assert is_tree_t_spanner(star, star, Fraction(3, 2))


def test_tree_spanner_stretch_bound_is_exact():
    # the path tree of C4 stretches the edge (1, 4) to exactly 3
    c4, tree = cycle_graph(4), path_graph(4)
    big = 10 ** 30
    assert is_tree_t_spanner(c4, tree, Fraction(3 * big, big))
    assert not is_tree_t_spanner(c4, tree, Fraction(3 * big - 1, big))


# -- the witness rule --------------------------------------------------------

def test_lex_weights_scale_and_perturb():
    assert lex_weights([]) == []
    assert lex_weights([Fraction(1)] * 3) == [0b1100, 0b1010, 0b1001]
    # the common denominator 6 scales 1/2, 2/3 and 0 to 3, 4 and 0
    assert lex_weights([Fraction(1, 2), Fraction(2, 3), Fraction(0)]) == [
        3 << 3 | 4, 4 << 3 | 2, 1]


def test_lex_weights_order_sets_by_weight_then_first_difference():
    w = [Fraction(x) for x in (2, 1, 1, 0, 2)]
    lw = lex_weights(w)
    sets = [(1,), (1, 2), (1, 3), (2, 3), (5,), (1, 4), (2, 3, 4), (1, 2, 4), (1, 5)]
    total = {s: sum(lw[v - 1] for v in s) for s in sets}
    assert len(set(total.values())) == len(sets)
    for s in sets:
        for t in sets:
            true_s, true_t = sum(w[v - 1] for v in s), sum(w[v - 1] for v in t)
            if true_s != true_t:
                assert (total[s] > total[t]) == (true_s > true_t)
            elif s != t:
                first = min(set(s) ^ set(t))
                assert (total[s] > total[t]) == (first in s)


def test_common_denominator_stops_at_its_bit_budget():
    top = 1 << (MAX_DENOMINATOR_BITS - 1)  # a denominator of exactly the budget
    assert common_denominator([Fraction(1, top), Fraction(3, top), Fraction(2)]) == top
    assert common_denominator([]) == 1
    with pytest.raises(SizeBudgetExceeded):
        common_denominator([Fraction(1, top), Fraction(1, 3)])
    # the weighted solvers scale by it, so they refuse such weights too
    with pytest.raises(SizeBudgetExceeded):
        lex_weights([Fraction(1, 3 ** 400), Fraction(1, 5 ** 400)])
    with pytest.raises(SizeBudgetExceeded):
        mwis_interval(IntervalModel.build([(0, 1), (2, 3)]),
                      [Fraction(1, 3 ** 400), Fraction(1, 5 ** 400)])

def test_lex_trim_drops_the_zero_weight_tail():
    w = [Fraction(x) for x in (0, 1, 0, 0)]
    assert lex_trim([1, 2, 3, 4], w) == (1, 2)
    assert lex_trim([3, 4], w) == ()
    assert lex_trim([], w) == ()


def _weights(n: int):
    # none, unit, small integers with zeros, or rationals with zeros
    return st.one_of(
        st.none(),
        st.just([1] * n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.fractions(min_value=0, max_value=5, max_denominator=4),
                 min_size=n, max_size=n))


@st.composite
def _weighted_models(draw):
    n = draw(st.integers(0, 12))
    # half-integer intervals that may share endpoints or touch
    ends = draw(st.lists(st.tuples(st.integers(0, 2 * n + 1), st.integers(1, 3)),
                         min_size=n, max_size=n))
    interval = IntervalModel.build([(Fraction(a, 2), Fraction(a + d, 2)) for a, d in ends])
    perm = Permutation.build(draw(st.permutations(range(1, n + 1))))
    pool = draw(st.permutations(range(1, 4 * n + 1)))[:2 * n]
    arcs = ArcModel.build([(Fraction(pool[2 * k], 2), Fraction(pool[2 * k + 1], 2))
                           for k in range(n)])
    return interval, perm, arcs, draw(_weights(n))


def _brute_witness(g: Graph, weights) -> tuple[int, ...]:
    wmap = None if weights is None else dict(enumerate(weights, start=1))
    return brute_solve(Graph.build(g.n, g.edges, wmap), "mwis", max_n=16).witness


@settings(max_examples=150, deadline=None)
@given(_weighted_models())
def test_perturbed_witnesses_equal_the_references_and_the_oracle(case):
    interval, perm, arcs, weights = case
    got = mwis_interval(interval, weights)
    assert got == mwis_interval_reference(interval, weights)
    assert got == _brute_witness(build_interval_graph(interval), weights)
    got = mwis_permutation(perm, weights)
    assert got == mwis_permutation_reference(perm, weights)
    assert got == _brute_witness(build_permutation_graph(perm), weights)
    assert mwis_circular_arc(arcs, weights) == _brute_witness(
        build_circular_arc_graph(arcs), weights)


@st.composite
def _walk_cases(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    shape = draw(st.sampled_from(["random", "sparse", "split", "edgeless", "complete"]))
    if shape == "edgeless":
        pairs = []
    elif shape != "complete":
        side = draw(st.integers(0, n))  # "split": no edge joins 1..side to the rest
        keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        limit = {"random": 1, "sparse": 0, "split": 1}[shape]
        pairs = [(u, v) for (u, v), r in zip(pairs, keep)
                 if r <= limit and (shape != "split" or (u <= side) == (v <= side))]
    full = (1 << n) - 1
    start = draw(st.integers(0, full))
    within = draw(st.integers(0, full))
    cut = None
    if n >= 2:
        a, b = draw(st.permutations(range(1, n + 1)))[:2]
        others = [v for v in range(1, n + 1) if v not in (a, b)]
        cut = (frozenset(draw(st.lists(st.sampled_from(others), max_size=n)) if others
                         else []), a, b)
    return Graph.build(n, pairs), start, within, draw(st.integers(1, 3)), cut


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IsectError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(_walk_cases())
@example((Graph.build(0, []), 0, 0, 1, None))
@example((Graph.build(1, []), 1, 1, 2, None))
@example((Graph.build(2, []), 1, 3, 1, (frozenset(), 1, 2)))
@example((path_graph(12), 1, (1 << 12) - 1, 3, (frozenset({5}), 1, 12)))
def test_frontier_walk_matches_the_reference_helpers(case):
    g, start, within, k, cut = case
    for s in g.vertices():
        assert bfs_distances(g, s) == bfs_distances_reference(g, s)
    assert g.components() == components_reference(g)
    assert g.is_connected() == is_connected_reference(g)
    assert reach(g, start, within) == reach_reference(g, start, within)
    assert _acyclic_within(g, within) == acyclic_within_reference(g, within)
    assert balls(g, k) == balls_reference(g, k)
    if cut is not None:
        assert _is_minimal_ab_separator(g, *cut) == is_minimal_ab_separator_reference(g, *cut)
    assert _outcome(hinge_vertices, g) == _outcome(hinge_vertices_reference, g)
    # Metrics leaves ecc out of ==, so compare every field
    assert _outcome(lambda h: vars(metrics(h)), g) == _outcome(
        lambda h: vars(metrics_reference(h)), g)


_STRETCHES = [-1, 0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3,
              Fraction(3 * 10 ** 30, 10 ** 30), Fraction(3 * 10 ** 30 - 1, 10 ** 30), 10 ** 9]


@st.composite
def _spanner_cases(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    limit = draw(st.integers(0, 3))  # 0 is sparse and often disconnected, 3 complete
    keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    g_edges = [p for p, r in zip(pairs, keep) if r <= limit]
    # a spanning forest of g: its edges in a drawn order, each kept if it
    # joins two components so far (Kruskal)
    label, forest = list(range(n + 1)), []
    for u, v in draw(st.permutations(g_edges)):
        if label[u] != label[v]:
            old = label[v]
            label = [label[u] if x == old else x for x in label]
            forest.append((u, v))
    shape = draw(st.sampled_from(["forest", "subset", "foreign", "other n"]))
    if shape == "subset":  # trees, forests and graphs with cycles
        h = Graph.build(n, [p for p in g_edges if draw(st.booleans())])
    elif shape == "foreign":
        absent = [p for p in pairs if p not in set(g_edges)]
        h = Graph.build(n, forest + [draw(st.sampled_from(absent))] if absent else forest)
    else:
        h = Graph.build(n + (shape == "other n"), forest)
    return Graph.build(n, g_edges), h, draw(st.sampled_from(_STRETCHES))


@settings(max_examples=400, deadline=None)
@given(_spanner_cases())
@example((Graph.build(0, []), Graph.build(0, []), 3))
@example((Graph.build(1, []), Graph.build(1, []), -1))
@example((cycle_graph(4), path_graph(4), Fraction(3 * 10 ** 30 - 1, 10 ** 30)))
@example((complete_graph(12), star_graph(11), 2))
@example((path_graph(4), Graph.build(4, [(1, 2), (2, 3), (1, 4)]), 3))
def test_tree_spanner_check_matches_the_reference(case):
    g, h, t = case
    assert _outcome(is_tree_t_spanner, g, h, t) == _outcome(
        is_tree_t_spanner_reference, g, h, t)


# -- readers of the edge array and bit rows against the frozenset readers --

@st.composite
def _reader_cases(draw):
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    shape = draw(st.sampled_from(["random", "sparse", "dense", "interval", "tree", "cycle"]))
    if shape == "interval":
        ends = draw(st.permutations(range(1, 2 * n + 1)))
        edges = build_interval_graph(IntervalModel.build(
            [tuple(sorted(ends[2 * i:2 * i + 2])) for i in range(n)])).sorted_edges()
    elif shape == "tree":
        edges = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    elif shape == "cycle":  # a ring through some vertices, with a few chords
        ring = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(0, n))]
        edges = [(a, b) for a, b in zip(ring, ring[1:] + ring[:1]) if a != b]
        edges += draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    else:
        keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        limit = {"sparse": 0, "random": 1, "dense": 2}[shape]
        edges = [p for p, r in zip(pairs, keep) if r <= limit]
    weights = draw(st.none() | st.just({v: Fraction(v, 2) for v in range(1, n + 1)}))
    g = Graph.build(n, edges, weights)
    order = tuple(draw(st.permutations(range(1, n + 1))))
    twin = Graph.build(n, [(order[u - 1], order[v - 1]) for u, v in g.sorted_edges()])
    other = Graph.build(n, draw(st.lists(st.sampled_from(pairs), max_size=len(edges)))
                        if pairs else [])
    ends = (draw(st.integers(0, n + 1)), draw(st.integers(0, n + 1)))
    return g, order, (twin, other), ends, draw(st.integers(3, 6))


def _solution(g, u, v):
    sol = brute_solve(g, "next_to_shortest", u=u, v=v)
    return sol.value, sol.witness


@settings(max_examples=250, deadline=None)
@given(_reader_cases())
@example((Graph.build(0, []), (), (Graph.build(0, []),) * 2, (0, 1), 4))
@example((cycle_graph(5), (1, 3, 5, 2, 4), (cycle_graph(5), path_graph(5)), (1, 3), 4))
@example((complete_graph(8), tuple(range(8, 0, -1)), (complete_graph(8),) * 2, (1, 8), 3))
def test_bit_row_readers_match_the_references(case):
    g, order, others, (u, v), min_len = case
    assert g.complement() == complement_reference(g)
    assert cut_vertices_and_blocks(g) == cut_vertices_and_blocks_reference(g)
    for seq in (order, tuple(g.vertices()), order[1:]):  # the last leaves a vertex out
        assert _outcome(check_cocomparability_order, g, seq) == _outcome(
            check_cocomparability_order_reference, g, seq)
    assert find_hole(g, min_len) == find_hole_reference(g, min_len)
    assert _outcome(is_comparability_bruteforce, g) == _outcome(
        is_comparability_bruteforce_reference, g)
    for h in others:
        assert _outcome(are_isomorphic_bruteforce, g, h) == _outcome(
            are_isomorphic_bruteforce_reference, g, h)
    assert _outcome(_solution, g, u, v) == _outcome(next_to_shortest_reference, g, u, v)


# -- the edge-row sort and the rational coercions -------------------------------

@pytest.mark.parametrize("n", [7, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 62])
def test_edge_rows_sort_as_the_two_key_sort_does(n):
    # unsorted rows with repeats, some reversed; no adjacency is built
    rng = np.random.default_rng(n % 1000)
    for m in (0, 1, 2, 5, 40):
        ends = np.sort(rng.choice(np.array([1, 2, 3, n // 2, n - 1, n], dtype=np.int64),
                                  size=(m, 2)), axis=1)
        ends = ends[ends[:, 0] < ends[:, 1]]
        rows = np.concatenate([ends, ends[::2]])[rng.permutation(len(ends) + len(ends[::2]))]
        rows[::3] = rows[::3, ::-1]
        lo, hi = np.minimum(*rows.T), np.maximum(*rows.T)
        key = np.stack([lo, hi], axis=1)[np.lexsort((hi, lo))]
        want = key[np.r_[True, np.any(key[1:] != key[:-1], axis=1)]] if len(key) else key
        got = Graph.build(n, rows).edge_array
        assert got.dtype == np.int64 and np.array_equal(got, want.reshape(-1, 2))


weight_values = st.one_of(st.integers(-2, 5), st.fractions(min_value=-2, max_value=5),
                          st.sampled_from(["1/2", "-3/4", "x", "1/0", None, 0.5,
                                           float("inf"), True]))


@settings(max_examples=200, deadline=None)
@given(st.lists(weight_values, max_size=6), st.tuples(weight_values, weight_values))
def test_rational_coercions_match_the_parents(seq, pair):
    def outcome(f, *args):
        try:
            got = f(*args)
        except Exception as exc:
            return type(exc), str(exc)
        return got, [type(x) for x in got]

    ids = range(1, len(seq) + 1)
    assert outcome(_rationals, seq, ids, BadParams) == outcome(
        rationals_reference, seq, ids, BadParams)
    assert outcome(rational_pair, pair, "interval", 3) == outcome(
        rational_pair_reference, pair, "interval", 3)
