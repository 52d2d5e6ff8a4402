"""Trapezoid corner tests, derived representations, and order checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_cocomparability_order_reference, outcome
from isect.chordal import is_weakly_chordal_bruteforce
from isect.errors import MalformedModel
from isect.graph import Graph
from isect.permutations import Permutation, build_permutation_graph
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

DISJOINT = ((1, 2, 1, 2), (3, 4, 3, 4))
CROSSING = ((1, 3, 2, 4), (2, 4, 1, 3))
NESTED = ((2, 3, 2, 3), (1, 4, 1, 4))


def random_model(rng: SplitMix64, n: int) -> TrapezoidModel:
    top = list(range(1, 2 * n + 1))
    bot = list(range(1, 2 * n + 1))
    rng.shuffle(top)
    rng.shuffle(bot)
    items = []
    for i in range(n):
        a, b = sorted((top[2 * i], top[2 * i + 1]))
        c, d = sorted((bot[2 * i], bot[2 * i + 1]))
        items.append((a, b, c, d))
    items.sort(key=lambda it: it[1])
    return TrapezoidModel.build(items)


def random_permutation(rng: SplitMix64, n: int) -> Permutation:
    seq = list(range(1, n + 1))
    rng.shuffle(seq)
    return Permutation.build(seq)


def test_adjacency_fixtures():
    assert not trapezoids_adjacent(*DISJOINT)
    assert not trapezoids_adjacent(*reversed(DISJOINT))
    assert trapezoids_adjacent(*CROSSING)
    assert trapezoids_adjacent(*reversed(CROSSING))
    assert trapezoids_adjacent(*NESTED)
    assert trapezoids_adjacent(*reversed(NESTED))


def test_build_accepts_fixture_models():
    m = TrapezoidModel.build(CROSSING)
    assert m.n == 2 and not m.lines
    assert TrapezoidModel.build([]).n == 0


def test_build_rejects_bad_input():
    with pytest.raises(MalformedModel):
        TrapezoidModel.build([(2, 1, 1, 2), (3, 4, 3, 4)])
    with pytest.raises(MalformedModel):
        TrapezoidModel.build([(1, 2, 2, 1), (3, 4, 3, 4)])
    # top line skips coordinate 3
    with pytest.raises(MalformedModel):
        TrapezoidModel.build([(1, 2, 1, 2), (4, 5, 3, 4)])
    # b-sequence out of order
    with pytest.raises(MalformedModel):
        TrapezoidModel.build([(1, 4, 1, 4), (2, 3, 2, 3)])
    with pytest.raises(MalformedModel):
        TrapezoidModel.build([(1, 2.0, 1, 2)])


def test_build_graph_fixtures():
    strip = TrapezoidModel.build([(1, 2, 1, 2), (3, 4, 3, 4), (5, 6, 5, 6)])
    assert build_trapezoid_graph(strip).sorted_edges() == []
    pair = TrapezoidModel.build(CROSSING)
    assert build_trapezoid_graph(pair).sorted_edges() == [(1, 2)]
    nested = TrapezoidModel.build(NESTED)
    assert build_trapezoid_graph(nested).sorted_edges() == [(1, 2)]


def test_degenerate_lines_reproduce_permutation_graph():
    rng = SplitMix64(0x7A21)
    perms = [Permutation.build(range(1, 7)),
             Permutation.build(range(6, 0, -1))]
    perms += [random_permutation(rng, rng.randint(1, 12)) for _ in range(30)]
    for p in perms:
        m = TrapezoidModel.from_lines(p)
        assert m.lines
        got = build_trapezoid_graph(m)
        want = build_permutation_graph(p)
        assert got.sorted_edges() == want.sorted_edges()


def test_segment_fixtures():
    rep = to_segment_rep(TrapezoidModel.build(DISJOINT))
    assert rep.segments == (((1, 1), (2, 2)), ((3, 3), (4, 4)))
    assert not segments_joint(*rep.segments)
    crossing = to_segment_rep(TrapezoidModel.build(CROSSING)).segments
    assert segments_joint(*crossing)


def test_box_fixtures():
    rep = to_box_rep(TrapezoidModel.build(DISJOINT))
    assert rep.boxes == (((1, 1), (2, 2)), ((3, 3), (4, 4)))
    assert not boxes_incomparable(*rep.boxes)
    crossing = to_box_rep(TrapezoidModel.build(CROSSING)).boxes
    assert boxes_incomparable(*crossing)


def test_diagram_structure():
    rng = SplitMix64(0xBEA7)
    for n in (1, 2, 5, 9):
        m = random_model(rng, n)
        q, pairing = to_permutation_diagram(m)
        assert q.n == 2 * n
        assert pairing == tuple((a, b) for a, b, _, _ in m.items)
        for a, b, c, d in m.items:
            assert q.position(a) == c
            assert q.position(b) == d


def test_diagram_degenerate_collapses():
    rng = SplitMix64(0x51D3)
    for _ in range(10):
        p = random_permutation(rng, rng.randint(1, 10))
        q, pairing = to_permutation_diagram(TrapezoidModel.from_lines(p))
        assert q == p
        assert pairing == tuple((i, i) for i in range(1, p.n + 1))


def test_diagram_nested_pair_has_no_crossing_yet_is_adjacent():
    m = TrapezoidModel.build(NESTED)
    q, pairing = to_permutation_diagram(m)
    # all four boundary lines are parallel here
    for u in pairing[0]:
        for v in pairing[1]:
            assert (u - v) * (q.position(u) - q.position(v)) > 0
    assert diagram_adjacent(q, pairing, 1, 2)
    assert diagram_adjacent(q, pairing, 2, 1)


def test_four_way_agreement_on_corpus():
    rng = SplitMix64(0xC0FFEE)
    models = [TrapezoidModel.build(DISJOINT), TrapezoidModel.build(CROSSING),
              TrapezoidModel.build(NESTED)]
    for n in (1, 2, 3, 4, 6, 9, 14, 20):
        for _ in range(6):
            models.append(random_model(rng, n))
    for _ in range(8):
        models.append(TrapezoidModel.from_lines(
            random_permutation(rng, rng.randint(1, 9))))
    for m in models:
        g = build_trapezoid_graph(m)
        segs = to_segment_rep(m).segments
        boxes = to_box_rep(m).boxes
        q, pairing = to_permutation_diagram(m)
        for i in range(1, m.n + 1):
            for j in range(i + 1, m.n + 1):
                corner = trapezoids_adjacent(m.items[i - 1], m.items[j - 1])
                assert corner == g.has_edge(i, j)
                assert corner == segments_joint(segs[i - 1], segs[j - 1])
                assert corner == boxes_incomparable(boxes[i - 1], boxes[j - 1])
                assert corner == diagram_adjacent(q, pairing, i, j)


def test_index_order_is_a_cocomparability_witness():
    rng = SplitMix64(0x0DDE)
    for n in (1, 2, 4, 7, 12, 25, 60):
        for _ in range(4):
            m = random_model(rng, n)
            g = build_trapezoid_graph(m)
            assert check_cocomparability_order(g, range(1, n + 1))


def test_cocomparability_fixtures():
    c4 = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert check_cocomparability_order(c4, (1, 3, 2, 4))
    c5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert not check_cocomparability_order(c5, (1, 2, 3, 4, 5))
    edgeless = Graph.build(5, [])
    assert check_cocomparability_order(edgeless, (4, 2, 5, 1, 3))
    with pytest.raises(MalformedModel):
        check_cocomparability_order(c4, (1, 2, 3))
    with pytest.raises(MalformedModel):
        check_cocomparability_order(c4, (1, 2, 3, 3))


@st.composite
def graphs_and_orders(draw):
    """A random graph on 0..9 vertices at one of three densities, or the
    graph of a random trapezoid model; then an order, now and then with a
    vertex left out or listed twice."""
    n = draw(st.integers(0, 9))
    if draw(st.booleans()):
        top = draw(st.permutations(range(1, 2 * n + 1)))
        bot = draw(st.permutations(range(1, 2 * n + 1)))
        items = sorted((tuple(sorted(top[2 * i:2 * i + 2]))
                        + tuple(sorted(bot[2 * i:2 * i + 2])) for i in range(n)),
                       key=lambda it: it[1])
        g = build_trapezoid_graph(TrapezoidModel.build(items))
    else:
        density = draw(st.sampled_from([1, 2, 3]))
        g = Graph.build(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                            if draw(st.integers(0, 3)) < density])
    order = list(draw(st.permutations(range(1, n + 1))))
    fault = draw(st.sampled_from(["none"] * 6 + ["drop", "twice"]))
    if fault == "drop" and order:
        order.pop()
    elif fault == "twice" and order:
        order[-1] = order[0]
    return g, order


@settings(max_examples=400, deadline=None)
@given(graphs_and_orders())
def test_cocomparability_check_matches_the_reference(case):
    g, order = case
    for seq in (order, range(1, g.n + 1)):
        assert (outcome(check_cocomparability_order, g, seq)
                == outcome(check_cocomparability_order_reference, g, seq))


def test_no_order_rescues_a_five_cycle():
    import itertools

    c5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for order in itertools.permutations(range(1, 6)):
        assert not check_cocomparability_order(c5, order)


def test_trapezoid_graphs_are_weakly_chordal():
    c5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert not is_weakly_chordal_bruteforce(c5)
    assert is_weakly_chordal_bruteforce(Graph.build(4, [(1, 2), (2, 3), (3, 4)]))
    rng = SplitMix64(0x5EED)
    for n in (2, 4, 6, 8):
        for _ in range(8):
            g = build_trapezoid_graph(random_model(rng, n))
            assert is_weakly_chordal_bruteforce(g)
