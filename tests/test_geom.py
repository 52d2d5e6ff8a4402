"""Dotted intervals, tolerance reps, chords, disks, boxes, line graphs."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import classify_tolerance_rep_reference, outcome
from isect.arcs import ArcModel, arc_contains_point
from isect.errors import (
    BadParams,
    DimensionMismatch,
    EmptyGraph,
    MalformedModel,
    SharedEndpoint,
    SizeBudgetExceeded,
)
from isect.geom import (
    INFINITE_TOLERANCE,
    ChordModel,
    DiskPoints,
    DottedInterval,
    KBoxModel,
    ToleranceRep,
    build_box_graph,
    build_circle_graph,
    build_ddig,
    build_tolerance_graph,
    build_unit_disk_graph,
    chords_cross,
    classify_tolerance_rep,
    dotted_intersect,
    iterate_line_graph,
    line_graph,
    verify_box_representation,
)
from isect.generators import GeneratorSpec, generate_model
from isect.graph import Graph
from isect.intervals import IntervalModel, build_interval_graph
from isect.oracles import (
    are_isomorphic_bruteforce,
    brute_solve,
    is_interval_bruteforce,
)
from isect.rng import SplitMix64

DOTTED_SETS = [DottedInterval.build(1, 5, 2), DottedInterval.build(2, 3, 1),
              DottedInterval.build(1, 7, 2), DottedInterval.build(4, 6, 2),
              DottedInterval.build(6, 8, 2)]

TOL_INTERVALS = [(0, 3), (1, 4), (3, 9), (8, 11), (9, 11), (4, 8), (5, 7)]
TOL_VALUES = (1, 1, 4, 1, 1, 1, INFINITE_TOLERANCE)


def test_dotted_interval_validation():
    assert list(DottedInterval.build(1, 7, 2).points()) == [1, 3, 5, 7]
    with pytest.raises(MalformedModel):
        DottedInterval.build(5, 3, 1)
    with pytest.raises(MalformedModel):
        DottedInterval.build(1, 6, 2)
    with pytest.raises(MalformedModel):
        DottedInterval.build(0, 4, 2)
    with pytest.raises(MalformedModel):
        DottedInterval.build(1, 5, 0)
    with pytest.raises(MalformedModel):
        DottedInterval.build(1, "5", 2)


def test_dotted_intersect_fixtures():
    a = DottedInterval.build(1, 5, 2)
    b = DottedInterval.build(2, 3, 1)
    assert dotted_intersect(a, b)
    c = DottedInterval.build(1, 7, 2)
    d = DottedInterval.build(4, 6, 2)
    assert not dotted_intersect(c, d)
    for x in DOTTED_SETS:
        assert dotted_intersect(x, x)


def test_ddig_five_progressions():
    g, d = build_ddig(DOTTED_SETS)
    assert d == 2
    assert g.sorted_edges() == [(1, 2), (1, 3), (2, 3), (4, 5)]


def test_ddig_unit_jumps_match_interval_builder():
    rng = SplitMix64(0xD1D)
    for _ in range(25):
        n = rng.randint(1, 10)
        pool = list(range(1, 3 * n + 1))
        rng.shuffle(pool)
        pairs = [tuple(sorted((pool[2 * i], pool[2 * i + 1]))) for i in range(n)]
        dig, d = build_ddig([DottedInterval.build(a, b, 1) for a, b in pairs])
        assert d == 1
        assert dig.sorted_edges() == build_interval_graph(
            IntervalModel.build(pairs)).sorted_edges()


def test_ddig_singletons_are_isolated():
    g, d = build_ddig([DottedInterval.build(3, 3, 1), DottedInterval.build(5, 5, 1)])
    assert g.sorted_edges() == [] and d == 1


def test_dotted_congruence_path_matches_enumeration():
    rng = SplitMix64(0xC27)
    for _ in range(10000):
        xs = rng.randint(1, 1000)
        xd = rng.randint(1, 20)
        xt = xs + xd * rng.randint(0, (1000 - xs) // xd)
        ys = rng.randint(1, 1000)
        yd = rng.randint(1, 20)
        yt = ys + yd * rng.randint(0, (1000 - ys) // yd)
        x = DottedInterval.build(xs, xt, xd)
        y = DottedInterval.build(ys, yt, yd)
        want = bool(set(x.points()) & set(y.points()))
        assert dotted_intersect(x, y) == want


def test_tolerance_rep_validation():
    rep = ToleranceRep.build(TOL_INTERVALS, TOL_VALUES)
    assert rep.n == 7 and rep.length(3) == 6
    ToleranceRep.build([(2, 2)], [5])
    with pytest.raises(MalformedModel):
        ToleranceRep.build([(4, 2)], [1])
    with pytest.raises(MalformedModel):
        ToleranceRep.build([(1, 2)], [0])
    with pytest.raises(MalformedModel):
        ToleranceRep.build([(1, 2)], [1, 2])
    with pytest.raises(MalformedModel):
        ToleranceRep.build([(1, 2)], {2: 1})


def test_tolerance_graph_fixture():
    g = build_tolerance_graph(ToleranceRep.build(TOL_INTERVALS, TOL_VALUES))
    assert not g.has_edge(3, 7)
    assert g.sorted_edges() == [(1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (6, 7)]


def test_point_intervals_are_isolated():
    rep = ToleranceRep.build([(2, 2), (1, 5), (2, 9)], [1, 1, 1])
    g = build_tolerance_graph(rep)
    assert g.degree(1) == 0 and g.has_edge(2, 3)


def test_classify_tolerance_fixtures():
    fig = ToleranceRep.build(TOL_INTERVALS, TOL_VALUES)
    assert classify_tolerance_rep(fig) == {"bounded": False, "regular": False}
    matched = ToleranceRep.build([(0, 3), (5, 8)], [3, 3])
    assert classify_tolerance_rep(matched) == {"bounded": True, "regular": False}
    tweaked = ToleranceRep.build([(0, 3), (5, 8)], [1, 2])
    assert classify_tolerance_rep(tweaked) == {"bounded": True, "regular": True}
    shared = ToleranceRep.build([(0, 3), (3, 8)], [1, 2])
    assert classify_tolerance_rep(shared)["regular"] is False


@st.composite
def tolerance_reps(draw):
    """Point intervals, shared endpoints, repeated and infinite tolerances."""
    ends = st.sampled_from([Fraction(k, 2) for k in range(9)])
    ivs = draw(st.lists(st.tuples(ends, ends).map(sorted), max_size=8))
    tol = st.sampled_from([INFINITE_TOLERANCE, Fraction(1, 2), 1, 2, 3])
    return ToleranceRep.build(ivs, draw(st.lists(tol, min_size=len(ivs), max_size=len(ivs))))


@settings(max_examples=200, deadline=None)
@given(tolerance_reps())
def test_classify_tolerance_matches_the_reference(rep):
    assert outcome(classify_tolerance_rep, rep) == outcome(classify_tolerance_rep_reference, rep)


def test_constant_tolerance_graphs_are_interval():
    rng = SplitMix64(0x70E)
    for _ in range(30):
        n = rng.randint(1, 8)
        ivs = []
        for _ in range(n):
            lo = Fraction(rng.randint(0, 30), 2)
            ivs.append((lo, lo + Fraction(rng.randint(0, 20), 2)))
        tol = Fraction(rng.randint(1, 8), 2)
        g = build_tolerance_graph(ToleranceRep.build(ivs, [tol] * n))
        assert is_interval_bruteforce(g)


def test_tiny_equal_tolerances_reproduce_interval_builder():
    rng = SplitMix64(0x71E)
    for _ in range(25):
        n = rng.randint(1, 10)
        pool = list(range(1, 2 * n + 1))
        rng.shuffle(pool)
        pairs = [tuple(sorted((pool[2 * i], pool[2 * i + 1]))) for i in range(n)]
        rep = ToleranceRep.build(pairs, [Fraction(1, 1000)] * n)
        assert build_tolerance_graph(rep).sorted_edges() == build_interval_graph(
            IntervalModel.build(pairs)).sorted_edges()


def test_circle_fixtures():
    assert chords_cross((1, 3), (2, 4))
    assert not chords_cross((1, 2), (3, 4))
    g = build_circle_graph(ChordModel.build([(1, 3), (2, 4)]))
    assert g.sorted_edges() == [(1, 2)]
    g = build_circle_graph(ChordModel.build([(1, 2), (3, 4)]))
    assert g.sorted_edges() == []
    with pytest.raises(SharedEndpoint):
        ChordModel.build([(1, 2), (2, 4)])
    with pytest.raises(SharedEndpoint):
        ChordModel.build([(3, 3)])
    with pytest.raises(MalformedModel):
        ChordModel.build([(1, "2")])


def _circle_point(t: int) -> tuple[Fraction, Fraction]:
    tt = Fraction(t)
    return (1 - tt * tt) / (1 + tt * tt), 2 * tt / (1 + tt * tt)


def _segments_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    return (orient(p1, p2, q1) * orient(p1, p2, q2) < 0
            and orient(q1, q2, p1) * orient(q1, q2, p2) < 0)


def test_circle_builder_matches_segment_geometry():
    rng = SplitMix64(0x5E6)
    for _ in range(40):
        n = rng.randint(1, 9)
        pool = list(range(1, 4 * n + 1))
        rng.shuffle(pool)
        picks = sorted(pool[:2 * n])
        rng.shuffle(picks)
        chords = [(picks[2 * i], picks[2 * i + 1]) for i in range(n)]
        m = ChordModel.build(chords)
        g = build_circle_graph(m)
        rank = {p: k for k, p in enumerate(sorted(picks))}
        pts = {p: _circle_point(rank[p]) for p in picks}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                (a1, a2), (b1, b2) = m.chords[i - 1], m.chords[j - 1]
                want = _segments_cross(pts[a1], pts[a2], pts[b1], pts[b2])
                assert g.has_edge(i, j) == want


def test_unit_disk_fixtures():
    two = DiskPoints.build([(0, 0), (3, 4)], r=5)
    assert build_unit_disk_graph(two).sorted_edges() == [(1, 2)]
    far = DiskPoints.build([(0, 0), (50, 0), (0, 50)], r=2)
    assert build_unit_disk_graph(far).sorted_edges() == []
    with pytest.raises(BadParams):
        DiskPoints.build([(0, 0)], r=0)


def test_unit_disk_grid_is_rook_step():
    pts = [(x, y) for x in range(3) for y in range(3)]
    g = build_unit_disk_graph(DiskPoints.build(pts, r=1))
    want = []
    for i, (x1, y1) in enumerate(pts, start=1):
        for j in range(i + 1, 10):
            x2, y2 = pts[j - 1]
            if abs(x1 - x2) + abs(y1 - y2) == 1:
                want.append((i, j))
    assert g.sorted_edges() == sorted(want)
    assert len(g.edges) == 12


def test_unit_disk_coloring_bound():
    rng = SplitMix64(0x0D15C)
    for _ in range(60):
        n = rng.randint(1, 9)
        pts = [(Fraction(rng.randint(0, 24), 8), Fraction(rng.randint(0, 24), 8))
               for _ in range(n)]
        g = build_unit_disk_graph(DiskPoints.build(pts, r=1))
        chi = brute_solve(g, "chromatic_number").value
        omega = brute_solve(g, "max_clique").value
        assert chi <= 3 * omega - 2


@pytest.mark.parametrize("build", [
    lambda x: IntervalModel.build([(0, x)]),
    lambda x: ArcModel.build([(0, x)]),
    lambda x: DiskPoints.build([(0, x)], 1),
    lambda x: DiskPoints.build([(0, 0)], x),
    lambda x: KBoxModel.build(1, [[(0, x)]]),
    lambda x: arc_contains_point((1, 3), x),
    lambda x: ToleranceRep.build([(0, x)], [1]),
])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_a_non_finite_coordinate_is_a_malformed_model(build, x):
    with pytest.raises(MalformedModel, match="not .*rational"):
        build(x)


def test_an_infinite_tolerance_stays_legal():
    rep = ToleranceRep.build([(0, 2), (1, 3)], [math.inf, 1])
    assert rep.tolerances == (INFINITE_TOLERANCE, Fraction(1))


def test_box_validation():
    with pytest.raises(DimensionMismatch):
        KBoxModel.build(2, [[(0, 1)]])
    with pytest.raises(MalformedModel):
        KBoxModel.build(1, [[(2, 1)]])
    with pytest.raises(BadParams):
        KBoxModel.build(0, [])


def test_one_dimensional_boxes_match_interval_builder():
    rng = SplitMix64(0xB0C5)
    for _ in range(25):
        n = rng.randint(1, 10)
        pool = list(range(1, 2 * n + 1))
        rng.shuffle(pool)
        pairs = [tuple(sorted((pool[2 * i], pool[2 * i + 1]))) for i in range(n)]
        m = KBoxModel.build(1, [[p] for p in pairs])
        g = build_box_graph(m)
        assert g.sorted_edges() == build_interval_graph(
            IntervalModel.build(pairs)).sorted_edges()
        assert verify_box_representation(g, m)


def _drawn_boxes(rng: SplitMix64) -> KBoxModel:
    # a small coordinate range, so that sides often touch or coincide
    k, n = rng.randint(1, 3), rng.randint(1, 9)
    boxes = []
    for _ in range(n):
        lows = [rng.randint(0, 8) for _ in range(k)]
        boxes.append([(lo, lo + rng.randint(1, 4)) for lo in lows])
    return KBoxModel.build(k, boxes)


def test_box_graph_is_the_intersection_of_its_axis_graphs():
    rng = SplitMix64(0xB0E5)
    models = [_drawn_boxes(rng) for _ in range(40)]
    models += [generate_model(GeneratorSpec("boxes", n, seed, {"k": k})).model
               for k in (1, 2, 3) for n in (5, 12) for seed in (1, 2)]
    for m in models:
        axes = [build_interval_graph(IntervalModel.build([box[c] for box in m.boxes]))
                for c in range(m.k)]
        common = frozenset.intersection(*(g.edges for g in axes))
        assert build_box_graph(m).edges == common


def test_boxes_sharing_a_point_form_a_clique():
    m = KBoxModel.build(2, [[(-i, i), (-i, i)] for i in range(1, 6)])
    g = build_box_graph(m)
    assert len(g.edges) == 10
    assert verify_box_representation(g, m)


def test_two_box_representation_of_c4_found_by_search():
    c4 = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    sides = [(a, b) for a in range(4) for b in range(a, 4)]
    assignments = {}
    for combo in itertools.product(sides, repeat=4):
        m1 = KBoxModel.build(1, [[side] for side in combo])
        key = frozenset(build_box_graph(m1).edges)
        assignments.setdefault(key, combo)
    found = None
    for e1, e2 in itertools.product(sorted(assignments, key=sorted), repeat=2):
        if e1 & e2 == c4.edges and found is None:
            found = (assignments[e1], assignments[e2])
    assert found is not None
    boxes = [[found[0][v], found[1][v]] for v in range(4)]
    m = KBoxModel.build(2, boxes)
    assert verify_box_representation(c4, m)
    assert not verify_box_representation(Graph.build(4, [(1, 2)]), m)


LINE_BASE = Graph.build(6, [(1, 2), (1, 5), (1, 6), (2, 3), (3, 4), (4, 5), (4, 6)])


def test_line_graph_fixtures():
    lg, labels = line_graph(LINE_BASE)
    assert labels == ((1, 2), (1, 5), (1, 6), (2, 3), (3, 4), (4, 5), (4, 6))
    assert lg.sorted_edges() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 6), (3, 7),
                                 (4, 5), (5, 6), (5, 7), (6, 7)]
    k3 = Graph.build(3, [(1, 2), (1, 3), (2, 3)])
    lg, _ = line_graph(k3)
    assert lg.sorted_edges() == [(1, 2), (1, 3), (2, 3)]
    lg, _ = line_graph(Graph.build(3, [(1, 2), (2, 3)]))
    assert lg.sorted_edges() == [(1, 2)]
    with pytest.raises(EmptyGraph):
        line_graph(Graph.build(3, []))


def test_iterated_line_graph_behaviours():
    c5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for step in iterate_line_graph(c5, 3):
        assert are_isomorphic_bruteforce(step, c5)
    claw = Graph.build(4, [(1, 2), (1, 3), (1, 4)])
    for step in iterate_line_graph(claw, 2):
        assert step.n == 3 and len(step.edges) == 3
    p4 = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
    walk = iterate_line_graph(p4, 10)
    assert [g.n for g in walk] == [3, 2, 1]
    k4 = Graph.build(4, [e for e in itertools.combinations(range(1, 5), 2)])
    sizes = [g.n for g in iterate_line_graph(k4, 4)]
    assert sizes == sorted(sizes) and sizes[-1] > sizes[0]
    with pytest.raises(BadParams):
        iterate_line_graph(p4, 0)
    with pytest.raises(SizeBudgetExceeded):
        iterate_line_graph(k4, 10, max_size=30)


def _max_matching_bruteforce(g: Graph) -> int:
    best = 0
    edges = g.sorted_edges()
    for r in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, r):
            touched = [v for e in combo for v in e]
            if len(touched) == len(set(touched)):
                best = r
                break
        if best:
            break
    return best


def test_line_graph_independence_is_matching():
    rng = SplitMix64(0x11E)
    done = 0
    while done < 25:
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                 if rng.coin()]
        if not edges or len(edges) > 10:
            continue
        done += 1
        g = Graph.build(n, edges)
        lg, _ = line_graph(g)
        assert brute_solve(lg, "mis").value == _max_matching_bruteforce(g)
