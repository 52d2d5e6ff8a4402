"""Every vectorised builder against the scalar pair loop in tests/helpers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import box_pred, disk_pred, pairwise_graph, random_graph, tolerance_pred
from isect import graph
from isect.arcs import ArcModel, _meet, build_circular_arc_graph
from isect.errors import MalformedModel
from isect.generators import GeneratorSpec, generate_model
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
    _integers,
    dotted_intersect,
    line_graph,
)
from isect.intervals import IntervalModel, build_interval_graph, overlaps
from isect.permutations import Permutation, build_permutation_graph
from isect.rng import SplitMix64, outputs
from isect.trapezoids import TrapezoidModel, build_trapezoid_graph, trapezoids_adjacent


def _line_reference(g):
    labels = g.sorted_edges()
    return pairwise_graph(len(labels),
                          lambda i, j: bool(set(labels[i - 1]) & set(labels[j - 1])))


# kind -> (builder, reference built by the pair loop)
REFERENCES = {
    "interval": (build_interval_graph,
                 lambda m: pairwise_graph(m.n, lambda i, j: overlaps(m, i, j))),
    "arcs": (build_circular_arc_graph,
             lambda m: pairwise_graph(m.n, lambda i, j: _meet(m.arcs[i - 1], m.arcs[j - 1]))),
    "permutation": (build_permutation_graph,
                    lambda p: pairwise_graph(p.n, lambda i, j: p.position(i) > p.position(j))),
    "trapezoid": (build_trapezoid_graph,
                  lambda m: pairwise_graph(m.n, lambda i, j: trapezoids_adjacent(
                      m.items[i - 1], m.items[j - 1]))),
    "dotted": (lambda items: build_ddig(items)[0],
               lambda items: pairwise_graph(len(items), lambda i, j: dotted_intersect(
                   items[i - 1], items[j - 1]))),
    "tolerance": (build_tolerance_graph, lambda r: pairwise_graph(r.n, tolerance_pred(r))),
    "chords": (build_circle_graph,
               lambda m: pairwise_graph(m.n, lambda i, j: chords_cross(
                   m.chords[i - 1], m.chords[j - 1]))),
    "disks": (build_unit_disk_graph, lambda p: pairwise_graph(p.n, disk_pred(p))),
    "boxes": (build_box_graph, lambda m: pairwise_graph(m.n, box_pred(m))),
    "graph": (lambda g: line_graph(g)[0], _line_reference),
}


def assert_matches(kind, model):
    build, reference = REFERENCES[kind]
    got, want = build(model), reference(model)
    assert got.n == want.n
    assert got.edges == want.edges
    assert all(type(u) is int and type(v) is int for u, v in got.edges)


EMPTY = {
    "interval": IntervalModel.build([]),
    "arcs": ArcModel.build([]),
    "permutation": Permutation.build([]),
    "trapezoid": TrapezoidModel.build([]),
    "dotted": (),
    "tolerance": ToleranceRep.build([], []),
    "chords": ChordModel.build([]),
    "disks": DiskPoints.build([]),
    "boxes": KBoxModel.build(2, []),
}


@pytest.mark.parametrize("kind", sorted(EMPTY))
def test_builders_give_the_empty_graph_on_empty_models(kind):
    assert_matches(kind, EMPTY[kind])
    assert REFERENCES[kind][0](EMPTY[kind]).n == 0


@pytest.mark.parametrize("kind", sorted(REFERENCES))
def test_builders_match_pair_loops_on_seeded_models(kind):
    for n in range(1, 41):
        for seed in (n, 1000 + n):
            model = generate_model(GeneratorSpec(kind, n, seed)).model
            if kind == "graph" and not model.edges:
                continue  # an edgeless graph has no line graph
            assert_matches(kind, model)


@pytest.mark.parametrize("cells", [1, 40, 150])
@pytest.mark.parametrize("kind", sorted(REFERENCES))
def test_builders_match_pair_loops_across_row_blocks(kind, cells, monkeypatch):
    monkeypatch.setattr(graph, "_BLOCK_CELLS", cells)
    for seed in (3, 4):
        model = generate_model(GeneratorSpec(kind, 37, seed)).model
        assert_matches(kind, model)


@pytest.mark.parametrize("cells, rows", [(40, 1), (100, 2), (300, 8)])
def test_pairs_graph_blocks_rows_within_the_cell_budget(cells, rows, monkeypatch):
    monkeypatch.setattr(graph, "_BLOCK_CELLS", cells)
    n, calls = 37, []

    def meets(I, J):
        calls.append((I.ravel().tolist(), J.ravel().tolist()))
        return (I * 7 + J * 3) % 5 < 2

    got = graph.pairs_graph(n, meets)
    want = pairwise_graph(n, lambda i, j: ((i - 1) * 7 + (j - 1) * 3) % 5 < 2)
    assert got.edges == want.edges
    assert all(type(u) is int and type(v) is int for u, v in got.edges)
    # consecutive blocks of rows from 0 through at least n-2, each against
    # the columns past its first row
    covered = [r for block, _ in calls for r in block]
    assert covered == list(range(len(covered))) and n - 1 <= len(covered) <= n
    assert all(len(block) == rows for block, _ in calls[:-1])
    assert all(cols == list(range(block[0] + 1, n)) for block, cols in calls)
    assert all(len(block) * len(cols) <= cells for block, cols in calls)


def _rational(rng: SplitMix64, top: int) -> Fraction:
    # few distinct values, so endpoints are often shared
    return Fraction(rng.below(top), 1 + rng.below(3))


def test_builders_match_pair_loops_on_raw_rational_models():
    rng = SplitMix64(0x5EED)
    for _ in range(150):
        n = rng.below(26)
        intervals = []
        while len(intervals) < n:
            a, b = sorted((_rational(rng, 12), _rational(rng, 12)))
            if a < b:
                intervals.append((a, b))
        assert_matches("interval", IntervalModel.build(intervals))
        # tolerance models allow points, shared ends and infinite tolerance
        spans = [sorted((_rational(rng, 12), _rational(rng, 12))) for _ in range(n)]
        tols = [INFINITE_TOLERANCE if rng.below(4) == 0 else _rational(rng, 9) + Fraction(1, 3)
                for _ in range(n)]
        assert_matches("tolerance", ToleranceRep.build(spans, tols))
        k = 1 + rng.below(3)
        boxes = [[sorted((_rational(rng, 10), _rational(rng, 10))) for _ in range(k)]
                 for _ in range(n)]
        assert_matches("boxes", KBoxModel.build(k, boxes))
        points = [(Fraction(rng.below(40), 1 + rng.below(7)),
                   Fraction(rng.below(40), 1 + rng.below(7))) for _ in range(n)]
        assert_matches("disks", DiskPoints.build(points, Fraction(1 + rng.below(20), 3)))
        ends = [Fraction(x, 7) for x in range(-3 * n, 3 * n)]
        rng.shuffle(ends)
        assert_matches("arcs", ArcModel.build(zip(ends[0:2 * n:2], ends[1:2 * n:2])))
        spots = [x * 10 ** 30 - 5 * n for x in range(4 * n)]
        rng.shuffle(spots)
        assert_matches("chords", ChordModel.build(zip(spots[0:2 * n:2], spots[1:2 * n:2])))


def test_tolerance_edge_cases_match_pair_loop():
    # touching at a point, nested points, equal infinite tolerances
    rep = ToleranceRep.build(
        [(0, 2), (2, 4), (1, 1), (1, 1), (0, 4), (0, 4), ("1/3", "7/3")],
        [1, 1, 1, "1/2", INFINITE_TOLERANCE, INFINITE_TOLERANCE, 2])
    assert_matches("tolerance", rep)
    assert build_tolerance_graph(rep).sorted_edges() == [(1, 5), (1, 6), (1, 7), (2, 5),
                                                         (2, 6), (5, 7), (6, 7)]


def test_disks_at_huge_coordinates_stay_exact():
    big = 10 ** 30
    far = Fraction(1, big)
    points = [(big, big), (big + 3, big + 4), (big + 3, big + 4 + far),
              (Fraction(big, 7), -big), (Fraction(big, 7) + Fraction(5, 2), -big)]
    assert_matches("disks", DiskPoints.build(points, 5))
    g = build_unit_disk_graph(DiskPoints.build(points, 5))
    # the 3-4-5 pair sits exactly on the threshold; 10^-30 further is out
    assert g.sorted_edges() == [(1, 2), (2, 3), (4, 5)]
    assert build_unit_disk_graph(DiskPoints.build(points, 5 - far)).sorted_edges() == [
        (2, 3), (4, 5)]
    rng = SplitMix64(77)
    for _ in range(20):
        n = 1 + rng.below(20)
        pts = [(big * rng.below(3) + Fraction(rng.below(50), 1 + rng.below(5)),
                -big + Fraction(rng.below(50), 1 + rng.below(5))) for _ in range(n)]
        assert_matches("disks", DiskPoints.build(pts, Fraction(1 + rng.below(60), 4)))


pairs = st.tuples(st.integers(-6, 12), st.integers(-6, 12)).map(sorted)


@settings(max_examples=80, deadline=None)
@given(st.lists(pairs.filter(lambda p: p[0] < p[1]), max_size=30))
def test_interval_builder_matches_pair_loop_property(intervals):
    assert_matches("interval", IntervalModel.build(intervals))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.lists(pairs, min_size=k, max_size=k),
                                              max_size=25))))
def test_box_builder_matches_pair_loop_property(k_boxes):
    k, boxes = k_boxes
    assert_matches("boxes", KBoxModel.build(k, boxes))


# each constructor given a "1/0" literal or an item of the wrong arity
BAD_MODELS = {
    "interval 1/0": lambda: IntervalModel.build([("1/0", 2)]),
    "interval arity": lambda: IntervalModel.build([(1, 2, 3)]),
    "arcs 1/0": lambda: ArcModel.build([("1/0", 2)]),
    "arcs arity": lambda: ArcModel.build([(1, 2, 3)]),
    "arcs none": lambda: ArcModel.build([None]),
    "disks point 1/0": lambda: DiskPoints.build([(0, "1/0")]),
    "disks radius 1/0": lambda: DiskPoints.build([(0, 0)], "1/0"),
    "disks arity": lambda: DiskPoints.build([(0, 0, 0)]),
    "disks none": lambda: DiskPoints.build([None]),
    "tolerance endpoint 1/0": lambda: ToleranceRep.build([("1/0", 2)], [1]),
    "tolerance 1/0": lambda: ToleranceRep.build([(0, 2)], ["1/0"]),
    "tolerance arity": lambda: ToleranceRep.build([(0,)], [1]),
    "boxes side 1/0": lambda: KBoxModel.build(1, [[(0, "1/0")]]),
    "boxes arity": lambda: KBoxModel.build(1, [[(0, 1, 2)]]),
    "boxes none": lambda: KBoxModel.build(1, [[None]]),
    "chords arity": lambda: ChordModel.build([(1, 2, 3)]),
    "chords none": lambda: ChordModel.build([None]),
    "trapezoid arity": lambda: TrapezoidModel.build([(1, 2, 1)]),
    "trapezoid none": lambda: TrapezoidModel.build([None]),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_constructors_reject_bad_items_as_malformed(case):
    with pytest.raises(MalformedModel):
        BAD_MODELS[case]()


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 + 1, 2 ** 63 + 5, 2 ** 64 - 1])
def test_stream_outputs_equal_successive_draws(seed):
    rng = SplitMix64(seed)
    want = [rng.next_u64() for _ in range(50)]
    ahead = SplitMix64(seed)
    assert outputs(ahead.skip(50), np.arange(1, 51)).tolist() == want
    assert ahead.next_u64() == rng.next_u64()


@pytest.mark.parametrize("n", [1, 2, 17, 100])
@pytest.mark.parametrize("seed", [1, 3, 2 ** 63 + 5])
def test_graph_generator_matches_the_coin_loop(n, seed):
    # one coin per pair in row-major order, then the weight draws that follow
    rng = SplitMix64(seed)
    want = random_graph(rng, n)
    weights = tuple(Fraction(rng.randint(1, 50)) for _ in range(n))
    mf = generate_model(GeneratorSpec("graph", n, seed, {"weights": True}))
    assert mf.model == want and mf.weights == weights


@st.composite
def progressions(draw):
    # starts and jumps below or past 2**30, so both integer forms are drawn
    top = draw(st.sampled_from([40, 2 ** 29, 2 ** 30 + 5, 2 ** 70]))
    jump = draw(st.sampled_from([1, 6, 50, top]))
    out = []
    for _ in range(draw(st.integers(0, 40))):
        s, d = draw(st.integers(1, top)), draw(st.integers(1, jump))
        out.append(DottedInterval.build(s, s + d * draw(st.integers(0, 30)), d))
    return out


@settings(max_examples=100, deadline=None)
@given(progressions())
def test_ddig_matches_the_pair_loop_property(items):
    assert_matches("dotted", items)
    assert build_ddig(items)[1] == max((it.d for it in items), default=0)


def test_ddig_with_many_distinct_jumps_matches_the_pair_loop():
    # coprime and shared-factor jumps up to 300: Euclid runs many rounds
    rng = SplitMix64(11)
    items = []
    for d in range(1, 301):
        s = 1 + rng.below(3000)
        items.append(DottedInterval.build(s, s + d * rng.below(40), d))
    assert_matches("dotted", items)


def test_scaled_integers_are_int64_only_below_two_to_the_thirty():
    assert _integers([Fraction(2 ** 30 - 1), Fraction(-(2 ** 30 - 1))]).dtype == np.int64
    assert _integers([Fraction(2 ** 30), Fraction(1)]).dtype == object
    assert _integers([Fraction(-(2 ** 30)), Fraction(1)]).dtype == object
    # scaled by the common denominator 3: 3 * (2**30 - 1) / 3 and 1/3 -> 1
    assert _integers([Fraction(2 ** 30 - 1, 3), Fraction(1, 3)]).dtype == np.int64
    assert _integers([Fraction(2 ** 30 + 1, 3), Fraction(1, 3)]).dtype == object
    assert _integers([]).dtype == np.int64


@pytest.mark.parametrize("edge", [2 ** 30 - 1, 2 ** 30])
def test_disks_and_tolerances_at_the_int64_bound_match_pair_loops(edge):
    # differences and squared distances at the largest int64 scale
    points = [(edge, edge), (-edge, -edge), (edge, -edge), (edge - 3, edge - 4), (0, 0)]
    for r in (5, edge, 2 * edge):
        assert_matches("disks", DiskPoints.build(points, r))
    spans = [(-edge, edge), (0, edge), (-edge, 0), (edge - 1, edge), (1, 2)]
    for tols in ([edge, edge - 5, INFINITE_TOLERANCE, 1, 3],
                 [2 * edge, edge, INFINITE_TOLERANCE, 1, Fraction(1, 2)]):
        assert_matches("tolerance", ToleranceRep.build(spans, tols))
