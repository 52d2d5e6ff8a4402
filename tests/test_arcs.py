import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (apsp_circular_arc_reference, hops_reference, is_proper_reference,
                     mwis_circular_arc_reference, outcome)
from isect.arcs import (
    ArcModel,
    CIParams,
    _ci_raw,
    _hops,
    _inside,
    _uncovered_gap,
    apsp_circular_arc,
    arc_contains_point,
    arcs_intersect,
    arcs_to_intervals_with_sentinel,
    build_circular_arc_graph,
    canonicalize,
    delete_closed_neighborhood,
    generate_ci,
    is_proper,
    mwis_circular_arc,
    split_at_cut,
    straighten_at_gap,
)
from isect.errors import (
    BadParams,
    DisconnectedGraph,
    EmptyGraph,
    MalformedModel,
    SharedEndpoint,
)
from isect.generators import GeneratorSpec, generate_model
from isect.graph import Graph, bfs_apsp
from isect.intervals import build_interval_graph, overlaps
from isect.oracles import brute_solve, is_interval_bruteforce
from isect.rng import SplitMix64

# three arcs pairwise overlapping across the standard cut
K3_ARCS = [(1, 4), (2, 6), (5, 3)]
# four arcs closing a ring around the circle
RING4 = [(1, 4), (3, 6), (5, 8), (7, 2)]
RING5 = [(1, 4), (3, 6), (5, 8), (7, 10), (9, 2)]
# a path of three arcs leaving the gap after 6 uncovered
PATH3 = [(1, 3), (2, 5), (4, 6)]


def random_arc_model(rng: SplitMix64, n: int) -> ArcModel:
    pool = list(range(1, 2 * n + 1))
    rng.shuffle(pool)
    model, _ = canonicalize([(pool[2 * k], pool[2 * k + 1]) for k in range(n)])
    return model


def connected_arc_models(seed: int, count: int, lo: int, hi: int) -> list[ArcModel]:
    rng = SplitMix64(seed)
    out: list[ArcModel] = []
    guard = 0
    while len(out) < count:
        guard += 1
        assert guard < 80 * count, "rejection sampling stalled"
        m = random_arc_model(rng, rng.randint(lo, hi))
        if m.connected:
            out.append(m)
    return out


# -- model construction ------------------------------------------------------

def test_build_flags():
    k3 = ArcModel.build(K3_ARCS)
    assert k3.canonical and k3.covers_circle and k3.n == 3
    path = ArcModel.build(PATH3)
    assert path.canonical and not path.covers_circle
    raw = ArcModel.build([(Fraction(1, 2), 7), (3, Fraction(9, 4))])
    assert not raw.canonical


def test_build_rejects_shared_endpoints():
    with pytest.raises(SharedEndpoint):
        ArcModel.build([(1, 4), (4, 2)])
    with pytest.raises(SharedEndpoint):
        ArcModel.build([(3, 3)])
    with pytest.raises(MalformedModel):
        ArcModel.build([(1, "x")])


def test_contains_and_intersects_fixtures():
    assert arc_contains_point((1, 4), 2)
    assert not arc_contains_point((1, 4), 5)
    assert arc_contains_point((7, 2), 8)
    assert arcs_intersect((1, 4), (3, 6))
    assert not arcs_intersect((1, 4), (5, 8))
    assert arcs_intersect((1, 4), (2, 3))


def test_arc_predicates_name_their_bad_input():
    with pytest.raises(MalformedModel) as err:
        arcs_intersect(("a", 1), (2, 3))
    assert str(err.value) == "arc 1 is not a pair of rationals: ('a', 1)"
    with pytest.raises(MalformedModel) as err:
        arcs_intersect((1,), (2, 3))
    assert str(err.value) == "arc 1 is not a pair of rationals: (1,)"
    with pytest.raises(MalformedModel) as err:
        arc_contains_point((1, 3), None)
    assert str(err.value) == "point is not rational: None"
    with pytest.raises(MalformedModel) as err:
        arc_contains_point((1, 2, 3), 2)
    assert str(err.value) == "arc 1 is not a pair of rationals: (1, 2, 3)"


def test_build_graph_fixtures():
    assert build_circular_arc_graph(ArcModel.build(K3_ARCS)).sorted_edges() == [
        (1, 2), (1, 3), (2, 3)]
    ring = build_circular_arc_graph(ArcModel.build(RING4))
    assert ring.sorted_edges() == [(1, 2), (1, 4), (2, 3), (3, 4)]


def test_gap_model_equals_straightened_intervals():
    rng = SplitMix64(901)
    seen_gap = 0
    for _ in range(40):
        m = random_arc_model(rng, rng.randint(1, 9))
        if m.covers_circle:
            continue
        seen_gap += 1
        g = build_circular_arc_graph(m)
        h = build_interval_graph(straighten_at_gap(m))
        assert g.edges == h.edges
    assert seen_gap >= 5


def test_intervals_reencode_as_arcs():
    # an interval family placed on the circle with the wrap left empty
    # keeps its intersection graph
    rng = SplitMix64(907)
    for _ in range(30):
        n = rng.randint(1, 9)
        pool = list(range(1, 2 * n + 1))
        rng.shuffle(pool)
        pairs = [tuple(sorted((pool[2 * k], pool[2 * k + 1]))) for k in range(n)]
        from isect.intervals import IntervalModel
        im = IntervalModel.build(pairs)
        am = ArcModel.build(pairs)
        assert not am.covers_circle
        assert build_interval_graph(im).edges == build_circular_arc_graph(am).edges


def test_uncovered_gap_matches_midpoint_scan_property():
    # the gap after rank p holds the midpoint p + 1/2, and beyond 2n it is
    # the wrap, so the gap is covered exactly when an arc holds that point
    rng = SplitMix64(977)
    gaps = 0
    for _ in range(200):
        n = rng.randint(1, 16)
        pool = list(range(1, 2 * n + 1))
        rng.shuffle(pool)
        spans = [(pool[2 * k], pool[2 * k + 1]) for k in range(n)]
        want = next((p for p in range(1, 2 * n + 1)
                     if not any(_inside(a, p + Fraction(1, 2)) for a in spans)), None)
        assert _uncovered_gap(spans) == want
        gaps += want is not None
    assert 20 <= gaps <= 180


# -- canonical form ----------------------------------------------------------

def test_canonicalize_fixture():
    model, order = canonicalize([(10, 2), (1, 6), (5, 12)])
    assert model.arcs == ((Fraction(1), Fraction(4)),
                          (Fraction(3), Fraction(6)),
                          (Fraction(5), Fraction(2)))
    assert order == (2, 3, 1)


def random_rational_arcs(rng: SplitMix64, n: int) -> list[tuple[Fraction, Fraction]]:
    """n arcs on distinct non-integer rationals, or [] when the draw collides."""
    pool = [Fraction(rng.randint(-300, 300), rng.randint(1, 9)) for _ in range(4 * n)]
    vals = sorted(set(pool))
    if len(vals) < 2 * n:
        return []
    rng.shuffle(vals)
    return [(vals[2 * k], vals[2 * k + 1]) for k in range(n)]


def test_canonicalize_preserves_graph():
    rng = SplitMix64(911)
    for trial in range(50):
        n = rng.randint(1, 10)
        # every other input is already canonical, and must come back unchanged
        raw = (random_rational_arcs(rng, n) if trial % 2 == 0
               else random_arc_model(rng, n).arcs)
        if not raw:
            continue
        g0 = build_circular_arc_graph(ArcModel.build(raw))
        model, order = canonicalize(raw)
        assert model.canonical
        if ArcModel.build(raw).canonical:
            assert model.arcs == tuple(raw) and order == tuple(range(1, n + 1))
        g1 = build_circular_arc_graph(model)
        mapped = {tuple(sorted((order[u - 1], order[v - 1]))) for u, v in g1.edges}
        assert mapped == {tuple(sorted((u, v))) for u, v in g0.edges}
        assert sorted(order) == list(range(1, n + 1))


def test_spans_rank_the_endpoints():
    rng = SplitMix64(913)
    for _ in range(40):
        raw = random_rational_arcs(rng, rng.randint(1, 10))
        if not raw:
            continue
        m = ArcModel.build(raw)
        pts = [x for pair in m.arcs for x in pair]
        ranks = [x for pair in m.spans for x in pair]
        assert sorted(ranks) == list(range(1, 2 * m.n + 1))
        for x, rx in zip(pts, ranks):
            for y, ry in zip(pts, ranks):
                assert (x < y) == (rx < ry)
        canon, _ = canonicalize(m)
        assert canon.spans == canon.arcs


# -- cut splits --------------------------------------------------------------

def test_split_fixtures():
    spread = split_at_cut(ArcModel.build([(1, 2), (3, 4), (5, 6), (7, 8)]))
    assert spread.backward == frozenset({4})
    assert spread.forward == frozenset({1, 2, 3})
    assert spread.cut_point == 8
    assert split_at_cut(ArcModel.build(K3_ARCS)).backward == frozenset({1, 2, 3})
    assert split_at_cut(ArcModel.build(RING4)).backward == frozenset({1, 4})
    with pytest.raises(MalformedModel):
        split_at_cut(ArcModel.build([(Fraction(1, 2), 7), (3, 9)]))


def test_split_backward_is_clique():
    for m in connected_arc_models(919, 30, 1, 10):
        g = build_circular_arc_graph(m)
        back = sorted(split_at_cut(m).backward)
        for a in back:
            for b in back:
                if a < b:
                    assert g.has_edge(a, b)


def test_delete_closed_neighborhood_fixtures():
    ring = ArcModel.build(RING4)
    sub, ids = delete_closed_neighborhood(ring, 1)
    assert ids == (3,)
    assert sub.intervals == ((Fraction(4), Fraction(7)),)
    k3 = ArcModel.build(K3_ARCS)
    empty, none = delete_closed_neighborhood(k3, 2)
    assert empty.n == 0 and none == ()
    with pytest.raises(MalformedModel):
        delete_closed_neighborhood(ring, 5)


def test_delete_closed_neighborhood_matches_induced_subgraph():
    rng = SplitMix64(929)
    for _ in range(30):
        m = random_arc_model(rng, rng.randint(1, 9))
        g = build_circular_arc_graph(m)
        i = rng.randint(1, m.n)
        sub, ids = delete_closed_neighborhood(m, i)
        keep = [v for v in g.vertices() if v != i and not g.has_edge(v, i)]
        assert list(ids) == keep
        induced, _ = g.induced(keep)
        assert build_interval_graph(sub).edges == induced.edges
        assert is_interval_bruteforce(induced)


# -- sentinel transfer -------------------------------------------------------

def test_sentinel_isolated_for_gap_model():
    model = arcs_to_intervals_with_sentinel(ArcModel.build(PATH3))
    assert model.n == 4
    s = model.n
    assert not any(overlaps(model, s, r) for r in range(1, s))


def test_sentinel_meets_exactly_the_crossing_arcs():
    model = arcs_to_intervals_with_sentinel(ArcModel.build(K3_ARCS))
    assert model.n == 4
    assert overlaps(model, 4, 1)
    assert overlaps(model, 4, 2)
    assert not overlaps(model, 4, 3)
    # straightening can drop wrap-side adjacencies but never adds one
    g = build_circular_arc_graph(ArcModel.build(K3_ARCS))
    for u in range(1, 4):
        for v in range(u + 1, 4):
            assert g.has_edge(u, v) or not overlaps(model, u, v)


def test_sentinel_meets_exactly_the_crossing_arcs_property():
    rng = SplitMix64(931)
    for _ in range(40):
        m = random_arc_model(rng, rng.randint(1, 10))
        model = arcs_to_intervals_with_sentinel(m)
        s = m.n + 1
        assert model.n == s
        # the seam sits half a step past the last tail
        seam = m.tail(m.n) + Fraction(1, 2)
        for r in range(1, s):
            assert overlaps(model, s, r) == arc_contains_point(m.arcs[r - 1], seam)


def test_sentinel_transfer_rejects():
    with pytest.raises(MalformedModel):
        arcs_to_intervals_with_sentinel(ArcModel.build([(2, 4), (3, 6), (5, 8), (7, 10)]))
    with pytest.raises(EmptyGraph):
        arcs_to_intervals_with_sentinel(ArcModel.build([]))


# -- independent sets --------------------------------------------------------

def test_mwis_fixtures():
    k3 = ArcModel.build(K3_ARCS)
    assert mwis_circular_arc(k3, [1, 5, 2]) == (2,)
    assert mwis_circular_arc(ArcModel.build(RING4)) == (1, 3)
    assert mwis_circular_arc(ArcModel.build(PATH3)) == (1, 3)
    assert mwis_circular_arc(k3, [0, 0, 0]) == ()
    with pytest.raises(BadParams):
        mwis_circular_arc(k3, [1, 2])


def test_mwis_can_avoid_every_backward_arc():
    # around a five-ring the backward side holds arcs 1 and 5 only, yet
    # the heavy pair {2, 4} beats every set through the cut
    m = ArcModel.build(RING5)
    assert split_at_cut(m).backward == frozenset({1, 5})
    assert mwis_circular_arc(m, [1, 10, 1, 10, 1]) == (2, 4)


def test_mwis_witness_is_lexicographically_smallest():
    # the oracle's witnesses: the zero-weight arc 4 joins the one weighted
    # arc, since (4, 5) comes before (5,)
    m = ArcModel.build([(3, 20), (7, 14), (23, 17), (6, 8), (12, 5), (9, 11)])
    assert mwis_circular_arc(m, [0, 0, 0, 0, 1, 0]) == (4, 5)
    # ties go to the smallest vertex ids, not to the smallest canonical ids
    assert mwis_circular_arc(generate_model(GeneratorSpec("arcs", 4, 1)).model) == (1,)


def test_mwis_matches_oracle():
    rng = SplitMix64(937)
    for _ in range(30):
        m = random_arc_model(rng, rng.randint(1, 11))
        weights = [rng.randint(0, 6) for _ in range(m.n)]
        got = mwis_circular_arc(m, weights)
        g = build_circular_arc_graph(m)
        for a in got:
            for b in got:
                if a < b:
                    assert not g.has_edge(a, b)
        gw = Graph.build(g.n, g.sorted_edges(),
                         {v: weights[v - 1] for v in g.vertices()})
        want = brute_solve(gw, "mwis", max_n=16)
        assert got == want.witness
        assert sum(weights[v - 1] for v in got) == want.value


def test_mwis_on_raw_models():
    rng = SplitMix64(941)
    for _ in range(10):
        n = rng.randint(1, 8)
        vals = list(range(1, 4 * n + 1))
        rng.shuffle(vals)
        raw = [(Fraction(vals[2 * k], 2), Fraction(vals[2 * k + 1], 2))
               for k in range(n)]
        m = ArcModel.build(raw)
        weights = [rng.randint(0, 5) for _ in range(n)]
        got = mwis_circular_arc(m, weights)
        g = build_circular_arc_graph(m)
        gw = Graph.build(g.n, g.sorted_edges(),
                         {v: weights[v - 1] for v in g.vertices()})
        want = brute_solve(gw, "mwis", max_n=16)
        assert got == want.witness
        assert sum(weights[v - 1] for v in got) == want.value


def test_mwis_scales_to_a_weighted_model_of_800():
    mf = generate_model(GeneratorSpec("arcs", 800, 1, {"weights": True}))
    t0 = time.perf_counter()
    mwis_circular_arc(mf.model, mf.weights)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.5, f"mwis_circular_arc took {elapsed:.3f} s at n = 800"


@st.composite
def rational_arc_models(draw):
    """0..12 arcs on distinct rational endpoints, paired in draw order, so
    an arc wraps whenever its head comes out above its tail."""
    n = draw(st.integers(0, 12))
    ends = draw(st.lists(st.builds(Fraction, st.integers(0, 60), st.integers(1, 4)),
                         min_size=2 * n, max_size=2 * n, unique=True))
    return ArcModel.build([(ends[2 * k], ends[2 * k + 1]) for k in range(n)])


@st.composite
def ci_rings(draw):
    """Proper rings of 2n arcs, each arc meeting k arcs on either side,
    k = 1..3 or n // 6, so the reach chains run about n / k hops."""
    n = draw(st.integers(2, 24))
    k = draw(st.sampled_from([k for k in (1, 2, 3, n // 6) if 1 <= k < n]))
    eps = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 4), Fraction(1, 7)]))
    return generate_ci(CIParams.build(n, k, eps))


@st.composite
def arc_weights(draw, n: int):
    """None, all zero, unit, rational, a mapping, or a bad argument."""
    rationals = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["none", "zero", "unit", "rational", "mapping",
                                 "length", "negative", "unknown"]))
    if kind == "none":
        return None
    if kind in ("zero", "unit"):
        return [int(kind == "unit")] * n
    if kind == "rational":
        return draw(st.lists(rationals, min_size=n, max_size=n))
    if kind == "mapping":
        return draw(st.dictionaries(st.integers(1, max(n, 1)), rationals)) if n else {}
    if kind == "length":
        return [1] * (n + draw(st.sampled_from([-1, 1])))
    if kind == "negative":
        return [1] * (n - 1) + [-1] if n else [-1]
    return {n + 1: 1}


@settings(max_examples=400, deadline=None)
@given(st.one_of(rational_arc_models(), ci_rings()).flatmap(
    lambda m: st.tuples(st.just(m), arc_weights(m.n))))
@example((ArcModel.build(K3_ARCS), [1, 5, 2]))
@example((ArcModel.build([(3, 20), (7, 14), (23, 17), (6, 8), (12, 5), (9, 11)]),
          [0, 0, 0, 0, 1, 0]))
def test_mwis_matches_the_reference(case):
    m, weights = case
    assert (outcome(mwis_circular_arc, m, weights)
            == outcome(mwis_circular_arc_reference, m, weights))


# -- distances ---------------------------------------------------------------

def test_apsp_fixtures():
    assert apsp_circular_arc(ArcModel.build(K3_ARCS)) == [
        [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert apsp_circular_arc(ArcModel.build(RING4)) == [
        [0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    assert apsp_circular_arc(ArcModel.build([(1, 2)])) == [[0]]


def test_apsp_rejects():
    with pytest.raises(DisconnectedGraph):
        apsp_circular_arc(ArcModel.build([(1, 2), (3, 4), (5, 6), (7, 8)]))
    with pytest.raises(EmptyGraph):
        apsp_circular_arc(ArcModel.build([]))


def test_apsp_matches_bfs_small():
    for m in connected_arc_models(947, 60, 2, 12):
        assert apsp_circular_arc(m) == bfs_apsp(build_circular_arc_graph(m))


def test_apsp_matches_bfs_larger():
    for m in connected_arc_models(953, 10, 20, 40):
        assert apsp_circular_arc(m) == bfs_apsp(build_circular_arc_graph(m))


def test_apsp_matches_bfs_seed_961():
    for m in connected_arc_models(961, 80, 3, 32):
        assert apsp_circular_arc(m) == bfs_apsp(build_circular_arc_graph(m))


def test_apsp_matches_bfs_on_raw_models():
    # raw models keep their input order and endpoints, so heads neither
    # start at 1 nor increase; a third are short arcs on a circle of
    # length 4n, which leave most of those models disconnected
    rng = SplitMix64(971)
    connected = disconnected = canonical = 0
    for trial in range(300):
        n = rng.randint(1, 24)
        if trial % 3 == 0:
            pool = list(range(1, 2 * n + 1))
            rng.shuffle(pool)
            raw = [(pool[2 * k], pool[2 * k + 1]) for k in range(n)]
        elif trial % 3 == 1:
            raw = random_rational_arcs(rng, n)
        else:
            heads = [Fraction(rng.randint(0, 40 * n), 10) for _ in range(n)]
            raw = [(h, (h + Fraction(rng.randint(1, 25), 10)) % (4 * n)) for h in heads]
            if len({x for arc in raw for x in arc}) < 2 * n:
                continue
        if not raw:
            continue
        m = ArcModel.build(raw)
        canonical += m.canonical
        g = build_circular_arc_graph(m)
        if g.is_connected():
            connected += 1
            assert apsp_circular_arc(m) == bfs_apsp(g)
        else:
            disconnected += 1
            with pytest.raises(DisconnectedGraph):
                apsp_circular_arc(m)
    assert connected >= 100 and disconnected >= 40 and canonical <= 10


def test_apsp_when_one_arc_wraps_the_whole_gap():
    # arc 2 meets arc 1 and runs on past its far end round to 2, so the
    # first hop from arc 1 sweeps the whole gap at once
    m = ArcModel.build([(1, 4), (3, 2), (5, 6), (7, 8)])
    want = [[0, 1, 2, 2], [1, 0, 1, 1], [2, 1, 0, 2], [2, 1, 2, 0]]
    assert apsp_circular_arc(m) == want == bfs_apsp(build_circular_arc_graph(m))


def test_apsp_on_raw_model():
    model = ArcModel.build([(10, 2), (1, 6), (5, 12)])
    assert apsp_circular_arc(model) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


@st.composite
def raw_arc_models(draw):
    """1..12 arcs on the endpoints 1..2n: neighbours paired, a few endpoints
    swapped, the circle rotated so some arcs wrap, and some arcs turned
    round; so models run from n disjoint short arcs to long wrapping ones."""
    n = draw(st.integers(1, 12))
    pts = list(range(2 * n))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 2 * n - 1),
                                        st.integers(0, 2 * n - 1)), max_size=n)):
        pts[i], pts[j] = pts[j], pts[i]
    r = draw(st.integers(0, 2 * n - 1))
    pts = [(x + r) % (2 * n) + 1 for x in pts]
    turned = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    return ArcModel.build([(pts[2 * i + (i in turned)], pts[2 * i + 1 - (i in turned)])
                           for i in range(n)])


def _mirrored(m: ArcModel) -> ArcModel:
    return ArcModel.build([(2 * m.n + 1 - t, 2 * m.n + 1 - h) for h, t in m.spans])


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_arc_models(), ci_rings()))
@example(ArcModel.build([(1, 4), (3, 2), (5, 6), (7, 8)]))
@example(ArcModel.build([(1, 2), (3, 4), (5, 6), (7, 8)]))
@example(ArcModel.build([(1, 2)]))
def test_apsp_matches_the_reference(m):
    for model in (m, _mirrored(m)):
        assert (outcome(apsp_circular_arc, model)
                == outcome(apsp_circular_arc_reference, model))
        assert (_hops(model.spans) == hops_reference(model.spans)).all()


@st.composite
def short_arc_models(draw):
    """0..12 arcs on a circle of length 24: arc k runs d_k + 1 / (4n + 4)
    clockwise from a_k + (2k + 1) / (4n + 4), wrapping past 24.  The offsets
    keep every endpoint distinct; d_k up to 1, 4 or 23 by draw makes both
    connected and disconnected models common."""
    n = draw(st.integers(0, 12))
    top = draw(st.sampled_from([1, 4, 23]))
    arcs = []
    for k in range(n):
        a = draw(st.integers(0, 23)) + Fraction(2 * k + 1, 4 * n + 4)
        arcs.append((a, (a + draw(st.integers(0, top)) + Fraction(1, 4 * n + 4)) % 24))
    return ArcModel.build(arcs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(short_arc_models(), rational_arc_models(), raw_arc_models()))
@example(ArcModel.build([]))
@example(ArcModel.build([(1, 2)]))
def test_connected_matches_the_graph(m):
    assert m.connected == build_circular_arc_graph(m).is_connected()


def test_connected_allows_one_open_gap_not_two():
    # PATH3 and its wrapping turn leave one gap open, past 6 and past 5
    for arcs in (PATH3, [(6, 2), (1, 4), (3, 5)]):
        m = ArcModel.build(arcs)
        assert not m.covers_circle and m.connected
    # open gaps past 4 and 6, then past 2 and 4 with arcs that wrap
    for arcs in ([(1, 3), (2, 4), (5, 6)], [(5, 1), (6, 2), (3, 4)]):
        m = ArcModel.build(arcs)
        assert not m.connected and not build_circular_arc_graph(m).is_connected()


# -- properness and the rotated construction ---------------------------------

def test_is_proper_fixtures():
    assert not is_proper(ArcModel.build([(1, 6), (2, 3)]))
    assert is_proper(ArcModel.build(RING4))
    assert is_proper(ArcModel.build([(1, 2)]))
    # a wrapping arc swallowing a short one
    assert not is_proper(ArcModel.build([(7, 4), (1, 3), (5, 6)]))


@st.composite
def arc_models(draw):
    """Arcs on 2n distinct rationals; an arc wraps when its head is the larger."""
    n = draw(st.integers(0, 8))
    pts = [Fraction(k, 3) for k in draw(st.permutations(range(2 * n)))]
    return ArcModel.build(list(zip(pts[::2], pts[1::2])))


@settings(max_examples=300, deadline=None)
@given(arc_models())
@example(ArcModel.build([]))
@example(ArcModel.build([(7, 4), (1, 3), (5, 6)]))
def test_is_proper_matches_the_reference(m):
    assert outcome(is_proper, m) == outcome(is_proper_reference, m)


def test_is_proper_matches_the_reference_on_ci_models():
    for n in range(2, 10):
        for k in range(1, n):
            for eps in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 7)):
                m = generate_ci(CIParams.build(n, k, eps))
                assert is_proper(m) is is_proper_reference(m) is True


def test_ci_params_rejects():
    with pytest.raises(BadParams):
        CIParams.build(3, 3, Fraction(1, 4))
    with pytest.raises(BadParams):
        CIParams.build(4, 0, Fraction(1, 4))
    with pytest.raises(BadParams):
        CIParams.build(4, 1, Fraction(1, 2))
    with pytest.raises(BadParams):
        CIParams.build(4, 1, 0)
    with pytest.raises(BadParams):
        CIParams.build(4, 1, Fraction(7, 8))


def test_ci_raw_layout():
    p = CIParams.build(4, 1, Fraction(1, 5))
    raw = _ci_raw(p)
    assert len(raw) == 8
    assert raw[0] == (0, 2 + Fraction(1, 5))
    assert raw[4] == (1, 3 - Fraction(1, 5))


def test_generate_ci_shape():
    model = generate_ci(CIParams.build(4, 1, Fraction(1, 5)))
    assert model.n == 8
    assert model.canonical
    assert model.covers_circle
    assert is_proper(model)
    g = build_circular_arc_graph(model)
    degs = sorted(g.degree(v) for v in g.vertices())
    # one degree per family of equally long arcs
    assert len(set(degs)) <= 2
    assert degs.count(degs[0]) in (model.n // 2, model.n)


def test_generate_ci_long_arcs_stay_proper():
    # arcs longer than half the circle still avoid containment
    model = generate_ci(CIParams.build(5, 3, Fraction(1, 3)))
    assert model.n == 10
    assert is_proper(model)
    assert build_circular_arc_graph(model).is_connected()


def test_generate_ci_degrees_split_by_family():
    rng = SplitMix64(967)
    for _ in range(6):
        n = rng.randint(3, 9)
        k = rng.randint(1, n - 1)
        p = CIParams.build(n, k, Fraction(1, rng.randint(3, 9)))
        raw = _ci_raw(p)
        model, order = canonicalize(raw)
        g = build_circular_arc_graph(model)
        # order[j - 1] is the raw arc behind canonical vertex j; the two
        # families are rotation-invariant, so degrees agree within each
        first = {j for j in g.vertices() if order[j - 1] <= n}
        degs_a = {g.degree(j) for j in first}
        degs_b = {g.degree(j) for j in g.vertices() if j not in first}
        assert len(degs_a) == 1 and len(degs_b) == 1
