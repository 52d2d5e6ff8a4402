"""Elimination orderings, chordality recognition, and clique graphs."""

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    check_ordering_reference,
    clique_graph_reference,
    cycle_graph,
    find_ordering_reference,
    is_minimal_ab_separator_reference,
    lex_bfs_reference,
    maximal_cliques_chordal_reference,
    path_graph,
    random_graph,
)
from isect.chordal import (
    KINDS,
    MAX_NEIGHBOURHOOD,
    PERFECT,
    STRONG,
    CliqueGraph,
    Ordering,
    _is_minimal_ab_separator,
    check_ordering,
    clique_graph,
    find_ordering,
    is_chordal,
    is_weakly_chordal_bruteforce,
    lex_bfs,
    maximal_cliques_chordal,
)
from isect.errors import BadParams, InstanceTooLarge, IsectError, MalformedModel, NotChordal
from isect.generators import GeneratorSpec, generate_model
from isect.graph import Graph
from isect.intervals import (
    IntervalModel,
    build_interval_graph,
    maximal_cliques_interval,
    normalize,
)
from isect.oracles import find_hole, maximal_cliques_bruteforce
from isect.rng import SplitMix64

P3 = Graph.build(3, [(1, 2), (2, 3)])
P4 = Graph.build(4, [(1, 2), (2, 3), (3, 4)])
C4 = Graph.build(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
C5 = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
# two triangles glued along the edge (2, 3)
BOWTIE_EDGE = Graph.build(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
SUN3 = Graph.build(6, [(1, 2), (2, 3), (1, 3),
                       (4, 1), (4, 2), (5, 2), (5, 3), (6, 3), (6, 1)])


def random_tree(rng: SplitMix64, n: int) -> Graph:
    edges = [(rng.randint(1, k - 1), k) for k in range(2, n + 1)]
    return Graph.build(n, edges)


def random_interval_graph(rng: SplitMix64, n: int) -> Graph:
    pool = list(range(1, 2 * n + 1))
    rng.shuffle(pool)
    pairs = [tuple(sorted((pool[2 * i], pool[2 * i + 1]))) for i in range(n)]
    return build_interval_graph(IntervalModel.build(pairs))


def test_lex_bfs_fixtures():
    assert lex_bfs(Graph.build(3, [(1, 2), (1, 3), (2, 3)])).seq == (1, 2, 3)
    assert lex_bfs(P4).seq == (1, 2, 3, 4)
    assert lex_bfs(P4, start=2).seq == (2, 1, 3, 4)
    assert lex_bfs(P4).seq == lex_bfs(P4).seq
    assert lex_bfs(Graph.build(0, [])).seq == ()
    with pytest.raises(BadParams):
        lex_bfs(P4, start=9)


def test_lex_bfs_visits_components_in_turn():
    g = Graph.build(5, [(4, 5)])
    assert lex_bfs(g).seq == (1, 2, 3, 4, 5)
    assert lex_bfs(g, start=4).seq == (4, 5, 1, 2, 3)


def test_check_ordering_perfect_fixtures():
    star = Graph.build(4, [(1, 2), (1, 3), (1, 4)])
    assert check_ordering(star, Ordering.build((2, 3, 4, 1), PERFECT))
    for seq in itertools.permutations(range(1, 5)):
        assert not check_ordering(C4, Ordering.build(seq, PERFECT))
    with pytest.raises(MalformedModel):
        check_ordering(P3, Ordering.build((1, 2), PERFECT))
    with pytest.raises(BadParams):
        Ordering.build((1, 2, 3), "peculiar")


def test_check_ordering_strong_fixtures():
    assert check_ordering(P3, Ordering.build((1, 3, 2), STRONG))
    assert not check_ordering(P3, Ordering.build((2, 1, 3), STRONG))


def test_check_ordering_max_neighbourhood_fixture():
    # a leaf-first order on a star: the hub is everyone's maximum neighbour
    star = Graph.build(4, [(1, 2), (1, 3), (1, 4)])
    assert check_ordering(star, Ordering.build((2, 3, 4, 1), MAX_NEIGHBOURHOOD))
    assert not check_ordering(C4, Ordering.build((1, 2, 3, 4), MAX_NEIGHBOURHOOD))


def test_is_chordal_fixtures():
    rng = SplitMix64(0x7EE5)
    for n in (1, 2, 5, 9):
        assert is_chordal(random_tree(rng, n))
    assert not is_chordal(C4)
    c5_chord = Graph.build(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    assert not is_chordal(c5_chord)
    assert is_chordal(Graph.build(0, []))
    assert is_chordal(SUN3)


def test_is_chordal_matches_hole_search_exhaustively():
    pairs = list(itertools.combinations(range(1, 6), 2))
    for mask in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
        g = Graph.build(5, edges)
        assert is_chordal(g) == (find_hole(g, min_len=4) is None)


def test_is_chordal_matches_hole_search_on_random_graphs():
    rng = SplitMix64(0xABCD)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 9))
        assert is_chordal(g) == (find_hole(g, min_len=4) is None)


def test_maximal_cliques_fixtures():
    tree = Graph.build(4, [(1, 2), (2, 3), (2, 4)])
    assert maximal_cliques_chordal(tree) == [(1, 2), (2, 3), (2, 4)]
    k4 = Graph.build(4, [(i, j) for i, j in itertools.combinations(range(1, 5), 2)])
    assert maximal_cliques_chordal(k4) == [(1, 2, 3, 4)]
    assert maximal_cliques_chordal(BOWTIE_EDGE) == [(1, 2, 3), (2, 3, 4)]
    with pytest.raises(NotChordal):
        maximal_cliques_chordal(C4)


def test_maximal_cliques_match_oracle_and_stay_few():
    rng = SplitMix64(0xF00D)
    seen = 0
    while seen < 40:
        g = random_graph(rng, rng.randint(1, 9))
        if not is_chordal(g):
            continue
        seen += 1
        got = maximal_cliques_chordal(g)
        assert len(got) <= g.n
        assert got == maximal_cliques_bruteforce(g)
    for _ in range(15):
        g = random_interval_graph(rng, rng.randint(1, 12))
        assert maximal_cliques_chordal(g) == maximal_cliques_bruteforce(g)


def test_clique_graph_fixtures():
    cg = clique_graph(P3)
    assert cg.cliques == ((1, 2), (2, 3))
    assert cg.edges == ((1, 2),)
    assert cg.mu[(1, 2)] == 1
    cg = clique_graph(BOWTIE_EDGE)
    assert cg.cliques == ((1, 2, 3), (2, 3, 4))
    assert cg.edges == ((1, 2),)
    assert cg.mu[(1, 2)] == 2
    k3 = Graph.build(3, [(1, 2), (1, 3), (2, 3)])
    assert clique_graph(k3) == CliqueGraph(((1, 2, 3),), (), {})
    with pytest.raises(InstanceTooLarge):
        clique_graph(random_tree(SplitMix64(1), 13))
    with pytest.raises(NotChordal):
        clique_graph(C4)


def test_clique_graph_triangles_share_separators():
    # any 3-cycle of clique nodes: two separators equal, inside the third
    rng = SplitMix64(0xCAFE)
    checked = 0
    trials = 0
    while checked < 25 and trials < 4000:
        trials += 1
        g = random_interval_graph(rng, rng.randint(3, 10))
        cg = clique_graph(g)
        eset = set(cg.edges)
        sets = [set(c) for c in cg.cliques]
        for a, b, c in itertools.combinations(range(1, len(cg.cliques) + 1), 3):
            if {(a, b), (a, c), (b, c)} <= eset:
                checked += 1
                seps = sorted((sets[a - 1] & sets[b - 1],
                               sets[a - 1] & sets[c - 1],
                               sets[b - 1] & sets[c - 1]), key=len)
                assert seps[0] == seps[1]
                assert seps[0] <= seps[2]
    assert checked >= 25


def test_weakly_chordal_fixtures():
    assert is_weakly_chordal_bruteforce(C4)
    assert not is_weakly_chordal_bruteforce(C5)
    c6 = Graph.build(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    assert not is_weakly_chordal_bruteforce(c6)
    with pytest.raises(InstanceTooLarge):
        is_weakly_chordal_bruteforce(Graph.build(11, []))


def test_chordal_graphs_are_weakly_chordal():
    rng = SplitMix64(0xD06)
    seen = 0
    while seen < 30:
        g = random_graph(rng, rng.randint(1, 9))
        if is_chordal(g):
            seen += 1
            assert is_weakly_chordal_bruteforce(g)


def test_noncomplete_chordal_has_two_nonadjacent_simplicial_vertices():
    rng = SplitMix64(0x51)
    seen = 0
    while seen < 30:
        g = random_graph(rng, rng.randint(2, 9))
        if not is_chordal(g):
            continue
        if all(g.has_edge(*e) for e in itertools.combinations(g.vertices(), 2)):
            continue
        seen += 1
        simplicial = [v for v in g.vertices()
                      if all(g.has_edge(a, b)
                             for a, b in itertools.combinations(sorted(g.adj[v]), 2))]
        assert any(not g.has_edge(u, v) and u != v
                   for u in simplicial for v in simplicial)


def test_interval_graphs_are_chordal():
    rng = SplitMix64(0x1D1)
    for _ in range(40):
        assert is_chordal(random_interval_graph(rng, rng.randint(1, 40)))


def test_trees_have_maximum_neighbourhood_orderings():
    rng = SplitMix64(0x3EE)
    for n in (1, 2, 4, 6, 8):
        for _ in range(3):
            t = random_tree(rng, n)
            o = find_ordering(t, MAX_NEIGHBOURHOOD)
            assert o is not None
            assert check_ordering(t, o)
    with pytest.raises(InstanceTooLarge):
        find_ordering(random_tree(rng, 9), MAX_NEIGHBOURHOOD)


def test_ordering_search_fixtures():
    o = find_ordering(P4, PERFECT)
    assert o is not None and check_ordering(P4, o)
    assert find_ordering(C4, PERFECT) is None
    o = find_ordering(P4, STRONG)
    assert o is not None and check_ordering(P4, o)
    # chordal yet strong elimination is impossible on the three-sun
    assert is_chordal(SUN3)
    assert find_ordering(SUN3, STRONG, max_n=6) is None


def test_found_orderings_agree_with_the_check():
    # find_ordering returns None exactly when no permutation passes the check
    rng = SplitMix64(0x0DE5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        for kind in KINDS:
            found = find_ordering(g, kind)
            if found is not None:
                assert found.kind == kind and check_ordering(g, found)
            any_passes = any(check_ordering(g, Ordering(seq, kind))
                             for seq in itertools.permutations(g.vertices()))
            assert any_passes == (found is not None), (sorted(g.edges), kind)


@st.composite
def _chordal_cases(draw):
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    shape = draw(st.sampled_from(["random", "split", "tree", "interval", "chordal", "hole"]))
    if shape == "tree":
        edges = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    elif shape == "chordal":
        # k joins some u < k and part of u's earlier neighbours, a clique by
        # induction, so n..1 is a perfect elimination order.  From n = 7 on,
        # 1..7 are a claw with legs 1-2-3, 1-4-5, 1-6-7: 3, 5 and 7 are an
        # asteroidal triple, which no interval graph has, and the vertices
        # joined later, to cliques, keep it one
        back: dict[int, list[int]] = {1: []}
        for k in range(2, n + 1):
            if n >= 7 and k <= 7:
                back[k] = [(1, 2, 1, 4, 1, 6)[k - 2]]
            else:
                u = draw(st.integers(1, k - 1))
                back[k] = [u] + [x for x in back[u] if draw(st.booleans())]
        edges = [(x, k) for k in back for x in back[k]]
    elif shape == "interval":
        ends = draw(st.permutations(range(1, 2 * n + 1)))
        edges = build_interval_graph(IntervalModel.build(
            [tuple(sorted(ends[2 * i:2 * i + 2])) for i in range(n)])).sorted_edges()
    else:
        limit = draw(st.integers(0, 4))  # 0 sparse, 4 complete
        keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        side = draw(st.integers(0, n))  # "split": no edge joins 1..side to the rest
        edges = [(u, v) for (u, v), r in zip(pairs, keep)
                 if r < limit and (shape != "split" or (u <= side) == (v <= side))]
        if shape == "hole" and n >= 4:  # plant a chordless cycle
            ring = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(4, n))]
            on_ring = set(ring)
            edges = [e for e in edges if not set(e) <= on_ring]
            edges += list(zip(ring, ring[1:] + ring[:1]))
    g = Graph.build(n, edges)
    seqs = [tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(3)]
    seqs.append(lex_bfs_reference(g).reverse().seq)
    cut = None
    if n >= 2:
        a, b, *others = draw(st.permutations(range(1, n + 1)))
        cut = (frozenset(v for v in others if draw(st.booleans())), a, b)
    return g, seqs, cut


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IsectError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(_chordal_cases())
@example((Graph.build(0, []), [()], None))
@example((SUN3, [(4, 5, 6, 1, 2, 3)], (frozenset({1}), 4, 5)))
@example((cycle_graph(7), [tuple(range(1, 8))], (frozenset({1, 4}), 2, 6)))
@example((path_graph(10), [tuple(range(10, 0, -1))], (frozenset({4, 5}), 1, 9)))
def test_chordal_routines_match_the_references(case):
    g, seqs, cut = case
    for s in g.vertices():
        assert lex_bfs(g, s) == lex_bfs_reference(g, s)
    for kind in KINDS + ("no-such-kind",):
        for seq in seqs + [seqs[0][1:]]:  # the last one leaves a vertex out
            o = Ordering(seq, kind)
            want = _outcome(check_ordering_reference, g, o)
            if g.n == 0 and kind not in KINDS:
                want = BadParams  # the reference tests the kind only at some vertex
            assert _outcome(check_ordering, g, o) == want
        if g.n <= 7:
            assert _outcome(find_ordering, g, kind) == _outcome(find_ordering_reference, g, kind)
    assert is_chordal(g) == check_ordering_reference(g, lex_bfs_reference(g).reverse())
    assert _outcome(maximal_cliques_chordal, g) == _outcome(maximal_cliques_chordal_reference, g)
    assert _outcome(clique_graph, g) == _outcome(clique_graph_reference, g)
    if cut is not None:
        assert _is_minimal_ab_separator(g, *cut) == is_minimal_ab_separator_reference(g, *cut)


@pytest.mark.parametrize("shape", ["path", "interval"])
def test_recognition_and_cliques_scale(shape):
    # the bound sits far above a few mask operations per vertex and edge,
    # and below a rescan of the whole suffix at every vertex
    if shape == "path":
        g = path_graph(4000)
        want = [(i, i + 1) for i in range(1, 4000)]
    else:
        m = generate_model(GeneratorSpec("interval", 400, 1)).model
        g = build_interval_graph(m)
        strict, order = normalize(m)
        want = sorted(tuple(sorted(order[v - 1] for v in c))
                      for c in maximal_cliques_interval(strict))
    t0 = time.perf_counter()
    assert is_chordal(g)
    got = maximal_cliques_chordal(g)
    elapsed = time.perf_counter() - t0
    assert got == want
    assert elapsed < 2.0, elapsed
