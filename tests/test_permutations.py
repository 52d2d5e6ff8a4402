from fractions import Fraction
from itertools import permutations as all_perms

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import build_mis_tree_reference, direct_children_reference, point_relation_reference
from isect.errors import MalformedModel, NodeBudgetExceeded, NotAPermutation
from isect.graph import Graph
from isect.oracles import brute_solve, maximal_independent_sets
from isect.permutations import (
    ORIGIN,
    MISTree,
    Permutation,
    PointRep,
    _direct_children,
    build_mis_tree,
    build_permutation_graph,
    complement_permutation,
    enumerate_mis,
    max_clique_permutation,
    mwis_permutation,
    point_relation,
)
from isect.rng import SplitMix64


def identity(n: int) -> Permutation:
    return Permutation.build(range(1, n + 1))


def reversal(n: int) -> Permutation:
    return Permutation.build(range(n, 0, -1))


def random_permutation(rng: SplitMix64, n: int) -> Permutation:
    seq = list(range(1, n + 1))
    rng.shuffle(seq)
    return Permutation.build(seq)


# -- model building ----------------------------------------------------------

def test_build_and_inverse():
    p = Permutation.build([2, 4, 1, 3])
    assert p.pi == (2, 4, 1, 3)
    assert p.inv == (3, 1, 4, 2)
    assert all(p.inv[p.pi[i1 - 1] - 1] == i1 for i1 in range(1, 5))


def test_build_rejects():
    with pytest.raises(NotAPermutation):
        Permutation.build([1, 1, 3])
    with pytest.raises(NotAPermutation):
        Permutation.build([2, 3])
    with pytest.raises(NotAPermutation):
        Permutation.build([0, 1])
    with pytest.raises(NotAPermutation):
        Permutation.build(["a", 1])


def test_graph_fixtures():
    assert build_permutation_graph(identity(5)).edges == frozenset()
    k4 = build_permutation_graph(reversal(4))
    assert len(k4.edges) == 6
    swaps = build_permutation_graph(Permutation.build([2, 1, 4, 3]))
    assert swaps.sorted_edges() == [(1, 2), (3, 4)]


def test_complement_fixtures():
    assert complement_permutation(identity(4)).pi == (4, 3, 2, 1)
    p = Permutation.build([3, 1, 4, 2])
    assert complement_permutation(complement_permutation(p)) == p


def test_complement_graphs_random():
    rng = SplitMix64(101)
    for _ in range(40):
        p = random_permutation(rng, rng.randint(1, 18))
        g = build_permutation_graph(p)
        h = build_permutation_graph(complement_permutation(p))
        assert h.edges == g.complement().edges


# -- point representation ----------------------------------------------------

def consistent_point_reps() -> list[PointRep]:
    # the four asserted point facts below pin the positions of vertices
    # 1, 2, 4, 7; the other three vertices may fill 1, 6, 7 in any order
    reps = []
    for extra in all_perms([1, 6, 7]):
        inv = {1: 5, 2: 2, 4: 3, 7: 4, 3: extra[0], 5: extra[1], 6: extra[2]}
        seq = [0] * 7
        for v, pos in inv.items():
            seq[pos - 1] = v
        reps.append(PointRep.from_permutation(Permutation.build(seq)))
    return reps


def test_point_relation_pinned_facts():
    for rep in consistent_point_reps():
        r1 = point_relation(rep, (2, 2), (7, 4))
        assert not r1.connected
        assert not r1.directly_non_connected  # (4, 3) chains in between
        r2 = point_relation(rep, (1, 5), (2, 2))
        assert r2.connected and not r2.directly_non_connected
        r3 = point_relation(rep, (2, 2), (4, 3))
        assert not r3.connected and r3.directly_non_connected


def test_point_relation_origin_and_errors():
    rep = PointRep.from_permutation(Permutation.build([2, 1]))
    assert rep.origin == ORIGIN
    r = point_relation(rep, ORIGIN, (1, 2))
    assert not r.connected
    with pytest.raises(MalformedModel):
        point_relation(rep, (1, 2), (1, 2))
    with pytest.raises(MalformedModel):
        point_relation(rep, (3, 3), (1, 2))


def test_edges_match_point_connectivity():
    rng = SplitMix64(103)
    for _ in range(25):
        p = random_permutation(rng, rng.randint(1, 11))
        g = build_permutation_graph(p)
        rep = PointRep.from_permutation(p)
        for i in range(1, p.n + 1):
            for j in range(i + 1, p.n + 1):
                rel = point_relation(rep, rep.point(i), rep.point(j))
                assert rel.connected == g.has_edge(i, j)


# -- the chain tree ----------------------------------------------------------

def test_tree_identity_is_a_path():
    t = build_mis_tree(identity(6))
    assert t.node_count == 7
    assert t.children[ORIGIN] == ((1, 1),)
    for v in range(1, 6):
        assert t.children[(v, v)] == ((v + 1, v + 1),)
    assert t.children[(6, 6)] == ()


def test_tree_reversal_is_a_star():
    t = build_mis_tree(reversal(5))
    kids = t.children[ORIGIN]
    assert len(kids) == 5
    assert all(t.children[c] == () for c in kids)
    assert t.node_count == 6


def test_tree_budget():
    with pytest.raises(NodeBudgetExceeded):
        build_mis_tree(reversal(5), cap=3)
    t = build_mis_tree(identity(3), cap=4)
    assert isinstance(t, MISTree) and t.cap == 4


def test_tree_paths_are_chains():
    rng = SplitMix64(107)
    for _ in range(15):
        p = random_permutation(rng, rng.randint(1, 11))
        t = build_mis_tree(p)
        rep = PointRep.from_permutation(p)

        def walk(node, path):
            kids = t.children[node]
            if not kids:
                verts = [q[0] for q in path]
                assert verts == sorted(set(verts)), "path repeats a vertex"
                for a, b in zip([ORIGIN] + path, path):
                    rel = point_relation(rep, a, b)
                    assert rel.directly_non_connected
                return
            for c in kids:
                walk(c, path + [c])

        walk(ORIGIN, [])


@st.composite
def _tree_cases(draw):
    n = draw(st.integers(0, 40))
    p = Permutation.build(draw(st.permutations(range(1, n + 1))))
    cap = draw(st.none() | st.integers(1, 10 * n * n + 1))
    pts = [ORIGIN, *PointRep.from_permutation(p).points, (n + 1, n + 1)]  # the last is foreign
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=30))
    return p, cap, pairs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MalformedModel, NodeBudgetExceeded) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_tree_cases())
@example((identity(0), None, [(ORIGIN, ORIGIN)]))
@example((identity(40), None, [(ORIGIN, (40, 40)), ((1, 1), (40, 40)), ((3, 3), (2, 2))]))
@example((reversal(40), None, [(ORIGIN, (1, 40)), ((1, 40), (40, 1))]))
@example((reversal(40), 40, []))
def test_mis_tree_matches_the_reference(case):
    p, cap, pairs = case
    rep = PointRep.from_permutation(p)
    for base in (ORIGIN, *rep.points):
        assert _direct_children(rep.points, base) == direct_children_reference(rep.points, base)
    assert _outcome(build_mis_tree, p, cap) == _outcome(build_mis_tree_reference, p, cap)
    for a, b in pairs:
        assert _outcome(point_relation, rep, a, b) == _outcome(point_relation_reference, rep, a, b)


# -- maximal independent sets ------------------------------------------------

def test_enumerate_fixtures():
    assert enumerate_mis(identity(4)) == ((1, 2, 3, 4),)
    assert enumerate_mis(reversal(4)) == ((1,), (2,), (3,), (4,))


def test_enumerate_matches_oracle():
    rng = SplitMix64(109)
    for _ in range(40):
        p = random_permutation(rng, rng.randint(1, 10))
        g = build_permutation_graph(p)
        fam = enumerate_mis(p)
        for s in fam:
            for a in s:
                for b in s:
                    if a < b:
                        assert not g.has_edge(a, b)
            outside = [v for v in g.vertices() if v not in s]
            assert all(any(g.has_edge(v, u) for u in s) for v in outside)
        assert list(fam) == maximal_independent_sets(g)


# -- optimization ------------------------------------------------------------

def test_mwis_fixtures():
    assert mwis_permutation(identity(5)) == (1, 2, 3, 4, 5)
    assert mwis_permutation(reversal(3), [1, 5, 2]) == (2,)
    assert mwis_permutation(reversal(3), [0, 0, 0]) == ()
    p = Permutation.build([2, 1, 4, 3])
    assert mwis_permutation(p, {2: 9}) == (2, 3)


def test_mwis_matches_oracle():
    rng = SplitMix64(113)
    for _ in range(30):
        p = random_permutation(rng, rng.randint(1, 14))
        weights = [rng.randint(0, 6) for _ in range(p.n)]
        got = mwis_permutation(p, weights)
        g = build_permutation_graph(p)
        gw = Graph.build(g.n, g.sorted_edges(),
                         {v: weights[v - 1] for v in g.vertices()})
        want = brute_solve(gw, "mwis", max_n=16)
        assert got == want.witness
        assert sum(weights[v - 1] for v in got) == want.value


def test_max_clique_fixtures():
    assert max_clique_permutation(reversal(4)) == (1, 2, 3, 4)
    assert max_clique_permutation(identity(3)) == (1,)
    assert max_clique_permutation(Permutation.build([])) == ()


def test_max_clique_matches_oracle():
    rng = SplitMix64(127)
    for _ in range(30):
        p = random_permutation(rng, rng.randint(1, 14))
        got = max_clique_permutation(p)
        g = build_permutation_graph(p)
        for a in got:
            for b in got:
                if a < b:
                    assert g.has_edge(a, b)
        want = brute_solve(g, "max_clique", max_n=16)
        assert got == want.witness
        assert len(got) == want.value


def test_subsequence_duality():
    # increasing runs of the sequence are independent, decreasing runs
    # are cliques
    rng = SplitMix64(131)
    for _ in range(20):
        p = random_permutation(rng, rng.randint(2, 12))
        g = build_permutation_graph(p)
        picks = sorted({rng.randint(1, p.n) for _ in range(4)})
        vals = [p.pi[k - 1] for k in picks]
        if all(a < b for a, b in zip(vals, vals[1:])):
            for a in vals:
                for b in vals:
                    if a != b:
                        assert not g.has_edge(a, b)
        if all(a > b for a, b in zip(vals, vals[1:])):
            for a in vals:
                for b in vals:
                    if a != b:
                        assert g.has_edge(a, b)
