"""Brute-force oracle behaviour, frozen expected values computed by hand."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_solve_reference,
    chromatic_reference,
    clique_cover_reference,
    complete_graph,
    cycle_graph,
    empty_graph,
    max_clique_reference,
    mis_reference,
    mwis_reference,
    path_graph,
    random_graph,
    star_graph,
)
from isect.cli import _graph_of
from isect.errors import (
    BadParams,
    InfeasibleProblem,
    InstanceTooLarge,
    UndefinedForDisconnected,
)
from isect.generators import GeneratorSpec, generate_model
from isect.graph import Graph
from isect.oracles import (
    are_isomorphic_bruteforce,
    brute_solve,
    find_hole,
    is_at_free,
    is_comparability_bruteforce,
    is_interval_bruteforce,
    maximal_cliques_bruteforce,
    maximal_independent_sets,
)
from isect.rng import SplitMix64


def test_mis_cycle5():
    sol = brute_solve(cycle_graph(5), "mis")
    assert sol.value == 2
    assert sol.witness == (1, 3)


def test_mis_claw():
    sol = brute_solve(star_graph(3), "mis")
    assert sol.value == 3
    assert sol.witness == (2, 3, 4)


def test_mwis_weighted_path_tie_break():
    g = Graph.build(4, [(1, 2), (2, 3), (3, 4)],
                    weights={1: 3, 2: 5, 3: 4, 4: 2})
    sol = brute_solve(g, "mwis")
    assert sol.value == Fraction(7)
    # {1,3} and {2,4} both weigh 7; lexicographically smaller set wins
    assert sol.witness == (1, 3)


def test_mwis_all_zero_weights_prefers_empty_set():
    g = Graph.build(3, [(1, 2)], weights={1: 0, 2: 0, 3: 0})
    sol = brute_solve(g, "mwis")
    assert sol.value == 0
    assert sol.witness == ()


def test_max_clique_k4_minus_edge():
    g = Graph.build(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    sol = brute_solve(g, "max_clique")
    assert sol.value == 3
    assert sol.witness == (1, 2, 3)


def test_chromatic_number_values():
    assert brute_solve(cycle_graph(5), "chromatic_number").value == 3
    assert brute_solve(cycle_graph(5), "chromatic_number").witness == (1, 2, 1, 2, 3)
    assert brute_solve(complete_graph(4), "chromatic_number").value == 4
    assert brute_solve(path_graph(4), "chromatic_number").witness == (1, 2, 1, 2)


def test_min_clique_cover_c5():
    sol = brute_solve(cycle_graph(5), "min_clique_cover")
    assert sol.value == 3
    assert sol.witness == ((1, 2), (3, 4), (5,))
    for part in sol.witness:
        for u in part:
            for v in part:
                assert u == v or cycle_graph(5).has_edge(u, v)


# -- the subset table against the reference oracles ------------------------

# per-vertex weight draws; "huge" alternates two weights whose common
# denominator scales the odd vertices past 2**62, out of int64
WEIGHT_DRAWS = {
    "unit": st.just(1),
    "small": st.integers(0, 3),
    "zero": st.just(0),
    "rational": st.fractions(0, 5, max_denominator=4),
}
HUGE = (Fraction(2 ** 70, 3), Fraction(1, 10 ** 30 + 7))

REFERENCES = {
    "mis": mis_reference,
    "max_clique": max_clique_reference,
    "mwis": mwis_reference,
    "chromatic_number": chromatic_reference,
    "min_clique_cover": clique_cover_reference,
}


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    shape = draw(st.sampled_from(["random", "edgeless", "complete"]))
    if shape == "random":
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, k in zip(pairs, keep) if k]
    else:
        edges = pairs if shape == "complete" else []
    mix = draw(st.sampled_from(["none", "huge", *sorted(WEIGHT_DRAWS)]))
    if mix == "none":
        weights = None
    elif mix == "huge":
        weights = {v: HUGE[1 - v % 2] for v in range(1, n + 1)}
    else:
        drawn = draw(st.lists(WEIGHT_DRAWS[mix], min_size=n, max_size=n))
        weights = dict(enumerate(drawn, start=1))
    return Graph.build(n, edges, weights)


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
@example(Graph.build(0, []))
@example(Graph.build(3, [(1, 3)], {1: HUGE[0], 2: HUGE[1], 3: HUGE[0]}))
def test_set_oracles_match_the_references(g):
    for problem, reference in REFERENCES.items():
        sol = brute_solve(g, problem)
        assert (sol.value, sol.witness) == reference(g), problem
    for problem in ("mis", "max_clique"):
        assert type(brute_solve(g, problem).value) is int


def test_set_oracles_take_a_table_pass_at_n16():
    graphs = [_graph_of(generate_model(GeneratorSpec(kind, 16, 7, {"weights": True})))
              for kind in ("chords", "graph")]
    t0 = time.perf_counter()
    for g in graphs:
        brute_solve(g, "mis")
        brute_solve(g, "max_clique")
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"mis and max_clique took {elapsed:.3f} s at n = 16"


def test_chromatic_search_starts_at_the_clique_number():
    g = _graph_of(generate_model(GeneratorSpec("tolerance", 14, 1)))
    t0 = time.perf_counter()
    brute_solve(g, "chromatic_number")
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05, f"chromatic_number took {elapsed:.3f} s at n = 14"


# -- brute_solve against its if-chain and per-problem loops -----------------

PROBLEMS = ("mis", "mwis", "max_clique", "chromatic_number", "min_clique_cover",
            "knc", "k_dominating", "distance_k_dominating", "total_k_dominating",
            "two_tuple_dominating", "steiner_set", "feedback_vertex_set",
            "next_to_shortest")


def _outcome(solve, g, problem, **kw):
    try:
        sol = solve(g, problem, **kw)
    except Exception as exc:  # the error's type and text are the outcome
        return type(exc), str(exc)
    return sol.problem, sol.value, sol.witness, sol.params


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    g = Graph.build(n, [e for e, k in zip(pairs, keep) if k], dict(enumerate(weights, 1)))
    vertex = st.integers(1, max(n, 1))
    targets = draw(st.lists(vertex, min_size=1, max_size=4))
    return g, tuple(targets), draw(vertex), draw(vertex)


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
@example((Graph.build(0, []), (1,), 1, 1))
@example((Graph.build(1, []), (1,), 1, 1))
@example((Graph.build(2, [(1, 2)]), (2, 1, 2), 1, 2))
@example((Graph.build(4, [(1, 2), (3, 4)]), (1, 4), 1, 4))
@example((Graph.build(13, [(1, 2)]), (1,), 1, 2))
@example((Graph.build(17, []), (1,), 1, 2))
def test_brute_solve_matches_the_reference_oracles(case):
    g, targets, a, b = case
    calls = [(p, {"k": k}) for p in PROBLEMS + ("nope", "KNC") for k in (None, 0, 1, 2, 3)]
    calls += [("steiner_set", {"k": 1, "targets": t})
              for t in (None, (), (0,), (g.n + 1,), targets)]
    calls += [("next_to_shortest", {"u": u, "v": v})
              for u, v in ((None, b), (a, None), (a, a), (a, b))]
    for problem, kw in calls:
        assert (_outcome(brute_solve, g, problem, **kw)
                == _outcome(brute_solve_reference, g, problem, **kw)), (problem, kw)


def test_knc_path():
    sol = brute_solve(path_graph(3), "knc", k=1)
    assert sol.value == 1
    assert sol.witness == (2,)


def test_knc_edgeless():
    sol = brute_solve(empty_graph(3), "knc", k=1)
    assert sol.value == 0 and sol.witness == ()


def test_k_dominating_c5():
    assert brute_solve(cycle_graph(5), "k_dominating", k=1).witness == (1, 3)
    assert brute_solve(cycle_graph(5), "k_dominating", k=2).witness == (1,)


def test_distance_k_dominating_matches_k_dominating_value():
    for g in (cycle_graph(5), path_graph(6), star_graph(4)):
        a = brute_solve(g, "k_dominating", k=1)
        b = brute_solve(g, "distance_k_dominating", k=1)
        assert a.value == b.value


def test_total_k_dominating_p4():
    sol = brute_solve(path_graph(4), "total_k_dominating", k=1)
    assert sol.value == 2
    assert sol.witness == (2, 3)


def test_total_k_dominating_singleton_infeasible():
    with pytest.raises(InfeasibleProblem):
        brute_solve(empty_graph(1), "total_k_dominating", k=1)


def test_two_tuple_dominating_c4():
    sol = brute_solve(cycle_graph(4), "two_tuple_dominating")
    assert sol.value == 3
    assert sol.witness == (1, 2, 3)


def test_two_tuple_dominating_needs_degree():
    with pytest.raises(InfeasibleProblem):
        brute_solve(Graph.build(3, [(1, 2)]), "two_tuple_dominating")


def test_steiner_path_and_star():
    assert brute_solve(path_graph(5), "steiner_set", targets=(1, 5)).witness == (2, 3, 4)
    assert brute_solve(star_graph(4), "steiner_set", targets=(2, 3)).witness == (1,)
    assert brute_solve(path_graph(5), "steiner_set", targets=(2,)).value == 0


def test_steiner_disconnected_targets():
    g = Graph.build(4, [(1, 2), (3, 4)])
    with pytest.raises(UndefinedForDisconnected):
        brute_solve(g, "steiner_set", targets=(1, 4))


def test_feedback_vertex_set():
    assert brute_solve(cycle_graph(4), "feedback_vertex_set").witness == (1,)
    assert brute_solve(path_graph(5), "feedback_vertex_set").value == 0
    assert brute_solve(complete_graph(4), "feedback_vertex_set").value == 2


def _is_forest(g: Graph) -> bool:
    return len(g.edges) == g.n - len(g.components())


def test_feedback_vertex_set_witness_is_minimal_and_leaves_a_forest():
    rng = SplitMix64(0xF05)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        sol = brute_solve(g, "feedback_vertex_set")
        assert sol.value == len(sol.witness)
        rest = set(g.vertices()) - set(sol.witness)
        assert _is_forest(g.induced(rest)[0]), sorted(g.edges)
        for w in sol.witness:
            assert not _is_forest(g.induced(rest | {w})[0]), sorted(g.edges)


def test_steiner_witness_is_minimal_and_connects_the_targets():
    rng = SplitMix64(0x57E)
    checked = 0
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), 2, 5)
        comp = max(g.components(), key=len)
        targets = tuple(v for v in sorted(comp) if rng.coin())[:3] or (min(comp),)
        sol = brute_solve(g, "steiner_set", targets=targets)
        keep = set(targets) | set(sol.witness)
        assert len(g.induced(keep)[0].components()) == 1, (sorted(g.edges), targets)
        for w in sol.witness:
            assert len(g.induced(keep - {w})[0].components()) > 1
        checked += len(sol.witness) > 0
    assert checked > 0


def test_next_to_shortest_diamond():
    g = Graph.build(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    sol = brute_solve(g, "next_to_shortest", u=1, v=4)
    assert sol.value == 3
    assert sol.witness == (1, 2, 3, 4)


def test_next_to_shortest_infinite_on_c4():
    sol = brute_solve(cycle_graph(4), "next_to_shortest", u=1, v=3)
    assert sol.value == math.inf
    assert sol.witness is None


def test_next_to_shortest_c5():
    sol = brute_solve(cycle_graph(5), "next_to_shortest", u=1, v=3)
    assert sol.value == 3
    assert sol.witness == (1, 5, 4, 3)


def test_next_to_shortest_disconnected():
    with pytest.raises(UndefinedForDisconnected):
        brute_solve(empty_graph(2), "next_to_shortest", u=1, v=2)


def test_oracle_size_caps():
    big = empty_graph(17)
    with pytest.raises(InstanceTooLarge):
        brute_solve(big, "mis")
    assert brute_solve(big, "mis", max_n=17).value == 17
    with pytest.raises(InstanceTooLarge):
        brute_solve(empty_graph(13), "next_to_shortest", u=1, v=2)


def test_unknown_problem_and_missing_params():
    with pytest.raises(BadParams):
        brute_solve(path_graph(3), "nope")
    with pytest.raises(BadParams):
        brute_solve(path_graph(3), "knc")
    with pytest.raises(BadParams):
        brute_solve(path_graph(3), "knc", k=0)


def test_maximal_independent_sets_c5():
    fam = maximal_independent_sets(cycle_graph(5))
    assert fam == [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]


def test_maximal_cliques_c5_are_edges():
    fam = maximal_cliques_bruteforce(cycle_graph(5))
    assert fam == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_maximal_cliques_complete():
    assert maximal_cliques_bruteforce(complete_graph(4)) == [(1, 2, 3, 4)]


def test_at_free_known_graphs():
    assert is_at_free(star_graph(3))
    assert is_at_free(cycle_graph(5))
    assert is_at_free(path_graph(6))
    assert not is_at_free(cycle_graph(6))


def test_comparability_known_graphs():
    assert is_comparability_bruteforce(cycle_graph(4))
    assert is_comparability_bruteforce(complete_graph(3))
    assert is_comparability_bruteforce(cycle_graph(6))
    assert not is_comparability_bruteforce(cycle_graph(5))
    assert not is_comparability_bruteforce(cycle_graph(7))


def test_interval_known_graphs():
    assert is_interval_bruteforce(path_graph(4))
    assert is_interval_bruteforce(complete_graph(4))
    assert is_interval_bruteforce(star_graph(3))
    assert not is_interval_bruteforce(cycle_graph(4))
    assert not is_interval_bruteforce(cycle_graph(5))


def test_interval_handles_disconnected():
    assert is_interval_bruteforce(Graph.build(5, [(1, 2), (3, 4), (4, 5)]))


def test_find_hole():
    assert find_hole(cycle_graph(4)) == (1, 2, 3, 4)
    assert find_hole(cycle_graph(5)) == (1, 2, 3, 4, 5)
    assert find_hole(cycle_graph(5), min_len=5) == (1, 2, 3, 4, 5)
    assert find_hole(cycle_graph(5), min_len=6) is None
    diamond = Graph.build(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert find_hole(diamond) is None
    assert find_hole(path_graph(6)) is None


def test_isomorphism():
    relabeled = Graph.build(5, [(2, 4), (4, 1), (1, 5), (5, 3), (3, 2)])
    assert are_isomorphic_bruteforce(cycle_graph(5), relabeled)
    two_triangles = Graph.build(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not are_isomorphic_bruteforce(cycle_graph(6), two_triangles)
    assert not are_isomorphic_bruteforce(cycle_graph(4), cycle_graph(5))
