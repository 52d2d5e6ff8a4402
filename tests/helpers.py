"""Small named graphs shared by the test modules."""

from __future__ import annotations

from isect.graph import Graph
from isect.rng import SplitMix64


def path_graph(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.build(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def star_graph(leaves: int) -> Graph:
    """Hub vertex 1 with the given number of leaves."""
    return Graph.build(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def empty_graph(n: int) -> Graph:
    return Graph.build(n, [])


def random_graph(rng: SplitMix64, n: int, p_num: int = 1, p_den: int = 2) -> Graph:
    edges = [(i, j)
             for i in range(1, n + 1)
             for j in range(i + 1, n + 1)
             if rng.below(p_den) < p_num]
    return Graph.build(n, edges)
