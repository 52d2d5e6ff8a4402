"""Small named graphs and scalar reference builders shared by the tests."""

from __future__ import annotations

from typing import Callable

from isect.geom import DiskPoints, KBoxModel, ToleranceRep
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


def pairwise_graph(n: int, pred: Callable[[int, int], bool]) -> Graph:
    """The reference builder: test every pair i < j with a scalar predicate."""
    return Graph.build(n, [(i, j)
                           for i in range(1, n + 1)
                           for j in range(i + 1, n + 1)
                           if pred(i, j)])


# the per-pair adjacency of the rational kinds, exactly on Fractions


def tolerance_pred(rep: ToleranceRep) -> Callable[[int, int], bool]:
    def pred(i: int, j: int) -> bool:
        (lo_i, hi_i), (lo_j, hi_j) = rep.intervals[i - 1], rep.intervals[j - 1]
        lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
        return lo <= hi and hi - lo >= min(rep.tolerances[i - 1], rep.tolerances[j - 1])
    return pred


def disk_pred(p: DiskPoints) -> Callable[[int, int], bool]:
    def pred(i: int, j: int) -> bool:
        (xi, yi), (xj, yj) = p.points[i - 1], p.points[j - 1]
        return (xi - xj) ** 2 + (yi - yj) ** 2 <= p.r * p.r
    return pred


def box_pred(m: KBoxModel) -> Callable[[int, int], bool]:
    def pred(i: int, j: int) -> bool:
        return all(max(si[0], sj[0]) <= min(si[1], sj[1])
                   for si, sj in zip(m.boxes[i - 1], m.boxes[j - 1]))
    return pred
