"""Seeded random model generation, one deterministic stream per spec."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .arcs import ArcModel
from .errors import BadParams
from .geom import (
    INFINITE_TOLERANCE,
    ChordModel,
    DiskPoints,
    DottedInterval,
    KBoxModel,
    ToleranceRep,
)
from .graph import Graph, pairs_graph
from .intervals import IntervalModel
from .modelfile import MAX_N, ModelFile
from .permutations import Permutation
from .rng import SplitMix64, outputs
from .trapezoids import TrapezoidModel


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: the model kind, its size, the seed, extras."""

    kind: str
    n: int
    seed: int
    params: Mapping[str, object] = field(default_factory=dict)


def _endpoint_pool(rng: SplitMix64, n: int, spread: int = 3) -> list[int]:
    # sample 2n distinct endpoints so builders never see ties
    pool = list(range(1, spread * 2 * n + 1))
    rng.shuffle(pool)
    return pool[:2 * n]


def _gen_interval(rng: SplitMix64, n: int, params) -> IntervalModel:
    strict = bool(params.get("strict", False))
    connected = bool(params.get("connected", False))
    while True:
        pts = _endpoint_pool(rng, n)
        rows = [tuple(sorted((pts[2 * i], pts[2 * i + 1]))) for i in range(n)]
        if strict:
            rows.sort(key=lambda ab: ab[1])
        m = IntervalModel.build(rows, strict=strict)
        if not connected or m.connected:
            return m


def _gen_arcs(rng: SplitMix64, n: int, params) -> ArcModel:
    pts = _endpoint_pool(rng, n)
    return ArcModel.build([(pts[2 * i], pts[2 * i + 1]) for i in range(n)])


def _gen_permutation(rng: SplitMix64, n: int, params) -> Permutation:
    seq = list(range(1, n + 1))
    rng.shuffle(seq)
    return Permutation.build(seq)


def _gen_trapezoid(rng: SplitMix64, n: int, params) -> TrapezoidModel:
    top = list(range(1, 2 * n + 1))
    bot = list(range(1, 2 * n + 1))
    rng.shuffle(top)
    rng.shuffle(bot)
    rows = [tuple(sorted((top[2 * i], top[2 * i + 1])))
            + tuple(sorted((bot[2 * i], bot[2 * i + 1])))
            for i in range(n)]
    rows.sort(key=lambda r: r[1])
    return TrapezoidModel.build(rows)


def _gen_dotted(rng: SplitMix64, n: int, params) -> tuple[DottedInterval, ...]:
    # s in 1..6n, d in 1..6 and k in 0..n, drawn in that order per item
    draws = iter(rng.below_each([6 * n, 6, n + 1] * n))
    return tuple(DottedInterval.build(s + 1, s + 1 + (d + 1) * k, d + 1)
                 for s, d, k in zip(draws, draws, draws))


def _gen_tolerance(rng: SplitMix64, n: int, params) -> ToleranceRep:
    pts = _endpoint_pool(rng, n)
    rows = [tuple(sorted((pts[2 * i], pts[2 * i + 1]))) for i in range(n)]
    # per vertex: two heads make the tolerance infinite, else it is
    # randint(1, 8) / randint(1, 2); 2 to 4 outputs, read from one block of
    # the 4n the chain can use, and then passed over
    block = outputs(rng.state, np.arange(1, 4 * n + 1)).tolist()
    used = 0
    tols = []
    for _ in range(n):
        heads = block[used] < 1 << 63
        if heads and block[used + 1] < 1 << 63:
            tols.append(INFINITE_TOLERANCE)
            used += 2
        else:
            used += 1 + heads
            tols.append(Fraction(1 + (block[used] >> 61), 1 + (block[used + 1] >> 63)))
            used += 2
    rng.skip(used)
    return ToleranceRep.build(rows, tols)


def _gen_chords(rng: SplitMix64, n: int, params) -> ChordModel:
    pts = _endpoint_pool(rng, n, spread=2)
    return ChordModel.build([(pts[2 * i], pts[2 * i + 1]) for i in range(n)])


def _gen_disks(rng: SplitMix64, n: int, params) -> DiskPoints:
    side = max(2, n)
    halves = iter([Fraction(v, 2) for v in rng.below_each([2 * side + 1] * (2 * n))])
    pts = list(zip(halves, halves))
    return DiskPoints.build(pts, params.get("r", 1))


def _gen_boxes(rng: SplitMix64, n: int, params) -> KBoxModel:
    k = params.get("k", 2)
    if type(k) is not int or not 1 <= n * k <= 2 * MAX_N:
        raise BadParams(f"box dimension must be an int in 1..{2 * MAX_N // n}, got {k!r}")
    axes = [_endpoint_pool(rng, n) for _ in range(k)]
    boxes = [tuple(tuple(sorted((axes[c][2 * i], axes[c][2 * i + 1])))
                   for c in range(k))
             for i in range(n)]
    return KBoxModel.build(k, boxes)


def _gen_graph(rng: SplitMix64, n: int, params) -> Graph:
    # one coin() per pair i < j in row-major order: pair (i, j), 0-based,
    # takes output k below, and its coin is heads when the top bit is clear
    start = rng.skip(n * (n - 1) // 2)

    def heads(I, J):
        k = I * (2 * n - I - 1) // 2 + (J - I)
        return outputs(start, k) < 1 << 63

    return pairs_graph(n, heads)


# each kind's generator and the parameter keys it reads besides "weights"
_GENERATORS = {
    "interval": (_gen_interval, ("strict", "connected")),
    "arcs": (_gen_arcs, ()),
    "permutation": (_gen_permutation, ()),
    "trapezoid": (_gen_trapezoid, ()),
    "dotted": (_gen_dotted, ()),
    "tolerance": (_gen_tolerance, ()),
    "chords": (_gen_chords, ()),
    "disks": (_gen_disks, ("r",)),
    "boxes": (_gen_boxes, ("k",)),
    "graph": (_gen_graph, ()),
}


def generate_model(spec: GeneratorSpec) -> ModelFile:
    """Build the model a spec names.  Same spec, same model, always.

    Checked before anything is drawn: ``spec.n`` in 1..MAX_N, each key of
    ``spec.params`` one the kind reads, and for boxes n * k in 1..2 * MAX_N.
    """
    if spec.kind not in _GENERATORS:
        raise BadParams(f"unknown generator kind {spec.kind!r}")
    if not 1 <= spec.n <= MAX_N:
        raise BadParams(f"generator size must be in 1..{MAX_N}, got {spec.n}")
    gen, keys = _GENERATORS[spec.kind]
    extra = [key for key in spec.params if key not in ("weights", *keys)]
    if extra:
        raise BadParams(f"kind {spec.kind!r} takes no generator parameter {extra[0]!r}")
    rng = SplitMix64(spec.seed)
    model = gen(rng, spec.n, spec.params)
    weights = None
    if spec.params.get("weights"):
        count = getattr(model, "n", spec.n)
        weights = tuple(Fraction(1 + v) for v in rng.below_each([50] * count))
    return ModelFile(spec.kind, model, weights)
