"""The seeded generators against the parent's one-draw-per-call bodies,
and a guard that no generator draws one value at a time."""

import pytest

from helpers import generate_model_reference
from isect.generators import GeneratorSpec, generate_model
from isect.modelfile import KINDS, emit_model_file
from isect.rng import SplitMix64

SEEDS = (0, 1, 2, 99, 2 ** 64 - 1, 2 ** 70 + 3)
# extra parameter sets per kind, besides none
PARAMS = {
    "interval": [{"strict": True}, {"connected": True}],
    "disks": [{"r": 3}],
    "boxes": [{"k": 1}, {"k": 3}],
}


@pytest.mark.parametrize("kind", KINDS)
def test_generators_match_the_parents(kind):
    for params in [{}, *PARAMS.get(kind, [])]:
        for weights in ({}, {"weights": True}):
            for n in range(1, 41):
                for seed in SEEDS:
                    spec = GeneratorSpec(kind, n, seed, {**params, **weights})
                    assert emit_model_file(generate_model(spec)) == \
                        emit_model_file(generate_model_reference(spec)), spec


def test_generators_draw_in_blocks(monkeypatch):
    calls = []
    scalar = SplitMix64.next_u64
    monkeypatch.setattr(SplitMix64, "next_u64",
                        lambda self: calls.append(1) or scalar(self))
    for kind in KINDS:
        for n in (1, 7, 40):
            generate_model(GeneratorSpec(kind, n, 5, {"weights": True}))
    assert calls == []
    # the counter sees a draw made one at a time
    SplitMix64(1).below(3)
    assert calls == [1]
