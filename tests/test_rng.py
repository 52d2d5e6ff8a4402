"""The SplitMix64 stream: known answers, its block forms against its
one-call-per-draw forms, and the bound guard of ``below_each``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import shuffle_reference
from isect.rng import SplitMix64, outputs

SEEDS = st.one_of(st.sampled_from([0, 1, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1))


@pytest.mark.parametrize("seed, want", [
    (0, ["e220a8397b1dcdaf", "6e789e6aa1b965f4", "06c45d188009454f"]),
    (1234567, ["599ed017fb08fc85", "2c73f08458540fa5"]),
])
def test_known_answers(seed, want):
    rng = SplitMix64(seed)
    assert [f"{rng.next_u64():016x}" for _ in want] == want


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 200))
def test_outputs_match_next_u64(seed, count):
    rng = SplitMix64(seed)
    block = outputs(rng.state, np.arange(1, count + 1))
    assert block.dtype == np.uint64
    assert block.tolist() == [rng.next_u64() for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.lists(st.integers(1, 2 ** 32 - 1), max_size=300))
def test_below_each_matches_below(seed, bounds):
    live, ref = SplitMix64(seed), SplitMix64(seed)
    assert live.below_each(bounds) == [ref.below(b) for b in bounds]
    assert live.state == ref.state
    # an array of bounds draws the same
    assert SplitMix64(seed).below_each(np.array(bounds, dtype=np.int64)) == \
        SplitMix64(seed).below_each(bounds)


@pytest.mark.parametrize("bounds", [[0], [2 ** 32], [5, 0, 3], [-1], [2 ** 70]])
def test_below_each_rejects_bounds_outside_32_bits(bounds):
    rng = SplitMix64(3)
    with pytest.raises(ValueError, match="bounds in 1..2"):
        rng.below_each(bounds)
    assert rng.state == 3


@pytest.mark.parametrize("length", [*range(50), 600, 2400, 60_000])
def test_shuffle_matches_the_parents_loop(length):
    for seed in (0, 7, 2 ** 64 - 1):
        live, ref = SplitMix64(seed), SplitMix64(seed)
        a, b = list(range(length)), list(range(length))
        live.shuffle(a)
        shuffle_reference(ref, b)
        assert a == b
        assert live.state == ref.state
