"""Deterministic pseudo-random stream used by the model generators.

The generator is SplitMix64, fixed at the algorithm level so that seeded
corpora reproduce bit-for-bit on any platform or implementation language.
State update for a 64-bit state z (all arithmetic mod 2**64):

    z += 0x9E3779B97F4A7C15
    x = z
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    output = x ^ (x >> 31)

Bounded draws use rejection-free multiply-shift: (output * n) >> 64.
Output k of a stream at state z is the mix of z + k * 0x9E3779B97F4A7C15
alone, so ``outputs`` can compute a block of them at once.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def outputs(state: int, k: np.ndarray) -> np.ndarray:
    """Outputs number k (1, 2, ...) of a stream at ``state``, as uint64.

    ``outputs(s, np.arange(1, c + 1))`` equals c calls of ``next_u64``
    on ``SplitMix64`` at state s; arithmetic wraps mod 2**64.
    """
    x = np.uint64(state) + k.astype(np.uint64) * np.uint64(GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class SplitMix64:
    """64-bit SplitMix64 stream seeded by an integer."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        x = self.state
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        return x ^ (x >> 31)

    def skip(self, count: int) -> int:
        """Pass over the next ``count`` outputs; return the state before them."""
        start = self.state
        self.state = (start + count * GAMMA) & MASK64
        return start

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via multiply-shift."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return (self.next_u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def coin(self, num: int = 1, den: int = 2) -> bool:
        """True with probability num/den."""
        return self.below(den) < num

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
