"""Deterministic pseudorandom numbers for reproducible generators.

The generator is SplitMix64: state advances by the additive constant
0x9e3779b97f4a7c15 (the golden-ratio increment) and each output is the
finalizer

    z = state
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
    z = (z ^ (z >> 27)) * 0x94d049bb133111eb
    return z ^ (z >> 31)

all modulo 2**64.  Equal seeds give equal streams on every platform, so
seeded constructions serialize bit-for-bit identically.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling (no modulo bias).

        Each try reads as many 64-bit words as n - 1 needs, the first one
        most significant, and rejects at or above the largest multiple of
        n below 2**(64 * words).  For n <= 2**64 that is one word a try.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        while True:
            r, span = self.next_u64(), 1 << 64
            while span < n:
                r, span = (r << 64) | self.next_u64(), span << 64
            if r < span - span % n:
                return r % n
