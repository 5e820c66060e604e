"""Deterministic 64-bit random number generation.

A fixed splitmix-style generator, so seeded runs reproduce bit for bit on
any platform and Python version. The stdlib generators are avoided on
purpose: their streams are not part of this package's compatibility
contract, this one is.
"""

from __future__ import annotations

__all__ = ["SplitMix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Splitmix generator over a 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed {seed!r} must be an integer")
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed {seed} outside [0, 2^64)")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection sampled to avoid modulo bias."""
        if not 0 < bound <= _MASK64 + 1:
            raise ValueError(f"bound {bound} outside [1, 2^64]")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def uniform(self) -> float:
        """Float in [0, 1) built from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of [1..n]."""
        perm = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
