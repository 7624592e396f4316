"""Seeded splitmix64 sequence for reproducible initial conditions.

Every experiment is reproducible from its 64-bit seed alone, independent of
platform and of any global RNG state.
"""
from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(seed: int, n: int) -> np.ndarray:
    """First n outputs of the splitmix64 stream for the given seed (uint64).

    The i-th state is seed + (i+1)*gamma mod 2**64; uint64 array arithmetic
    wraps mod 2**64, so the whole stream is computed at once.
    """
    z = np.uint64(int(seed) & _MASK) + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform(seed: int, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """n uniform floats in [low, high) from the splitmix64 stream; a draw
    that rounds up to high is the float below it."""
    if not (low < high and math.isfinite(float(high) - float(low))):
        raise ValueError("need low < high and a finite high - low")
    u = splitmix64(seed, n).astype(float) / 2.0**64
    return np.minimum(low + (high - low) * u, np.nextafter(high, low))
