"""Deterministic multi-stream random numbers for simulation.

Streams are built on the splitmix64 generator: the state advances by a
fixed odd increment and every output is an avalanche mix of the state.
Because the k-th output depends only on ``seed + k * increment``, a
stream can produce its values one at a time or as a vectorized block
with bit-identical results, and child streams can be derived for any
(run, point, anchor, channel) cell independently of execution order.

Uniform draws are mapped to the open interval (0, 1) — never exactly
0 or 1 — so inverse-transform sampling stays finite for unbounded
distributions.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX_1 = np.uint64(_MIX_1)
_U_MIX_2 = np.uint64(_MIX_2)


def mix64(value: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix of a 64-bit value."""
    z = value & _MASK
    z ^= z >> 30
    z = (z * _MIX_1) & _MASK
    z ^= z >> 27
    z = (z * _MIX_2) & _MASK
    z ^= z >> 31
    return z


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array."""
    z = values.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _U_MIX_1
    z ^= z >> np.uint64(27)
    z *= _U_MIX_2
    z ^= z >> np.uint64(31)
    return z


def combine(seed: int, key: int) -> int:
    """Derive a child seed from a parent seed and one index key.

    For a fixed parent the map key -> child is injective, so sibling
    streams never collide.
    """
    return mix64((seed & _MASK) ^ ((mix64(key) + _GOLDEN) & _MASK))


def combine_array(seed: np.ndarray | int, keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`combine`; broadcasts seed against keys."""
    seed_arr = np.asarray(seed, dtype=np.uint64)
    mixed = mix64_array(np.asarray(keys, dtype=np.uint64)) + _U_GOLDEN
    return mix64_array(seed_arr ^ mixed)


# Top 53 bits k, offset to the cell center: (k + 0.5) * 2**-53. For the
# last cell, k = 2**53 - 1, that rounds to exactly 1.0, so every path
# clamps to the largest double below 1; no other value changes.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _to_unit_interval(z: int) -> float:
    return min(((z >> 11) + 0.5) * 2.0**-53, _BELOW_ONE)


def _to_unit_interval_array(z: np.ndarray) -> np.ndarray:
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


class RandomStream:
    """Single-owner uniform stream; one logical stream per simulation cell."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def uniform(self) -> float:
        """Next uniform draw in the open interval (0, 1)."""
        self._state = (self._state + _GOLDEN) & _MASK
        return _to_unit_interval(mix64(self._state))

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` draws as an array, identical to ``n`` uniform() calls."""
        if n < 0:
            raise ParameterError(f"cannot draw a negative number of uniforms, got {n}")
        steps = np.arange(1, n + 1, dtype=np.uint64) * _U_GOLDEN
        z = mix64_array(np.uint64(self._state) + steps)
        self._state = (self._state + n * _GOLDEN) & _MASK
        return _to_unit_interval_array(z)

    def spawn(self, key: int) -> "RandomStream":
        """Child stream for an index key; independent of draw order."""
        return RandomStream(combine(self._state, key))


def cell_seed(master_seed: int, *indices: int) -> int:
    """Seed for one simulation cell, mixing indices in order."""
    seed = master_seed & _MASK
    for idx in indices:
        seed = combine(seed, idx)
    return seed


def cell_uniform_array(master_seed: int, *index_arrays: np.ndarray) -> np.ndarray:
    """First uniform of every cell stream, vectorized over index arrays.

    Broadcasts the index arrays together; equals building each cell's
    :class:`RandomStream` via :func:`cell_seed` and taking its first
    uniform() draw.
    """
    seeds = np.asarray(np.uint64(master_seed & _MASK))
    for keys in index_arrays:
        seeds = combine_array(seeds, keys)
    z = mix64_array(seeds + _U_GOLDEN)
    return _to_unit_interval_array(z)
