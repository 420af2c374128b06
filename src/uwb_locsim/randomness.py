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

from .errors import ParameterError, check_array_size

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_U_MIX_2 = np.uint64(0x94D049BB133111EB)


def mix64_array(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array: a bijective avalanche mix."""
    z = values.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _U_MIX_1
    z ^= z >> np.uint64(27)
    z *= _U_MIX_2
    z ^= z >> np.uint64(31)
    return z


def combine_array(seed: np.ndarray | int, keys: np.ndarray) -> np.ndarray:
    """Child seeds of parent seeds and index keys, broadcast together. For a
    fixed parent the map key -> child is injective: siblings never collide."""
    seed_arr = np.asarray(seed, dtype=np.uint64)
    mixed = mix64_array(np.asarray(keys, dtype=np.uint64)) + _U_GOLDEN
    return mix64_array(seed_arr ^ mixed)


# Top 53 bits k, offset to the cell center: (k + 0.5) * 2**-53. For the
# last cell, k = 2**53 - 1, that rounds to exactly 1.0, so the map
# clamps to the largest double below 1; no other value changes.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _to_unit_interval_array(z: np.ndarray) -> np.ndarray:
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


class RandomStream:
    """Single-owner uniform stream; one logical stream per simulation cell."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` draws in the open interval (0, 1), identical to ``n`` calls
        of ``uniforms(1)``."""
        if n < 0:
            raise ParameterError(f"cannot draw a negative number of uniforms, got {n}")
        check_array_size(n)
        steps = np.arange(1, n + 1, dtype=np.uint64) * _U_GOLDEN
        z = mix64_array(np.uint64(self._state) + steps)
        self._state = (self._state + n * _GOLDEN) & _MASK
        return _to_unit_interval_array(z)


def cell_uniform_array(master_seed: int, *index_arrays: np.ndarray) -> np.ndarray:
    """First uniform of every cell stream, vectorized over index arrays.

    Broadcasts the index arrays together. A cell's seed is the master
    seed passed through :func:`combine_array` once per index, in order;
    the result is the first draw of a :class:`RandomStream` built from
    that seed.
    """
    seeds = np.asarray(np.uint64(master_seed & _MASK))
    for keys in index_arrays:
        seeds = combine_array(seeds, keys)
    z = mix64_array(seeds + _U_GOLDEN)
    return _to_unit_interval_array(z)
