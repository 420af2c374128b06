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


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array the caller owns, in place,
    with one scratch buffer for the shifts. Returns ``z``."""
    scratch = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _U_MIX_1
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _U_MIX_2
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def combine_array(seed: np.ndarray | int, keys: np.ndarray) -> np.ndarray:
    """Child seeds of parent seeds and index keys, broadcast together. For a
    fixed parent the map key -> child is injective: siblings never collide."""
    seed = np.asarray(seed, dtype=np.uint64)
    mixed = _mix64_inplace(np.array(keys, dtype=np.uint64))
    mixed += _U_GOLDEN
    out = np.empty(np.broadcast_shapes(seed.shape, mixed.shape), dtype=np.uint64)
    width = out.shape[-1] if out.ndim else 1
    if seed.ndim and seed.shape[-1] == 1 < width and width * width < out.size:
        # Only the keys vary along a short last axis (the channels): numpy
        # would run its inner loop once per row, so xor one slice at a time.
        for j in range(width):
            np.bitwise_xor(seed[..., 0], mixed[..., j], out=out[..., j])
    else:
        np.bitwise_xor(seed, mixed, out=out)
    return _mix64_inplace(out)


# Top 53 bits k, offset to the cell center: (k + 0.5) * 2**-53. For the
# last cell, k = 2**53 - 1, that rounds to exactly 1.0, so the map
# clamps to the largest double below 1; no other value changes.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _to_unit_interval_array(z: np.ndarray) -> np.ndarray:
    """Words to (0, 1); shifts ``z``, which the caller owns, in place."""
    u = np.right_shift(z, np.uint64(11), out=z).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
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
        z = _mix64_inplace(np.uint64(self._state) + steps)
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
    seeds += _U_GOLDEN
    return _to_unit_interval_array(_mix64_inplace(seeds))
