"""A fixed calibration kernel that measures how fast the machine runs now.

On a shared host the same code runs 20-40% faster or slower from one
minute to the next, in CPU time as well as wall time, because other
tenants share the cores and caches. The benchmark times this kernel
between blocks of operations and rescales each block's times by
``REFERENCE_S / kernel time``: the result is the time the block would
have taken had the machine run the kernel in ``REFERENCE_S``.

The kernel does not touch uwb_locsim, so a change to the program moves
the rescaled times exactly as it moves the raw ones. Its mix follows
the program's: interpreted Python with float formatting (the CSV
writers, per-call overhead), many numpy calls on tiny arrays (a
single solve) and numpy passes over 20k-element arrays (batched
solves, draws, fitting).
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

# About the kernel's time on a quiet 2.1 GHz Xeon vCPU; only a scale.
REFERENCE_S = 0.016

_SMALL = np.linspace(0.5, 2.0, 24).reshape(8, 3)
_STACK = np.linspace(0.5, 2.0, 32).reshape(1, 8, 4) + np.eye(8, 4)
_LARGE = np.linspace(1.0, 3.0, 20000)


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def scaled(self, k: float) -> "_Point":
        return _Point(self.x * k, self.y + k)


def _python() -> int:
    table: dict[int, str] = {}
    total = 0
    point = _Point(0.0, 0.0)
    for i in range(2500):
        total += (i * 7) % 13
        point = point.scaled(1.0001)
        table[i & 255] = f"{i * 0.001:.6f},{total},{point.y:.3f}"
    return total + len(",".join(table.values()))


def _small_arrays() -> float:
    x = _SMALL
    for _ in range(90):
        x = np.linalg.norm(_SMALL - x[0], axis=1)[:, None] * _SMALL + 0.1
        q, r = np.linalg.qr(_STACK)
        rhs = np.einsum("bmi,bm->bi", q, x[None, :, :1].repeat(4, axis=2)[..., 0])
        x = x + 1e-3 * np.linalg.solve(r, rhs[..., None])[0, :3, 0]
    return float(x.sum())


def _large_arrays() -> float:
    x = _LARGE
    for _ in range(30):
        x = np.log1p(np.sort(x)) * 1.0001 + 0.5
    return float(x.sum())


def kernel_s() -> float:
    """Wall time of one pass of the kernel."""
    start = time.perf_counter()
    _python()
    _small_arrays()
    _large_arrays()
    return time.perf_counter() - start


def median_kernel_s(passes: int) -> float:
    return statistics.median(kernel_s() for _ in range(passes))
