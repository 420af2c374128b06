"""Single-sided two-way ranging: timing math and channel-diversity selection.

Clock-drift error is a separate additive term and is never folded into
the sampled error models, which already include every real-world error
source; keeping it apart avoids double counting and leaves the timing
math testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

DIVERSITY_STRATEGIES = ("min", "mean", "median")


@dataclass(frozen=True)
class TwrTiming:
    """One SS-TWR exchange: round-trip and processing times plus clock drifts."""

    t_round: float  # full exchange duration, seconds
    t_proc: float  # responder processing time, seconds
    e1: float = 0.0  # initiator clock drift, dimensionless (e.g. 20e-6 for 20 ppm)
    e2: float = 0.0  # responder clock drift, dimensionless

    def __post_init__(self):
        if not (self.t_round >= self.t_proc >= 0.0):
            raise ParameterError("need t_round >= t_proc >= 0")
        if abs(self.e1) > 1e-3 or abs(self.e2) > 1e-3:
            raise ParameterError("clock drift magnitude must be <= 1e-3")


def propagation_time(t: TwrTiming) -> float:
    """One-way propagation time (t_round - t_proc) / 2, seconds."""
    return (t.t_round - t.t_proc) / 2.0


def drift_error(t: TwrTiming, t_p: float) -> float:
    """Propagation-time estimation error caused by clock drift, seconds.

    Equals e1 * t_p + t_proc * (e1 - e2) / 2 for propagation time t_p.
    """
    if t_p < 0.0:
        raise ParameterError("propagation time must be >= 0")
    return t.e1 * t_p + 0.5 * t.t_proc * (t.e1 - t.e2)


def check_strategy(strategy: str) -> None:
    """ParameterError unless ``strategy`` is one of DIVERSITY_STRATEGIES."""
    if strategy not in DIVERSITY_STRATEGIES:
        raise ParameterError(f"strategy must be one of {DIVERSITY_STRATEGIES}, got {strategy!r}")


def diversity_select(values, strategy: str, axis: int | None = None):
    """Collapse the per-channel measurements along ``axis`` into an array
    with that axis removed or, without ``axis``, all values into one float.

    ``median`` returns the lower-middle element for even counts so the
    result is always a member of the input set.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DataError("diversity selection needs at least one value")
    check_strategy(strategy)
    flat = axis is None
    if flat:  # the values as one axis of channels
        arr, axis = arr.ravel(), 0
    if strategy == "min":  # one reduction over channel-major rows: no inner loop per row;
        # a single row is reduced as arr.min() reduces it
        out = np.minimum.reduce(np.ascontiguousarray(np.moveaxis(arr, axis, 0)))
    elif strategy == "mean":
        out = arr.mean(axis=axis)
    else:
        out = np.take(np.sort(arr, axis=axis), (arr.shape[axis] - 1) // 2, axis=axis)
    return float(out) if flat else out
