"""Regularized Gauss-Newton true-range multilateration.

Each iteration solves (J^T W^2 J + c^2 I) dx = J^T W^2 (h - d) + c^2 (x_r - x),
where h maps x to its anchor distances, J has unit rows pointing from x
toward the anchors (so h(x + dx) ~ h - J dx), W holds optional inverse
per-anchor standard deviations, and c pulls the iterate toward the
reference point x_r with the strength of an inverse prior standard
deviation. The 3 x 3 systems are solved elementwise across a batch by
an explicit Cholesky factorization. With c > 0 the matrix is symmetric
positive definite with smallest eigenvalue >= c^2. With c = 0 a
degenerate geometry makes it singular; a pivot at most 1e-12 times the
largest flags the point failed (in exact arithmetic the pivots equal
|R_ii| of a QR of the stacked system). Forming J^T J squares the
condition number, so at c = 0 diverging iterates (|x| ~ 1e4 m) agree
with a QR solve only to ~1e-5 m; converged ones agree to ~1e-14 m.
Points whose pivots or step are not finite are flagged failed and keep
their last finite iterate. Iteration stops when the step norm drops
below ``delta`` or after ``k_max`` iterations.

The batched entry point runs many independent solves at once with the
same per-point arithmetic; the single-point API is a thin wrapper over
a batch of one, so the two can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SingularGeometryError
from .geometry import Anchor, Point3

_ANCHOR_COINCIDENCE = 1e-9  # meters; closer than this counts as "on an anchor"
_PERTURB_Z = 1e-6  # meters; nudge applied when an iterate lands on an anchor
_RANK_TOL = 1e-12  # smallest / largest Cholesky pivot at or below this is singular


@dataclass(frozen=True)
class SolverConfig:
    """Gauss-Newton hyperparameters.

    ``weights`` are per-anchor measurement standard deviations in
    meters (the diagonal of the noise covariance square root);
    measurements are scaled by their inverses, so omitting them gives
    every anchor unit weight.
    """

    delta: float = 1e-3  # stop tolerance on the step norm, meters
    k_max: int = 10  # iteration cap
    c: float = 0.1  # regularization coefficient, 1/meters
    x_r: Point3 | None = None  # regularization point; None = derive from anchors
    x_r_mode: str = "median"  # "median" or "mean" of anchor coordinates
    weights: tuple[float, ...] | None = None  # per-anchor sigmas, meters
    x0: Point3 | None = None  # initial iterate; None = x_r

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ParameterError(f"delta must be finite and > 0, got {self.delta}")
        if self.k_max < 1:
            raise ParameterError("k_max must be >= 1")
        if not (np.isfinite(self.c) and self.c >= 0.0):
            raise ParameterError(f"c must be finite and >= 0, got {self.c}")
        if self.x_r_mode not in ("median", "mean"):
            raise ParameterError("x_r_mode must be 'median' or 'mean'")
        if self.weights is not None and not all(np.isfinite(w) and w > 0.0 for w in self.weights):
            raise ParameterError(f"anchor weights must all be finite and > 0, got {self.weights}")


@dataclass(frozen=True)
class LocationEstimate:
    position: Point3
    iterations: int
    converged: bool
    final_step_norm: float  # meters


def anchor_positions(anchors: list[Anchor]) -> np.ndarray:
    return np.array([a.position.as_array() for a in anchors], dtype=float)


def reference_point(anchors: list[Anchor], mode: str = "median") -> np.ndarray:
    """Component-wise median (or mean) of the anchor coordinates."""
    positions = anchor_positions(anchors)
    if mode == "median":
        return np.median(positions, axis=0)
    if mode == "mean":
        return positions.mean(axis=0)
    raise ParameterError("mode must be 'median' or 'mean'")


def start_points(config: SolverConfig, anchors: list[Anchor]) -> tuple[np.ndarray, np.ndarray]:
    """Regularization point x_r and first iterate x0: the configured points,
    else x_r from the anchors by ``x_r_mode`` and x0 = x_r."""
    x_r = config.x_r.as_array() if config.x_r is not None else reference_point(anchors, config.x_r_mode)
    return x_r, (config.x0.as_array() if config.x0 is not None else x_r)


def _unit_rows(positions: np.ndarray, x: np.ndarray, nudge: bool):
    """Per-axis unit vectors ``(ux, uy, uz)`` and distances, each (B, N), from
    iterates ``x`` (B, 3) toward the anchors. An iterate on an anchor raises
    SingularGeometryError or, with ``nudge``, moves along +z in place."""
    for _attempt in range(3):
        ex = positions[:, 0] - x[:, 0, None]
        ey = positions[:, 1] - x[:, 1, None]
        ez = positions[:, 2] - x[:, 2, None]
        dist = np.sqrt(ex * ex + ey * ey + ez * ez)
        too_close = dist < _ANCHOR_COINCIDENCE
        if not too_close.any():
            break
        if not nudge:
            raise SingularGeometryError("position coincides with an anchor")
        x[too_close.any(axis=1), 2] += _PERTURB_Z
    return ex / dist, ey / dist, ez / dist, dist


def jacobian(x: Point3, anchors: list[Anchor]) -> np.ndarray:
    """Unit-row direction matrix from position x toward every anchor."""
    point = np.asarray(x.as_array() if isinstance(x, Point3) else x, dtype=float)
    ux, uy, uz, _ = _unit_rows(anchor_positions(anchors), point.reshape(1, 3), nudge=False)
    return np.column_stack([ux[0], uy[0], uz[0]])


def localization_error(estimate: Point3, truth: Point3, mode: str = "2d") -> float:
    """Euclidean position error in meters; '2d' ignores the z term."""
    dx, dy, dz = estimate.x - truth.x, estimate.y - truth.y, estimate.z - truth.z
    if mode == "2d":
        return float(np.hypot(dx, dy))
    if mode == "3d":
        return float(np.sqrt(dx * dx + dy * dy + dz * dz))
    raise ParameterError("mode must be '2d' or '3d'")


@dataclass
class BatchSolveResult:
    positions: np.ndarray  # (B, 3) meters
    iterations: np.ndarray  # (B,) int
    converged: np.ndarray  # (B,) bool
    step_norms: np.ndarray  # (B,) meters, last step taken
    failed: np.ndarray = field(default=None)  # (B,) bool, unsolvable points


def _gauss_newton_step(positions, w2, c2, x_r, xk, d):
    """Steps (B, 3) for iterates ``xk`` and a (B,) mask of unsolvable points:
    singular normal matrix, or a non-finite pivot or step."""
    ux, uy, uz, dist = _unit_rows(positions, xk, nudge=True)
    wx, wy, wz = (ux, uy, uz) if w2 is None else (ux * w2, uy * w2, uz * w2)
    resid = dist - d
    a11 = (wx * ux).sum(axis=1) + c2
    a12 = (wx * uy).sum(axis=1)
    a13 = (wx * uz).sum(axis=1)
    a22 = (wy * uy).sum(axis=1) + c2
    a23 = (wy * uz).sum(axis=1)
    a33 = (wz * uz).sum(axis=1) + c2
    pull = c2 * (x_r - xk)
    b1 = (wx * resid).sum(axis=1) + pull[:, 0]
    b2 = (wy * resid).sum(axis=1) + pull[:, 1]
    b3 = (wz * resid).sum(axis=1) + pull[:, 2]

    # A = L L^T, then L y = b and L^T dx = y.
    l11 = np.sqrt(a11)
    l21 = a12 / l11
    l31 = a13 / l11
    l22 = np.sqrt(a22 - l21 * l21)
    l32 = (a23 - l31 * l21) / l22
    l33 = np.sqrt(a33 - l31 * l31 - l32 * l32)
    y1 = b1 / l11
    y2 = (b2 - l21 * y1) / l22
    y3 = (b3 - l31 * y1 - l32 * y2) / l33
    s3 = y3 / l33
    s2 = (y2 - l32 * s3) / l22
    step = np.column_stack([(y1 - l21 * s2 - l31 * s3) / l11, s2, s3])

    # NaN or infinite pivots fail the comparison and count as singular.
    low, high = np.minimum(np.minimum(l11, l22), l33), np.maximum(np.maximum(l11, l22), l33)
    unsolvable = ~(low > _RANK_TOL * high) | ~np.isfinite(step).all(axis=1)
    return step, unsolvable


def solve_batch(
    config: SolverConfig,
    positions: np.ndarray,
    distances: np.ndarray,
    x_r: np.ndarray,
    x0: np.ndarray,
) -> BatchSolveResult:
    """Run independent Gauss-Newton solves for a batch of points.

    ``positions`` is (N, 3) anchor coordinates, ``distances`` is (B, N)
    measured ranges, ``x0`` is (B, 3) start iterates. Points whose
    distances are not all finite and positive, or that become unsolvable,
    are flagged failed instead of aborting the batch.
    """
    positions = np.asarray(positions, dtype=float)
    distances = np.asarray(distances, dtype=float)
    n_points, n_anchors = distances.shape
    if positions.shape != (n_anchors, 3):
        raise ParameterError(
            f"anchor array {positions.shape} does not match distances ({n_anchors} per point)"
        )

    w2 = None
    if config.weights is not None:
        if len(config.weights) != n_anchors:
            raise ParameterError("one weight per anchor required")
        w2 = 1.0 / np.asarray(config.weights, dtype=float) ** 2
    c2 = config.c * config.c

    x = np.array(x0, dtype=float).reshape(n_points, 3).copy()
    iterations = np.zeros(n_points, dtype=int)
    converged = np.zeros(n_points, dtype=bool)
    failed = ~np.all(np.isfinite(distances) & (distances > 0.0), axis=1)
    step_norms = np.zeros(n_points)

    idx = np.flatnonzero(~failed)
    with np.errstate(all="ignore"):
        for _ in range(config.k_max):
            if idx.size == 0:
                break
            xk = x[idx]
            step, unsolvable = _gauss_newton_step(positions, w2, c2, x_r, xk, distances[idx])
            if unsolvable.any():
                failed[idx[unsolvable]] = True
                keep = ~unsolvable
                idx, xk, step = idx[keep], xk[keep], step[keep]

            norms = np.sqrt((step * step).sum(axis=1))
            x[idx] = xk + step
            step_norms[idx] = norms
            iterations[idx] += 1
            done = norms < config.delta
            converged[idx] = done
            idx = idx[~done]

    return BatchSolveResult(x, iterations, converged, step_norms, failed)


def solve(config: SolverConfig, anchors: list[Anchor], distances) -> LocationEstimate:
    """Estimate a position from anchor distances.

    Raises ParameterError on malformed inputs, including distances that
    are not finite and positive, and SingularGeometryError when the
    anchor geometry is rank deficient (only possible with c = 0) or the
    iterate stops being finite.
    """
    positions = anchor_positions(anchors)
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 1 or distances.size != len(anchors):
        raise ParameterError(f"got {distances.size} distances for {len(anchors)} anchors")
    if not np.all(np.isfinite(distances) & (distances > 0.0)):
        raise ParameterError("distances must all be finite and > 0")
    if len(anchors) < 3:
        raise ParameterError("at least three anchors are required")

    x_r, x0 = start_points(config, anchors)
    result = solve_batch(config, positions, distances[None, :], x_r, x0[None, :])
    if result.failed[0]:
        raise SingularGeometryError("rank-deficient anchor geometry or non-finite iterate")
    pos = result.positions[0]
    return LocationEstimate(
        position=Point3(float(pos[0]), float(pos[1]), float(pos[2])),
        iterations=int(result.iterations[0]),
        converged=bool(result.converged[0]),
        final_step_norm=float(result.step_norms[0]),
    )
