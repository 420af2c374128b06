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
same per-point arithmetic; the single-point API runs a batch of one, so
the two can never drift apart. Around that call ``solve`` adds only its
distance rule, one (N, 3) anchor array, the start points taken from
it, and the unpacking of row 0 into a ``LocationEstimate``. At a batch
of one, numpy's per-call cost outweighs its arithmetic, so reductions
call the ufuncs (``np.add.reduce``, ``np.logical_or.reduce``) and not
the ndarray methods that wrap them in Python (``.sum``, ``.any``),
with the same bits. ``solve_batch`` states the input contract once:
(B, N) distances, (N, 3) anchors and a (3,) or (B, 3) ``x0``, each rule
a ParameterError naming the shapes. The two rules on the anchors
themselves, at least three and one weight per anchor, are
``check_anchors``, which ``solve_batch``, ``Scenario`` and the
``solve`` input reader all call, so each has one wording.

A batch is held anchor-major: iterates and steps are (3, B) arrays,
ranges, residuals and unit-vector components (N, B), so every
per-point sum (the six entries of J^T W^2 J + c^2 I, the three of the
right-hand side, the step norm) is a reduction over axis 0, a few
whole-row adds instead of a short loop per point. ``_anchor_reducer``
picks, once per batch, the sum that adds the anchors in the order numpy
adds the rows of a (B, N) array: left to right below eight anchors,
pairwise from eight on. So the results are bit-identical to those of a
point-major (B, N) kernel whatever the anchor count, and do not depend
on how a batch is split.

The points still iterating form an active set: their iterates, ranges
and last step norms are held in compacted working arrays, which are
gathered by index (``take`` of the staying positions) only on an
iteration where some point leaves. A point's
results are written once, when it leaves: converged at iteration k with
k iterations; unsolvable at iteration k with k - 1 iterations, its last
finite iterate and the norm of the step before; still active after
``k_max`` with ``k_max`` iterations. A start ``x0`` of shape (3,) is
shared by the whole batch: the first iteration runs the same kernel on
one (3, 1) iterate, so numpy broadcasting forms the unit rows, the
normal matrix and its Cholesky factor once, and only the residuals, the
right-hand side and the two triangular solves are per point.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def check_anchors(n_anchors: int, weights, name: str = "weights") -> None:
    """ParameterError unless there are at least three anchors and ``weights``
    (named ``name``) is None or holds one weight per anchor."""
    if n_anchors < 3:
        raise ParameterError("at least three anchors are required")
    if weights is not None and len(weights) != n_anchors:
        raise ParameterError(f"{name}: one weight per anchor required, got {len(weights)} for {n_anchors} anchors")


@dataclass(frozen=True)
class LocationEstimate:
    position: Point3
    iterations: int
    converged: bool
    final_step_norm: float  # meters


def anchor_positions(anchors: list[Anchor]) -> np.ndarray:
    return np.array([(a.position.x, a.position.y, a.position.z) for a in anchors], dtype=float).reshape(-1, 3)


def reference_point(anchors: list[Anchor], mode: str = "median") -> np.ndarray:
    """The x_r that ``start_points`` derives from ``anchors`` under
    ``x_r_mode=mode``: their component-wise median, with the bits of
    ``np.median(positions, axis=0)``, or mean."""
    if not anchors:
        raise ParameterError("a reference point needs at least one anchor")
    return start_points(SolverConfig(x_r_mode=mode), anchor_positions(anchors))[0]


def start_points(config: SolverConfig, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regularization point x_r and first iterate x0: the configured points,
    else x_r from the (N, 3) anchor ``positions`` by ``x_r_mode`` and x0 = x_r."""
    with np.errstate(over="ignore"):  # an x_r that overflows to inf fails every solve
        if config.x_r is not None:
            x_r = config.x_r.as_array()
        elif config.x_r_mode == "mean":
            x_r = positions.mean(axis=0)
        else:
            # np.median's own arithmetic: the mean of the middle one or two values,
            # whose sum starts at +0.0, so the order of tied zeros cannot matter
            ordered = np.sort(positions, axis=0)
            middle = ordered[(len(ordered) - 1) // 2:len(ordered) // 2 + 1]
            x_r = np.add.reduce(middle) / len(middle)
    return x_r, (config.x0.as_array() if config.x0 is not None else x_r)


def _anchor_reducer(n_anchors: int):
    """The function that sums (N, B) arrays over their N anchors (axis 0) in
    the order numpy adds the rows of their (B, N) transposes: ``np.add.reduce``
    itself, left to right, below eight anchors, pairwise from eight on."""
    if n_anchors < 8:
        return np.add.reduce
    return lambda a: np.add.reduce(np.ascontiguousarray(a.T), 1)


def _unit_rows(positions: np.ndarray, x: np.ndarray):
    """Per-axis unit vectors ``(ux, uy, uz)`` and distances, each (N, B), from
    iterates ``x`` (3, B) toward the anchors, and the iterates they were taken
    from: an iterate on an anchor moves along +z in a copy, so ``x`` itself is
    never written and comes back only when no iterate moved. The unit
    vectors overwrite the differences they are divided from."""
    for _attempt in range(3):
        ex = positions[:, 0, None] - x[0]
        ey = positions[:, 1, None] - x[1]
        ez = positions[:, 2, None] - x[2]
        dist = ex * ex
        dist += ey * ey
        dist += ez * ez
        np.sqrt(dist, out=dist)
        if not np.minimum.reduce(dist, None, initial=np.inf) < _ANCHOR_COINCIDENCE:
            break
        x = x.copy()
        x[2, np.logical_or.reduce(dist < _ANCHOR_COINCIDENCE)] += _PERTURB_Z
    ex /= dist
    ey /= dist
    ez /= dist
    return ex, ey, ez, dist, x


def jacobian(x: Point3, anchors: list[Anchor]) -> np.ndarray:
    """Unit-row direction matrix (N, 3) from position x toward every anchor:
    the solver's ``_unit_rows``, except that a position on an anchor raises
    SingularGeometryError instead of being nudged."""
    point = np.asarray(x.as_array() if isinstance(x, Point3) else x, dtype=float).reshape(3, 1)
    ux, uy, uz, _, moved = _unit_rows(anchor_positions(anchors), point)
    if moved is not point:
        raise SingularGeometryError("position coincides with an anchor")
    return np.column_stack([ux[:, 0], uy[:, 0], uz[:, 0]])


@dataclass
class BatchSolveResult:
    positions: np.ndarray  # (B, 3) meters
    iterations: np.ndarray  # (B,) int
    converged: np.ndarray  # (B,) bool
    step_norms: np.ndarray  # (B,) meters, last step taken
    failed: np.ndarray  # (B,) bool, unsolvable points; positions keep their last finite iterate


def _gauss_newton_step(positions, w2, c2, x_r, xk, d, total):
    """The iterates the step starts from (``xk``, nudged off any anchor), the
    steps (3, B) and a (B,) mask of unsolvable points (singular normal matrix,
    or a non-finite pivot or step), for iterates ``xk`` (3, B), or one (3, 1)
    iterate shared by all, ranges ``d`` (N, B) and the anchor sum ``total``
    from ``_anchor_reducer``. To bound the (N, B) temporaries, the residuals
    overwrite the distances (unless a shared iterate broadcasts them), the nine
    anchor sums take their products in one buffer, the last in the residuals,
    and all of them are freed before the per-point factorization."""
    ux, uy, uz, dist, xk = _unit_rows(positions, xk)
    wx, wy, wz = (ux, uy, uz) if w2 is None else (ux * w2, uy * w2, uz * w2)
    shared = dist.shape != d.shape
    resid = np.subtract(dist, d, out=None if shared else dist)
    prod = np.multiply(wx, ux)
    a11 = total(prod) + c2
    a12 = total(np.multiply(wx, uy, out=prod))
    a13 = total(np.multiply(wx, uz, out=prod))
    a22 = total(np.multiply(wy, uy, out=prod)) + c2
    a23 = total(np.multiply(wy, uz, out=prod))
    a33 = total(np.multiply(wz, uz, out=prod)) + c2
    pull = c2 * (x_r - xk)
    prod = np.multiply(wx, resid, out=None if shared else prod)
    b1 = total(prod) + pull[0]
    b2 = total(np.multiply(wy, resid, out=prod)) + pull[1]
    b3 = total(np.multiply(wz, resid, out=resid)) + pull[2]
    del ux, uy, uz, wx, wy, wz, dist, resid, prod

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
    step = np.array([(y1 - l21 * s2 - l31 * s3) / l11, s2, s3])

    # NaN or infinite pivots fail the comparison and count as singular.
    low, high = np.minimum(np.minimum(l11, l22), l33), np.maximum(np.maximum(l11, l22), l33)
    unsolvable = ~((low > _RANK_TOL * high) & np.logical_and.reduce(np.isfinite(step)))
    return xk, step, unsolvable


def solve_batch(
    config: SolverConfig,
    positions: np.ndarray,
    distances: np.ndarray,
    x_r: np.ndarray,
    x0: np.ndarray,
) -> BatchSolveResult:
    """Run independent Gauss-Newton solves for a batch of points.

    ``positions`` is (N, 3) anchor coordinates (N >= 3), ``distances``
    (B, N) measured ranges and ``x0`` (B, 3) start iterates or one (3,)
    start shared by the batch, which gives the same results; any other
    shape is a ParameterError. Points whose distances are not all finite
    and positive, or that become unsolvable, are flagged failed.
    """
    positions = np.asarray(positions, dtype=float)
    distances = np.asarray(distances, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if distances.ndim != 2:
        raise ParameterError(f"distances must be a (B, N) array, got shape {distances.shape}")
    n_points, n_anchors = distances.shape
    if positions.shape != (n_anchors, 3):
        raise ParameterError(f"got {n_anchors} distances per point for anchors of shape {positions.shape}")
    check_anchors(n_anchors, config.weights)
    if x0.shape not in ((3,), (n_points, 3)):
        raise ParameterError(f"x0 must have shape (3,) or ({n_points}, 3), got {x0.shape}")

    total = _anchor_reducer(n_anchors)
    w2 = None if config.weights is None else 1.0 / np.asarray(config.weights, dtype=float)[:, None] ** 2
    c2 = config.c * config.c
    x_r = np.asarray(x_r, dtype=float).reshape(3, 1)

    # Anchor-major first, so the test and the gather run along whole rows. A
    # caller that keeps no name for its (B, N) array frees it here.
    ranges = distances.T.copy()
    del distances
    solvable = np.logical_and.reduce(np.isfinite(ranges) & (ranges > 0.0))
    failed = ~solvable
    idx = solvable.nonzero()[0]  # the points still iterating
    ranges = ranges.compress(solvable, axis=1)  # (N, m) for the m points in idx
    if x0.shape == (3,):  # one start shared by the batch: the first step broadcasts it
        x = x0[:, None]
        out = x.repeat(n_points, axis=1)
    else:
        out = np.array(x0.T, order="C")  # (3, B)
        x = out[:, idx]
    iterations = np.zeros(n_points, dtype=int)
    converged = np.zeros(n_points, dtype=bool)
    step_norms = np.zeros(n_points)
    last = np.zeros(idx.size)  # step norms of the points in idx

    # A point's results are written once, when it leaves the active set.
    with np.errstate(all="ignore"):
        for k in range(1, config.k_max + 1):
            if idx.size == 0:
                break
            xk, step, unsolvable = _gauss_newton_step(positions, w2, c2, x_r, x, ranges, total)
            norms = np.sqrt(np.add.reduce(step * step))
            x_next = xk + step
            done = leave = norms < config.delta
            if np.logical_or.reduce(unsolvable):  # these keep their last finite iterate and step
                gone = idx[unsolvable]
                out[:, gone] = np.broadcast_to(x, step.shape)[:, unsolvable]
                iterations[gone] = k - 1
                failed[gone] = True
                step_norms[gone] = last[unsolvable]
                done, leave = done & ~unsolvable, done | unsolvable
            if np.logical_or.reduce(leave):  # by index: about 3x faster than mask gathers
                done = np.flatnonzero(done)
                gone = idx.take(done)
                out[:, gone] = x_next.take(done, axis=1)
                iterations[gone] = k
                converged[gone] = True
                step_norms[gone] = norms.take(done)
                stay = np.flatnonzero(~leave)
                idx, norms = idx.take(stay), norms.take(stay)
                x_next, ranges = x_next.take(stay, axis=1), ranges.take(stay, axis=1)
                del stay  # 8 bytes a point, which the next step's peak would hold
            x, last = x_next, norms
        else:  # no break: these points were still iterating after k_max
            out[:, idx] = x
            iterations[idx] = config.k_max
            step_norms[idx] = last

    return BatchSolveResult(out.T, iterations, converged, step_norms, failed)


def solve(config: SolverConfig, anchors: list[Anchor], distances) -> LocationEstimate:
    """Estimate a position from anchor distances.

    Its one rule: distances not all finite and positive are the caller's
    ParameterError, not a failed solve; ``check_anchors`` runs before the
    start points need an anchor, and ``solve_batch`` checks the shapes.
    SingularGeometryError when the geometry is rank deficient (only
    possible with c = 0) or the iterate stops being finite.
    """
    distances = np.asarray(distances, dtype=float)
    if not np.logical_and.reduce(np.isfinite(distances) & (distances > 0.0), axis=None):
        raise ParameterError("distances must all be finite and > 0")
    check_anchors(len(anchors), config.weights)
    positions = anchor_positions(anchors)
    result = solve_batch(config, positions, distances[None], *start_points(config, positions))
    if result.failed[0]:
        raise SingularGeometryError("rank-deficient anchor geometry or non-finite iterate")
    return LocationEstimate(
        position=Point3(*result.positions[0].tolist()),
        iterations=int(result.iterations[0]),
        converged=bool(result.converged[0]),
        final_step_norm=float(result.step_norms[0]),
    )
