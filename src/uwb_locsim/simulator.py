"""Monte Carlo deployment studies: tag grid, link classification, error
sampling, batched solving, and error statistics.

A study is one loop over fixed chunks of (run, point) cells. Each pass
draws the chunk's uniforms, maps them through the error model of each
link's condition, collapses channels with ``ranging.diversity_select``
and solves the chunk, so draws and solver temporaries stay bounded and
only per-point results grow with the number of runs.

Every (run, point, anchor, channel) cell owns one uniform draw, derived
by avalanche-mixing the cell indices into the master seed. Draws are
therefore independent of execution order, chunk size and thread count,
and the link condition only chooses how a cell's uniform is transformed
— so removing all walls from a scenario reproduces the LOS outputs for
the same seed, draw for draw.

Results aggregate the errors of all runs concatenated (not averaged
per point). The standard deviation is the population form. Points
whose solve fails are excluded from the aggregates and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ErrorDistribution
from .errors import DataError, ParameterError
from .geometry import (
    CONDITION_LOS,
    SEVERITY_TO_CONDITION,
    Anchor,
    Wall,
    classify_links_bulk,
)
from .randomness import cell_uniform_array
from .ranging import DIVERSITY_STRATEGIES, diversity_select
from .solver import SolverConfig, anchor_positions, solve_batch, start_points

_CHUNK = 4096  # (run, point) cells per pass; bounds draws and solver temporaries
_MAX_GRID_POINTS = 10**7  # tag lattice cap; the presets have 2,997 points


@dataclass(frozen=True)
class DiversityConfig:
    channels: int  # independent measurements per ranging
    strategy: str  # min | mean | median

    def __post_init__(self):
        if self.channels < 1:
            raise ParameterError("diversity needs at least one channel")
        if self.strategy not in DIVERSITY_STRATEGIES:
            raise ParameterError(f"strategy must be one of {DIVERSITY_STRATEGIES}")


@dataclass(frozen=True)
class Scenario:
    """Floor plan, error models, and run plan for one deployment study."""

    area: tuple[float, float]  # tracking area width (x) and depth (y), meters
    anchors: tuple[Anchor, ...]
    walls: tuple[Wall, ...]
    grid_step: float  # meters
    tag_height: float  # meters
    runs: int
    seed: int
    model_table: dict[str, ErrorDistribution]  # condition token -> model
    solver: SolverConfig = SolverConfig()
    diversity: DiversityConfig | None = None

    def __post_init__(self):
        if not self.grid_step > 0.0:
            raise ParameterError("grid_step must be > 0")
        if not math.isfinite(self.tag_height):
            raise ParameterError(f"tag_height must be finite, got {self.tag_height}")
        if self.runs < 1:
            raise ParameterError("runs must be >= 1")
        if len(self.anchors) < 3:
            raise ParameterError("a scenario needs at least three anchors")
        if len({a.id for a in self.anchors}) != len(self.anchors):
            raise ParameterError("anchor ids must be unique")
        required = {CONDITION_LOS} | {w.material for w in self.walls}
        missing = required - set(self.model_table)
        if missing:
            raise ParameterError(f"model_table is missing conditions: {sorted(missing)}")


@dataclass(frozen=True)
class AggregateStats:
    count: int
    mean: float
    std: float  # population standard deviation
    median: float
    q1: float
    q3: float
    iqr: float
    ecdf_values: np.ndarray  # distinct error values, sorted, meters
    ecdf_probs: np.ndarray  # P(error <= value), right-continuous

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
        }


@dataclass
class RunStatistics:
    """Per-point results for every run plus cross-run aggregates."""

    grid: np.ndarray  # (P, 3) true tag positions
    conditions: list[str]  # per point: "|"-joined per-anchor condition tokens
    estimates: np.ndarray  # (R, P, 3) solved positions (NaN where failed)
    err2d: np.ndarray  # (R, P) meters (NaN where failed)
    err3d: np.ndarray  # (R, P) meters (NaN where failed)
    failed: np.ndarray  # (R, P) bool
    aggregate_2d: AggregateStats = field(default=None)
    aggregate_3d: AggregateStats = field(default=None)

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())


def build_grid(area: tuple[float, float], grid_step: float, tag_height: float) -> np.ndarray:
    """Lattice of tag positions covering the area, including exact edges.

    Points are ordered x-major: index = ix * ny + iy.
    """
    width, depth = float(area[0]), float(area[1])
    if not grid_step > 0.0:
        raise ParameterError("grid_step must be > 0")
    if not (0.0 <= width < math.inf and 0.0 <= depth < math.inf):
        raise ParameterError(f"area dimensions must be finite and >= 0, got {area}")
    if grid_step > width and grid_step > depth:
        raise DataError(f"grid step {grid_step} m exceeds both area dimensions {area}")
    span_x, span_y = width / grid_step + 1e-9, depth / grid_step + 1e-9
    if not (span_x + 1.0) * (span_y + 1.0) <= _MAX_GRID_POINTS:  # also an infinite quotient
        raise DataError(f"grid step {grid_step} m gives over {_MAX_GRID_POINTS:.0e} tag points")
    nx = int(math.floor(span_x)) + 1
    ny = int(math.floor(span_y)) + 1
    xs = np.arange(nx) * grid_step
    ys = np.arange(ny) * grid_step
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel(), np.full(nx * ny, float(tag_height))])
    return points


def aggregate(errors) -> AggregateStats:
    """Summary statistics plus an ECDF sampled at every distinct value."""
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size == 0:
        raise DataError("cannot aggregate an empty error list")
    ordered = np.sort(errors)
    q1, median, q3 = np.percentile(ordered, [25.0, 50.0, 75.0])
    values = np.unique(ordered)
    probs = np.searchsorted(ordered, values, side="right") / ordered.size
    return AggregateStats(
        count=int(errors.size),
        mean=float(errors.mean()),
        std=float(errors.std()),
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        iqr=float(q3 - q1),
        ecdf_values=values,
        ecdf_probs=probs,
    )


def _classify_grid(grid: np.ndarray, anchors, walls) -> np.ndarray:
    """Severity matrix (P, A): 0 = LOS, 1 = drywall, 2 = concrete."""
    severity = np.zeros((len(grid), len(anchors)), dtype=np.int8)
    for j, anchor in enumerate(anchors):
        severity[:, j] = classify_links_bulk(grid[:, :2], anchor.position.xy, walls)
    return severity


def run_scenario(scenario: Scenario, threads: int = 1) -> RunStatistics:
    """Execute the full study: classify; draw, select and solve chunk by
    chunk; aggregate.

    ``threads`` is accepted for compatibility and ignored: the study
    runs serially in fixed-size chunks, which measured faster than a
    thread pool, so results never depend on it.
    """
    grid = build_grid(scenario.area, scenario.grid_step, scenario.tag_height)
    anchors = list(scenario.anchors)
    positions = anchor_positions(anchors)
    severity = _classify_grid(grid, anchors, scenario.walls)
    true_dist = np.linalg.norm(positions[None, :, :] - grid[:, None, :], axis=2)
    x_r, x0 = start_points(scenario.solver, anchors)
    models = {
        level: scenario.model_table[SEVERITY_TO_CONDITION[int(level)]]
        for level in np.unique(severity)
    }
    diversity = scenario.diversity or DiversityConfig(channels=1, strategy="min")
    anchor_keys = np.arange(len(anchors))[:, None]
    channel_keys = np.arange(diversity.channels)

    n_runs, n_points = scenario.runs, len(grid)
    n_cells = n_runs * n_points
    estimates = np.empty((n_cells, 3))
    failed = np.empty(n_cells, dtype=bool)
    for lo in range(0, n_cells, _CHUNK):
        hi = min(lo + _CHUNK, n_cells)
        run, point = np.divmod(np.arange(lo, hi), n_points)
        u = cell_uniform_array(
            scenario.seed, run[:, None, None], point[:, None, None], anchor_keys, channel_keys
        )
        chunk_severity = severity[point]
        errors = np.empty_like(u)
        for level, model in models.items():
            mask = chunk_severity == level
            errors[mask] = model.quantile(u[mask])
        measured = diversity_select(
            true_dist[point][:, :, None] + errors, diversity.strategy, axis=-1
        )
        starts = np.broadcast_to(x0, (hi - lo, 3))
        result = solve_batch(scenario.solver, positions, measured, x_r, starts)
        estimates[lo:hi] = result.positions
        failed[lo:hi] = result.failed

    estimates = estimates.reshape(n_runs, n_points, 3)
    failed = failed.reshape(n_runs, n_points)
    diff = estimates - grid[None, :, :]
    err2d = np.linalg.norm(diff[:, :, :2], axis=2)
    err3d = np.linalg.norm(diff, axis=2)
    estimates[failed] = np.nan
    err2d[failed] = np.nan
    err3d[failed] = np.nan

    condition_labels = [
        "|".join(SEVERITY_TO_CONDITION[int(s)] for s in row) for row in severity
    ]
    ok = ~failed
    stats = RunStatistics(
        grid=grid,
        conditions=condition_labels,
        estimates=estimates,
        err2d=err2d,
        err3d=err3d,
        failed=failed,
        aggregate_2d=aggregate(err2d[ok]),
        aggregate_3d=aggregate(err3d[ok]),
    )
    return stats
