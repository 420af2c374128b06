"""Monte Carlo deployment studies: tag grid, link classification, error
sampling, batched solving, and error statistics.

A study is one loop over fixed chunks of (run, point) cells. Each pass
draws the chunk's uniforms, maps them through the error model of each
link's condition, collapses channels with ``ranging.diversity_select``
and solves the chunk, so draws and solver temporaries stay bounded and
only per-point results grow with the number of runs. A chunk holds 8,192
cells; with four anchors the solver's transient peak is about 400 bytes
a cell (3.3 MB a chunk), the largest of the pass.

Every (run, point, anchor, channel) cell owns one uniform draw, derived
by avalanche-mixing the cell indices into the master seed. Draws are
therefore independent of execution order and chunk size, and the link
condition only chooses how a cell's uniform is transformed — so
removing all walls from a scenario reproduces the LOS outputs for the
same seed, draw for draw.

Results aggregate the errors of all runs concatenated (not averaged
per point). The standard deviation is the population form. A failed
solve is written as NaN into ``estimates``, ``err2d`` and ``err3d`` in
the chunk that solved it; that NaN is its only mark, so it is excluded
from the aggregates and counted as ``RunStatistics.n_failed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ErrorDistribution
from .errors import DataError, ParameterError, SingularGeometryError, check_array_size
from .geometry import SEVERITY_TO_CONDITION, Anchor, Wall, classify_links_bulk
from .randomness import cell_uniform_array
from .ranging import check_strategy, diversity_select
from .solver import SolverConfig, anchor_positions, check_anchors, solve_batch, start_points

_CHUNK = 8192  # (run, point) cells per pass; solver temporaries ~400 B a cell at 4 anchors
_MAX_GRID_POINTS = 10**7  # tag lattice cap; the presets have 2,997 points
LEVELS = np.arange(1001) / 1000  # levels of every aggregate's quantile function, p = k/1000
LEVELS.flags.writeable = False  # shared by every study


@dataclass(frozen=True)
class DiversityConfig:
    channels: int  # independent measurements per ranging
    strategy: str  # min | mean | median

    def __post_init__(self):
        if self.channels < 1:
            raise ParameterError(f"channels must be >= 1, got {self.channels}")
        check_strategy(self.strategy)


def _check_grid_step(grid_step: float) -> None:
    """ParameterError unless the tag lattice step is > 0 (NaN is not)."""
    if not grid_step > 0.0:
        raise ParameterError("grid_step must be > 0")


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
        _check_grid_step(self.grid_step)
        if not math.isfinite(self.tag_height):
            raise ParameterError(f"tag_height must be finite, got {self.tag_height}")
        if self.runs < 1:
            raise ParameterError("runs must be >= 1")
        check_anchors(len(self.anchors), self.solver.weights, "solver.weights")
        ids = [a.id for a in self.anchors]
        if len(set(ids)) != len(ids):
            repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
            raise ParameterError(f"anchors: id {repeated!r} is repeated; anchor ids must be unique")
        required = {SEVERITY_TO_CONDITION[0]} | {w.material for w in self.walls}
        missing = required - set(self.model_table)
        if missing:
            raise ParameterError(f"models: missing conditions {sorted(missing)}")


@dataclass(frozen=True)
class AggregateStats:
    """Statistics of a set of errors and its quantile function at the 1,001
    ``LEVELS``, of which levels 250, 500 and 750 are q1, median and q3."""

    count: int
    mean: float
    std: float  # population standard deviation
    median: float
    q1: float
    q3: float
    iqr: float
    ecdf_values: np.ndarray  # quantile function at LEVELS (non-decreasing), meters

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
    labels: list[str]  # link signatures: "|"-joined per-anchor condition tokens
    signature_of: np.ndarray  # (P,) int, each point's index into labels
    estimates: np.ndarray  # (R, P, 3) solved positions; NaN marks a failed solve
    err2d: np.ndarray  # (R, P) meters; NaN exactly where the solve failed
    err3d: np.ndarray  # (R, P) meters; NaN exactly where the solve failed
    aggregate_2d: AggregateStats  # of the finite err2d; its ecdf_values fill ecdf.csv
    aggregate_3d: AggregateStats  # of the finite err3d

    @property
    def failed(self) -> np.ndarray:
        """(R, P) bool, the solves that failed."""
        return np.isnan(self.err2d)

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())


def build_grid(area: tuple[float, float], grid_step: float, tag_height: float) -> np.ndarray:
    """Lattice of tag positions covering the area, including exact edges.

    Points are ordered x-major: index = ix * ny + iy.
    """
    width, depth = float(area[0]), float(area[1])
    _check_grid_step(grid_step)
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
    """Summary statistics plus the quantile function at the 1,001 ``LEVELS``
    p = k/1000, of which levels 250, 500 and 750 are q1, median and q3.

    The levels are ``np.quantile``'s default linear interpolation, computed
    from the sorted errors with numpy's own arithmetic: at the virtual index
    (n - 1) * p, the fraction g past the lower neighbour a (past index -1 at
    the top level, as in numpy) gives a + (b - a) * g, or b - (b - a) * (1 - g)
    where g >= 0.5. A +inf error gives NaN at the levels it touches, and a
    NaN error NaN at every level, as ``np.quantile`` does. Equal values are
    taken in sorted order, so where zeros of both signs occur a zero level
    may differ in sign from ``np.quantile``'s, which partitions its input.
    """
    errors = np.asarray(errors, dtype=float).ravel()
    n = errors.size
    if n == 0:
        raise DataError("cannot aggregate an empty error list")
    ordered = np.sort(errors)
    virtual = (n - 1) * LEVELS
    lower = np.floor(virtual)
    top = virtual >= n - 1
    lower[top] = -1.0  # both neighbours are the last value
    gamma = virtual - lower
    lower = lower.astype(np.intp)
    upper = lower + 1
    upper[top] = -1
    a, b = ordered.take(lower), ordered.take(upper)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN result is refused where it is written
        diff = b - a
        values = a + diff * gamma
        np.subtract(b, diff * (1.0 - gamma), out=values, where=gamma >= 0.5)
        mean, std = float(errors.mean()), float(errors.std())
    if np.isnan(ordered[-1]):  # np.sort puts NaN last
        values[:] = np.nan
    q1, median, q3 = values[[250, 500, 750]].tolist()
    return AggregateStats(count=n, mean=mean, std=std, median=median, q1=q1, q3=q3, iqr=q3 - q1,
                          ecdf_values=values)


def _measured_ranges(seed, diversity, models, severity, true_dist, run, point) -> np.ndarray:
    """One chunk's (cells, anchors) ranges: each cell's draws through its
    links' condition models, plus the true distances, collapsed over the
    channels. The draws are freed on return, before the solver runs."""
    draws = cell_uniform_array(seed, run[:, None, None], point[:, None, None],
                               np.arange(severity.shape[1])[:, None], np.arange(diversity.channels))
    # each (cell, anchor) link's channel draws as one opaque item: a 1-D
    # take and put move a condition's links 3-5x faster than row indexing
    link_dtype = np.dtype((np.void, draws.itemsize * diversity.channels))
    links = draws.view(link_dtype).ravel()
    link_severity = severity.take(point, axis=0).ravel()
    for level, model in models.items():  # in place: uniforms, then errors, then ranges
        rows = np.flatnonzero(link_severity == level)
        np.put(links, rows, model.quantile(links.take(rows).view(float)).view(link_dtype))
    draws += true_dist.take(point, axis=0)[:, :, None]
    return diversity_select(draws, diversity.strategy, axis=-1)


def run_scenario(scenario: Scenario) -> RunStatistics:
    """Execute the full study: classify; draw, select and solve chunk by
    chunk; aggregate.

    Raises SingularGeometryError if every solve fails, as it does when a
    tag or anchor is so far off that its distances overflow.
    """
    grid = build_grid(scenario.area, scenario.grid_step, scenario.tag_height)
    diversity = scenario.diversity or DiversityConfig(channels=1, strategy="min")
    n_runs, n_points = scenario.runs, len(grid)
    n_cells = n_runs * n_points
    check_array_size(max(n_cells * 3, diversity.channels))  # (R, P, 3) estimates, channel index array
    anchors = list(scenario.anchors)
    positions = anchor_positions(anchors)
    severity = np.column_stack(  # (P, A) indices into SEVERITY_TO_CONDITION
        [classify_links_bulk(grid[:, :2], a.position.xy, scenario.walls) for a in anchors]
    )
    x_r, x0 = start_points(scenario.solver, positions)
    # a true distance or a draw that overflows to inf fails its solve, as a far-off tag's does; an error is inf
    with np.errstate(over="ignore"):
        true_dist = np.linalg.norm(positions[None, :, :] - grid[:, None, :], axis=2)
        models = {
            level: scenario.model_table[SEVERITY_TO_CONDITION[int(level)]]
            for level in np.unique(severity)
        }
        estimates = np.empty((n_runs, n_points, 3))
        err2d, err3d = np.empty((n_runs, n_points)), np.empty((n_runs, n_points))
        flat_estimates, flat_err2d, flat_err3d = estimates.reshape(-1, 3), err2d.ravel(), err3d.ravel()
        for lo in range(0, n_cells, _CHUNK):
            hi = min(lo + _CHUNK, n_cells)
            run, point = np.divmod(np.arange(lo, hi), n_points)
            # handed over unnamed, so solve_batch frees the (B, N) ranges once it holds its (N, B) copy
            result = solve_batch(scenario.solver, positions, _measured_ranges(
                scenario.seed, diversity, models, severity, true_dist, run, point), x_r, x0)
            result.positions[result.failed] = np.nan  # the one mark of a failed solve; errors follow
            flat_estimates[lo:hi] = result.positions
            dx, dy, dz = (result.positions - grid.take(point, axis=0)).T
            # np.linalg.norm's row sum, left to right: the same bits, without its temporaries
            square_2d = dx * dx + dy * dy
            np.sqrt(square_2d, out=flat_err2d[lo:hi])
            np.sqrt(square_2d + dz * dz, out=flat_err3d[lo:hi])
    ok = ~np.isnan(err2d)
    if not ok.any():
        raise SingularGeometryError(f"all {n_cells} solves failed")

    codes = severity.view(np.dtype((np.void, severity.shape[1])))[:, 0]  # one byte string per row
    _, first, signature_of = np.unique(codes, return_index=True, return_inverse=True)
    labels = ["|".join(SEVERITY_TO_CONDITION[s] for s in row) for row in severity[first].tolist()]
    return RunStatistics(
        grid=grid,
        labels=labels,
        signature_of=signature_of,
        estimates=estimates,
        err2d=err2d,
        err3d=err3d,
        aggregate_2d=aggregate(err2d[ok]),
        aggregate_3d=aggregate(err3d[ok]),
    )
