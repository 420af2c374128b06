"""Per-layer metrics: where the traced run wraps the program, and how
spans and counts become the per-layer figures.

Time metrics are means per operation of the traced loop, in seconds
unless the name says otherwise. Count metrics are totals per cycle (one
pass over the workload's distinct inputs) and must repeat exactly from
cycle to cycle. A metric of a layer the workload never reaches is 0.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

import numpy as np

from uwb_locsim import cli, distributions, fitting, outputs, scenarios, simulator, solver

from tracing import Span, Tracer, self_time, union_length

FAMILIES = ("gaussian", "lognormal", "burr12")
CELL_ARRAYS = 3  # float64 cell arrays the simulator holds: uniforms, errors, measured ranges

# name -> unit, in report order
METRICS = {
    "cli.main_s": "s",
    "scenarios.build_s": "s",
    "simulator.run_scenario_s": "s",
    "simulator.self_s": "s",
    "simulator.build_grid_s": "s",
    "simulator.aggregate_s": "s",
    "simulator.cells": "count",
    "simulator.cell_mb_computed": "MB",
    "geometry.classify_s": "s",
    "geometry.links": "count",
    "randomness.uniform_s": "s",
    "randomness.uniforms": "count",
    "distributions.quantile_s": "s",
    "distributions.draws": "count",
    "solver.busy_s": "s",
    "solver.wall_s": "s",
    "solver.parallelism": "ratio",
    "solver.thread_speedup": "ratio",
    "solver.batches": "count",
    "solver.solves": "count",
    "solver.iterations": "count",
    "solver.nonconverged": "count",
    "solver.failed": "count",
    "solver.converged_frac": "ratio",
    "solver.solve_self_us": "us",
    "outputs.points_csv_s": "s",
    "outputs.points_csv_bytes": "bytes",
    "outputs.ecdf_csv_s": "s",
    "outputs.ecdf_rows": "count",
    "outputs.report_s": "s",
    **{f"fitting.fit_mle_s.{f}": "s" for f in FAMILIES},
    **{f"fitting.evals.{f}": "count" for f in FAMILIES},
    "fitting.minimize_calls": "count",
    "fitting.empirical_pdf_s": "s",
    "fitting.sse_s": "s",
    "trace.overhead_frac": "ratio",
    "code.src_lines": "count",
}

# Counts that must repeat exactly from cycle to cycle of one seed.
EXACT_COUNTS = (
    "solver.iterations",
    "solver.nonconverged",
    *(f"fitting.evals.{f}" for f in FAMILIES),
    "fitting.minimize_calls",
    "simulator.cells",
    "outputs.points_csv_bytes",
    "outputs.ecdf_rows",
)

# per-operation time metric -> span names summed into it
SPAN_TIMES = {
    "simulator.run_scenario_s": ("cli.run_scenario",),
    "simulator.build_grid_s": ("simulator.build_grid",),
    "simulator.aggregate_s": ("simulator.aggregate",),
    "geometry.classify_s": ("geometry.classify",),
    "randomness.uniform_s": ("randomness.uniform",),
    "distributions.quantile_s": ("distributions.quantile",),
    "solver.busy_s": ("simulator.solve_batch", "solver.solve_batch"),
    "outputs.points_csv_s": ("outputs.points_csv",),
    "outputs.ecdf_csv_s": ("outputs.ecdf_csv",),
    "outputs.report_s": ("outputs.report",),
    **{f"fitting.fit_mle_s.{f}": (f"fitting.fit_mle.{f}",) for f in FAMILIES},
    "fitting.empirical_pdf_s": ("fitting.empirical_pdf",),
    "fitting.sse_s": ("fitting.sse_against",),
}
SOLVER_SPANS = SPAN_TIMES["solver.busy_s"]


# ------------------------------------------------------------- counting

def _count_links(tracer, args, kwargs, result):
    tracer.add("geometry.links", len(args[0]))


def _count_uniforms(tracer, args, kwargs, result):
    tracer.add("randomness.uniforms", result.size)
    tracer.add("simulator.cells", result.size)


def _count_draws(tracer, args, kwargs, result):
    tracer.add("distributions.draws", np.size(args[1]))


def _count_batch(tracer, args, kwargs, result):
    tracer.add("solver.batches", 1)
    tracer.add("solver.solves", result.positions.shape[0])
    tracer.add("solver.iterations", int(result.iterations.sum()))
    tracer.add("solver.converged", int(result.converged.sum()))
    tracer.add("solver.failed", int(result.failed.sum()))
    tracer.add("solver.nonconverged", int((~result.converged & ~result.failed).sum()))


def _count_points_bytes(tracer, args, kwargs, result):
    tracer.add("outputs.points_csv_bytes", os.path.getsize(args[1]))


def _count_ecdf_rows(tracer, args, kwargs, result):
    tracer.add("outputs.ecdf_rows", len(args[0].aggregate_2d.ecdf_values))


def _count_evals(tracer, args, kwargs, result):
    tracer.add(f"fitting.evals.{result.family}", result.iterations)


def _count_minimize(tracer, args, kwargs, result):
    tracer.add("fitting.minimize_calls", 1)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; ``tracer.restore()`` undoes it."""
    tracer.wrap(cli, "preset_scenario", "scenarios.build")
    tracer.wrap(cli, "load_scenario", "scenarios.build")
    tracer.wrap(cli, "run_scenario", "cli.run_scenario")
    tracer.wrap(cli, "write_outputs", "cli.write_outputs")
    tracer.wrap(simulator, "build_grid", "simulator.build_grid")
    tracer.wrap(simulator, "classify_links_bulk", "geometry.classify", _count_links)
    tracer.wrap(simulator, "cell_uniform_array", "randomness.uniform", _count_uniforms)
    tracer.wrap(simulator, "solve_batch", "simulator.solve_batch", _count_batch)
    tracer.wrap(simulator, "aggregate", "simulator.aggregate")
    for cls in (distributions.Gaussian, distributions.BurrXII, distributions.LogNormal):
        tracer.wrap(cls, "quantile", "distributions.quantile", _count_draws)
    tracer.wrap(outputs, "write_points_csv", "outputs.points_csv", _count_points_bytes)
    tracer.wrap(outputs, "write_ecdf_csv", "outputs.ecdf_csv", _count_ecdf_rows)
    tracer.wrap(outputs, "write_report_json", "outputs.report")
    tracer.wrap(solver, "solve_batch", "solver.solve_batch", _count_batch)
    tracer.wrap(fitting, "fit_mle", lambda args, kwargs: f"fitting.fit_mle.{args[0]}", _count_evals)
    tracer.wrap(fitting, "minimize", "fitting.minimize", _count_minimize)
    tracer.wrap(fitting, "empirical_pdf", "fitting.empirical_pdf")
    tracer.wrap(fitting, "sse_against", "fitting.sse_against")


# ------------------------------------------------------------- analysis

def by_op(spans: list[Span]) -> dict[int, list[Span]]:
    groups: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        groups[span.op].append(span)
    return groups


def solver_wall(spans: list[Span]) -> float:
    return union_length((s.start, s.end) for s in spans if s.name in SOLVER_SPANS)


def src_lines(root: Path) -> int:
    total = 0
    for path in sorted((root / "src" / "uwb_locsim").rglob("*.py")):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def per_layer(
    tracer: Tracer,
    cycle_counts: dict[str, float],
    ops_per_cycle: int,
    study: bool,
    build_times: list[float],
    overhead_frac: float,
    thread_speedup: float,
    root: Path,
) -> dict[str, float]:
    """Every metric in METRICS from one traced loop."""
    ops = by_op(tracer.spans)
    roots = {op: next(s for s in spans if s.name == "op") for op, spans in ops.items()}
    n_ops = len(roots)
    values = {name: 0.0 for name in METRICS}

    def mean(per_op) -> float:
        return float(sum(per_op) / n_ops)

    for metric, names in SPAN_TIMES.items():
        values[metric] = mean(
            sum(s.duration for s in spans if s.name in names) for spans in ops.values()
        )
    values["solver.wall_s"] = mean(solver_wall(spans) for spans in ops.values())
    if values["solver.wall_s"] > 0:
        values["solver.parallelism"] = values["solver.busy_s"] / values["solver.wall_s"]
    values["simulator.self_s"] = mean(
        sum(self_time(s, spans) for s in spans if s.name == "cli.run_scenario")
        for spans in ops.values()
    )
    if study:
        values["cli.main_s"] = mean(r.duration for r in roots.values())
    elif any(s.name == "solver.solve_batch" for s in tracer.spans):
        values["solver.solve_self_us"] = 1e6 * mean(
            self_time(roots[op], spans) for op, spans in ops.items()
        )

    builds = list(build_times) + [s.duration for s in tracer.spans if s.name == "scenarios.build"]
    values["scenarios.build_s"] = float(np.median(builds))

    for name in METRICS:
        if name in cycle_counts:
            values[name] = float(cycle_counts[name])
    if cycle_counts.get("solver.solves"):
        values["solver.converged_frac"] = cycle_counts["solver.converged"] / cycle_counts["solver.solves"]
    cells_per_op = cycle_counts.get("simulator.cells", 0.0) / ops_per_cycle
    values["simulator.cell_mb_computed"] = CELL_ARRAYS * 8 * cells_per_op / 1e6
    values["solver.thread_speedup"] = thread_speedup
    values["trace.overhead_frac"] = overhead_frac
    values["code.src_lines"] = float(src_lines(root))
    return values
