"""Result files for deployment studies.

Three artifacts per study: a per-point CSV (one row per run and grid
point), an ECDF CSV of the 2D errors for plotting, and an aggregate
JSON report. CSV floats are written at 1 µm (``"%.6f"``, NaN as
``nan``) and never as ``-0.000000``; the ECDF CSV is the 2D-error
quantile function at the 1,001 levels p = k/1000, whatever the number
of runs. The report keeps full precision, and no timestamps are
recorded, so identical runs produce byte-identical files.

The CSV writers work in fixed blocks of ``_BLOCK`` rows: one
``tolist()`` per float column slice, ``map("%.6f".__mod__, ...)``, rows
joined with ``zip`` and one ``write`` per block. The ``px,py,pz`` text
is formatted once per grid point. Apart from that text the writers'
memory is bounded by the block, not by the number of runs.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from itertools import chain, islice, repeat

import numpy as np

from .scenarios import scenario_to_dict
from .simulator import RunStatistics, Scenario

POINTS_CSV = "points.csv"
ECDF_CSV = "ecdf.csv"
REPORT_JSON = "report.json"

_POINTS_HEADER = "run,px,py,pz,ex,ey,ez,err2d_m,err3d_m,conditions"
_BLOCK = 128  # CSV rows formatted and written per call; larger blocks raised peak RSS


def _micrometres(values: np.ndarray):
    """``"%.6f"`` text of a float block; a value that rounds to zero loses its sign."""
    # 5e-7 is the largest magnitude "%.6f" writes as zero: its double lies just below 5e-7
    return map("%.6f".__mod__, np.where(np.abs(values) <= 5e-7, 0.0, values).tolist())


def _row_blocks(n_rows: int, columns):
    """Comma-joined text rows, in lists of at most ``_BLOCK``.

    A column is a flat float array, formatted a block at a time, or an
    iterator of ready-made text consumed in row order.
    """
    for lo in range(0, n_rows, _BLOCK):
        hi = min(lo + _BLOCK, n_rows)
        cells = [
            _micrometres(col[lo:hi]) if isinstance(col, np.ndarray) else islice(col, hi - lo)
            for col in columns
        ]
        yield list(map(",".join, zip(*cells)))


def _write_rows(out, n_rows: int, columns) -> None:
    for rows in _row_blocks(n_rows, columns):
        rows.append("")  # ends the block's last row without copying the block
        out.write("\n".join(rows))


def write_points_csv(stats: RunStatistics, path: str) -> None:
    n_runs, n_points = stats.err2d.shape
    estimates = stats.estimates.reshape(-1, 3)
    positions = list(chain.from_iterable(_row_blocks(n_points, stats.grid.T)))
    columns = [
        chain.from_iterable(repeat(str(run), n_points) for run in range(n_runs)),
        chain.from_iterable(repeat(positions, n_runs)),
        estimates[:, 0],
        estimates[:, 1],
        estimates[:, 2],
        stats.err2d.reshape(-1),
        stats.err3d.reshape(-1),
        chain.from_iterable(repeat(stats.conditions, n_runs)),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(_POINTS_HEADER + "\n")
        _write_rows(out, n_runs * n_points, columns)


def write_ecdf_csv(stats: RunStatistics, path: str) -> None:
    agg = stats.aggregate_2d
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("err2d_m,cum_prob\n")
        _write_rows(out, len(agg.ecdf_values), [agg.ecdf_values, agg.ecdf_probs])


def build_report(stats: RunStatistics, scenario: Scenario) -> dict:
    n_runs, n_points = stats.err2d.shape
    return {
        "scenario": scenario_to_dict(scenario),
        "grid_points": n_points,
        "runs": n_runs,
        "solves": n_runs * n_points,
        "failed_solves": stats.n_failed,
        "error_2d_m": stats.aggregate_2d.to_dict(),
        "error_3d_m": stats.aggregate_3d.to_dict(),
    }


def write_report_json(stats: RunStatistics, scenario: Scenario, path: str) -> dict:
    report = build_report(stats, scenario)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    return report


def write_outputs(stats: RunStatistics, scenario: Scenario, outdir: str, timed=nullcontext) -> dict:
    """Write all three artifacts into ``outdir``; returns the report.

    ``timed(stage)`` is entered around each artifact's writer: the CLI's
    ``--timings`` passes a stopwatch, and the default does nothing.
    """
    os.makedirs(outdir, exist_ok=True)
    with timed("points.csv"):
        write_points_csv(stats, os.path.join(outdir, POINTS_CSV))
    with timed("ecdf.csv"):
        write_ecdf_csv(stats, os.path.join(outdir, ECDF_CSV))
    with timed("report"):
        return write_report_json(stats, scenario, os.path.join(outdir, REPORT_JSON))
