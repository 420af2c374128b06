"""Result files for deployment studies.

Three artifacts per study: a per-point CSV (one row per run and grid
point), an ECDF CSV of the 2D errors for plotting, and an aggregate
JSON report. CSV floats are written at 1 µm (``"%.6f"``, NaN as
``nan``) and never as ``-0.000000``; the ECDF CSV is the 2D-error
quantile function at the 1,001 levels p = k/1000, whatever the number
of runs. The report keeps full precision, and no timestamps are
recorded, so identical runs produce byte-identical files. Every JSON
result of the toolkit, the report included, is encoded by
``json_text``, which refuses NaN and infinities.

Each CSV row is one ``%`` template filled from Python floats. For each
run, ``points.csv`` is written in blocks of ``_BLOCK`` grid points: one
``tolist()`` of the block's estimates and errors and one ``write`` per
block, so a block never spans two runs. The ``px,py,pz`` text is
formatted once per grid point. Apart from that text the writer's memory
is bounded by the block, not by the number of runs.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext

import numpy as np

from .errors import DataError
from .scenarios import scenario_to_dict
from .simulator import RunStatistics, Scenario

POINTS_CSV = "points.csv"
ECDF_CSV = "ecdf.csv"
REPORT_JSON = "report.json"

_POINTS_HEADER = "run,px,py,pz,ex,ey,ez,err2d_m,err3d_m,conditions"
_POINT_ROW = "%d,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%s\n"
_BLOCK = 128  # grid points formatted and written per call; larger blocks raised peak RSS


def json_text(payload) -> str:
    """``payload`` as indented, key-sorted JSON text ending in a newline;
    DataError if it holds NaN or an infinity, which JSON cannot express."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DataError("a result is not finite and cannot be written as JSON") from exc


def _zeroed(values: np.ndarray) -> list:
    """``values.tolist()`` with every value that ``"%.6f"`` writes as zero made +0.0."""
    # 5e-7 is the largest magnitude "%.6f" writes as zero: its double lies just below 5e-7
    return np.where(np.abs(values) <= 5e-7, 0.0, values).tolist()


def write_points_csv(stats: RunStatistics, path: str) -> None:
    n_runs, n_points = stats.err2d.shape
    blocks = range(0, n_points, _BLOCK)
    positions = ["%.6f,%.6f,%.6f" % (x, y, z)
                 for lo in blocks for x, y, z in _zeroed(stats.grid[lo:lo + _BLOCK])]
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(_POINTS_HEADER + "\n")
        for run in range(n_runs):
            for lo in blocks:
                hi = lo + _BLOCK
                values = _zeroed(np.column_stack(
                    (stats.estimates[run, lo:hi], stats.err2d[run, lo:hi], stats.err3d[run, lo:hi])))
                out.write("".join([_POINT_ROW % (run, pos, *v, cond) for pos, v, cond
                                   in zip(positions[lo:hi], values, stats.conditions[lo:hi])]))


def write_ecdf_csv(stats: RunStatistics, path: str) -> None:
    agg = stats.aggregate_2d
    rows = _zeroed(np.column_stack((agg.ecdf_values, agg.ecdf_probs)))
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("err2d_m,cum_prob\n")
        out.write("".join(["%.6f,%.6f\n" % (v, p) for v, p in rows]))


def write_report_json(stats: RunStatistics, scenario: Scenario, path: str) -> str:
    """Write the report; returns its text, the bytes of the file."""
    n_runs, n_points = stats.err2d.shape
    text = json_text({
        "scenario": scenario_to_dict(scenario),
        "grid_points": n_points,
        "runs": n_runs,
        "solves": n_runs * n_points,
        "failed_solves": stats.n_failed,
        "error_2d_m": stats.aggregate_2d.to_dict(),
        "error_3d_m": stats.aggregate_3d.to_dict(),
    })
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(text)
    return text


def write_outputs(stats: RunStatistics, scenario: Scenario, outdir: str, timed=nullcontext) -> str:
    """Write all three artifacts into ``outdir``; returns the report's text.

    The report goes first, so a report that cannot be encoded leaves no
    artifact behind. ``timed(stage)`` is entered around each artifact's
    writer: the CLI's ``--timings`` passes a stopwatch, and the default
    does nothing.
    """
    os.makedirs(outdir, exist_ok=True)
    with timed("report"):
        text = write_report_json(stats, scenario, os.path.join(outdir, REPORT_JSON))
    with timed("points.csv"):
        write_points_csv(stats, os.path.join(outdir, POINTS_CSV))
    with timed("ecdf.csv"):
        write_ecdf_csv(stats, os.path.join(outdir, ECDF_CSV))
    return text
