"""Golden-format checks: the block-wise CSV writers give the bytes of the
row-by-row writers they replaced, for any block size."""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from uwb_locsim import outputs
from uwb_locsim.scenarios import preset_scenario
from uwb_locsim.simulator import AggregateStats, RunStatistics, run_scenario


# ------------------------------------------------ reference (row by row)

def _fmt(value) -> str:
    return str(float(value))


def _reference_points_csv(stats) -> str:
    n_runs, n_points = stats.err2d.shape
    rows = ["run,px,py,pz,ex,ey,ez,err2d_m,err3d_m,conditions\n"]
    for run in range(n_runs):
        for p in range(n_points):
            px, py, pz = stats.grid[p]
            ex, ey, ez = stats.estimates[run, p]
            rows.append(
                f"{run},{_fmt(px)},{_fmt(py)},{_fmt(pz)},{_fmt(ex)},{_fmt(ey)},{_fmt(ez)},"
                f"{_fmt(stats.err2d[run, p])},{_fmt(stats.err3d[run, p])},{stats.conditions[p]}\n"
            )
    return "".join(rows)


def _reference_ecdf_csv(stats) -> str:
    agg = stats.aggregate_2d
    rows = ["err2d_m,cum_prob\n"]
    rows += [f"{_fmt(v)},{_fmt(p)}\n" for v, p in zip(agg.ecdf_values, agg.ecdf_probs)]
    return "".join(rows)


# --------------------------------------------------------------- inputs

_SPECIAL = [math.nan, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, -1e-5, 1e16, 1e16 + 2.0]
_FLOATS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=False, width=64),
    st.floats(min_value=-30.0, max_value=30.0),
)
_CONDITIONS = st.sampled_from(["los|los|los", "drywall|los|concrete", "concrete|concrete|los"])


def _ecdf(values) -> AggregateStats:
    return AggregateStats(
        count=len(values), mean=0.0, std=0.0, median=0.0, q1=0.0, q3=0.0, iqr=0.0,
        ecdf_values=values, ecdf_probs=np.arange(1, len(values) + 1) / len(values),
    )


@st.composite
def _statistics(draw):
    n_runs = draw(st.integers(1, 3))
    n_points = draw(st.integers(1, 10))
    estimates = draw(arrays(np.float64, (n_runs, n_points, 3), elements=_FLOATS))
    failed = draw(arrays(np.bool_, (n_runs, n_points)))
    estimates[failed] = np.nan
    err2d = draw(arrays(np.float64, (n_runs, n_points), elements=_FLOATS))
    err3d = draw(arrays(np.float64, (n_runs, n_points), elements=_FLOATS))
    err2d[failed] = np.nan
    err3d[failed] = np.nan
    ecdf_values = draw(arrays(np.float64, st.integers(1, 30), elements=_FLOATS))
    return RunStatistics(
        grid=draw(arrays(np.float64, (n_points, 3), elements=_FLOATS)),
        conditions=draw(st.lists(_CONDITIONS, min_size=n_points, max_size=n_points)),
        estimates=estimates,
        err2d=err2d,
        err3d=err3d,
        failed=failed,
        aggregate_2d=_ecdf(ecdf_values),
    )


def _written(stats, block: int) -> tuple[str, str]:
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(outputs, "_BLOCK", block)
        points, ecdf = os.path.join(tmp, "points.csv"), os.path.join(tmp, "ecdf.csv")
        outputs.write_points_csv(stats, points)
        outputs.write_ecdf_csv(stats, ecdf)
        with open(points, "rb") as p, open(ecdf, "rb") as e:
            return p.read().decode("utf-8"), e.read().decode("utf-8")


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("block", [1, 7, 1000])
@settings(max_examples=60, deadline=None)
@given(stats=_statistics())
def test_block_writers_match_row_by_row_reference(block, stats):
    points, ecdf = _written(stats, block)
    assert points == _reference_points_csv(stats)
    assert ecdf == _reference_ecdf_csv(stats)


@pytest.mark.parametrize("block", [7, outputs._BLOCK])
def test_study_files_match_row_by_row_reference(block):
    scenario = replace(preset_scenario("paper-concrete"), grid_step=1.0, runs=3)
    stats = run_scenario(scenario)
    points, ecdf = _written(stats, block)
    assert points == _reference_points_csv(stats)
    assert ecdf == _reference_ecdf_csv(stats)
    assert points.count("\n") == 1 + stats.err2d.size
