"""Golden-format checks: the CSV formatter writes what "%.6f" writes for
any float, the block-wise CSV writers give the bytes of row-by-row
reference writers of that 1 µm format, for any block size, and ecdf.csv
is the 1,001-level quantile function of the 2D errors."""

import json
import math
import os
import stat
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from uwb_locsim import outputs
from uwb_locsim.cli import main
from uwb_locsim.scenarios import preset_scenario, scenario_to_dict
from uwb_locsim.simulator import AggregateStats, RunStatistics, run_scenario


# ------------------------------------------------ reference (row by row)

def _fmt(value) -> str:
    text = "%.6f" % float(value)
    return "0.000000" if text == "-0.000000" else text


def _reference_points_csv(stats) -> str:
    n_runs, n_points = stats.err2d.shape
    rows = ["run,px,py,pz,ex,ey,ez,err2d_m,err3d_m,conditions\n"]
    for run in range(n_runs):
        for p in range(n_points):
            px, py, pz = stats.grid[p]
            ex, ey, ez = stats.estimates[run, p]
            rows.append(
                f"{run},{_fmt(px)},{_fmt(py)},{_fmt(pz)},{_fmt(ex)},{_fmt(ey)},{_fmt(ez)},"
                f"{_fmt(stats.err2d[run, p])},{_fmt(stats.err3d[run, p])},"
                f"{stats.labels[stats.signature_of[p]]}\n"
            )
    return "".join(rows)


def _reference_ecdf_csv(stats) -> str:
    agg = stats.aggregate_2d
    rows = ["err2d_m,cum_prob\n"]
    rows += [f"{_fmt(v)},{_fmt(p)}\n" for v, p in zip(agg.ecdf_values, agg.ecdf_probs)]
    return "".join(rows)


# --------------------------------------------------------------- inputs

# Exact binary ties (odd multiples of 2**-7 round half to even) and their
# neighbours, the 2**33 m edge above which micrometres are not exact in a
# double, and a value above 2**34 whose micrometres a double rounds wrongly
_TIES = [0.0078125, -0.0234375]
_BEYOND = 2.0**34 + 3 * 2.0**-18
_SPECIAL = [
    math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, -1e-5, 1e16, 1e16 + 2.0,
    5e-7, -5e-7, -math.nextafter(5e-7, 1.0), 1.0000005, -1.0000005, 1e308, math.inf, -math.inf,
    *[v for tie in _TIES for v in (tie, math.nextafter(tie, -1.0), math.nextafter(tie, 1.0))],
    2.0**33, math.nextafter(2.0**33, 0.0), math.nextafter(2.0**33, math.inf), _BEYOND,
]
_FLOATS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.floats(min_value=-30.0, max_value=30.0),
)
_LABELS = ["los|los|los", "drywall|los|concrete", "concrete|concrete|los"]


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
        labels=_LABELS,
        signature_of=draw(arrays(np.intp, n_points, elements=st.integers(0, len(_LABELS) - 1))),
        estimates=estimates,
        err2d=err2d,
        err3d=err3d,
        aggregate_2d=_ecdf(ecdf_values),
        aggregate_3d=_ecdf(ecdf_values),
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


def _fields(text: np.ndarray) -> list[list[str]]:
    """The rows of a ``_fixed6`` matrix as lists of field strings."""
    return [row[row != 0].tobytes().decode("ascii").split(",")[:-1] for row in text]


@settings(max_examples=300, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                     elements=st.one_of(st.sampled_from(_SPECIAL), st.floats(width=64))))
def test_formatter_writes_the_text_of_percent_format(values):
    assert _fields(outputs._fixed6(values)) == [[_fmt(v) for v in row] for row in values.tolist()]


_ONE_WORD = [0.0, -0.0, 5e-7, -5e-7, 1.5, -2.25, 999.999999, -999.999999, 123.456789, 0.0078125]


@pytest.mark.parametrize("extra, words", [
    ([], 3),  # every integer part below 1,000: one word, then ".ddd" and "ddd,"
    # "%.6f" writes a product rounded onto a half (999.999999) and micrometres
    # that round up to 10**9: "-1000.000000," is 13 bytes, four words
    ([999.9999995, -999.9999995, 999.9999996, -999.9999996], 4),
    ([math.nan, math.inf, -math.inf, 2.0**33], 5),  # "8589934592.000000" widens the fields
])
def test_formatter_integer_paths_write_the_text_of_percent_format(extra, words):
    values = np.array(_ONE_WORD + extra).reshape(-1, 2)
    text = outputs._fixed6(values)
    assert text.shape == (len(values), 2 * 4 * words)
    assert _fields(text) == [[_fmt(v) for v in row] for row in values.tolist()]  # _fmt drops "-0"


@pytest.mark.parametrize("wild", [math.inf, -math.inf, math.nan, 2.0**33, -1e300])
def test_a_wild_value_leaves_the_other_blocks_bytes_unchanged(wild):
    scenario = replace(preset_scenario("paper-concrete"), grid_step=1.0, runs=2)
    stats = run_scenario(scenario)
    points, _ = _written(stats, 7)
    stats.estimates[1, 9, 0] = wild  # run 1, block 1 of points 7..13
    wild_points, _ = _written(stats, 7)
    lines, wild_lines = points.splitlines(), wild_points.splitlines()
    row = 1 + stats.err2d.shape[1] + 9  # the header, run 0, then point 9 of run 1
    changed = [i for i, (a, b) in enumerate(zip(lines, wild_lines)) if a != b]
    assert len(lines) == len(wild_lines) and changed == [row]
    assert wild_lines[row].split(",")[4] == _fmt(wild)


# at c = 0 diverged solves put estimates of 1,000 m or more, "%.6f" text, in most blocks
@pytest.mark.parametrize("block, c", [pytest.param(block, c, id=f"{block}{tag}")
                                      for c, tag in ((0.1, ""), (0.0, "-c0"))
                                      for block in (7, 128, outputs._BLOCK)])
def test_study_files_match_row_by_row_reference(block, c):
    scenario = replace(preset_scenario("paper-concrete"), grid_step=1.0, runs=3)
    stats = run_scenario(replace(scenario, solver=replace(scenario.solver, c=c)))
    assert (np.abs(stats.estimates) >= 1000.0).any() == (c == 0.0)
    points, ecdf = _written(stats, block)
    assert points == _reference_points_csv(stats)
    assert ecdf == _reference_ecdf_csv(stats)
    assert points.count("\n") == 1 + stats.err2d.size


def test_special_values_have_fixed_text():
    # One failed row (all NaN), one row of values at the rounding edges and one
    # of infinities and exact ties: whatever rounds to zero is written
    # 0.000000, never -0.000000, and a tie goes to the even micrometre.
    stats = RunStatistics(
        grid=np.array([[0.0, -0.0, 1.2], [-5e-324, 5e-7, -5e-7], [0.0078125, -0.0234375, 2.0**33]]),
        labels=["los|los|drywall", "los|los|los", "los|drywall|los"],
        signature_of=np.array([1, 2, 0]),
        estimates=np.array([[[math.nan] * 3, [-1e-9, -math.nextafter(5e-7, 1.0), 1e16 + 2.0],
                             [math.inf, -math.inf, math.nextafter(0.0078125, 1.0)]]]),
        err2d=np.array([[math.nan, 2.5e-6, math.inf]]),
        err3d=np.array([[math.nan, 1.0000005, _BEYOND]]),
        aggregate_2d=_ecdf(np.array([-0.0, 0.0078125, 0.25, math.inf])),
        aggregate_3d=_ecdf(np.array([1.0000005])),
    )
    points, ecdf = _written(stats, outputs._BLOCK)
    assert points.splitlines()[1:] == [
        "0,0.000000,0.000000,1.200000,nan,nan,nan,nan,nan,los|los|los",
        "0,0.000000,0.000000,0.000000,0.000000,-0.000001,10000000000000002.000000,"
        "0.000003,1.000001,los|drywall|los",  # the doubles lie just above the half
        "0,0.007812,-0.023438,8589934592.000000,inf,-inf,0.007813,inf,17179869184.000011,"
        "los|los|drywall",
    ]
    assert ecdf == ("err2d_m,cum_prob\n0.000000,0.250000\n0.007812,0.500000\n"
                    "0.250000,0.750000\ninf,1.000000\n")


@pytest.mark.parametrize("runs", [1, 3])
def test_ecdf_csv_is_the_quantile_function_at_1001_levels(tmp_path, runs):
    config = scenario_to_dict(replace(preset_scenario("paper-drywall"), grid_step=1.0, runs=runs))
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / outputs.ECDF_CSV).read_text().splitlines()
    report = json.loads((tmp_path / "out" / outputs.REPORT_JSON).read_text())["error_2d_m"]
    points = np.genfromtxt(tmp_path / "out" / outputs.POINTS_CSV, delimiter=",", names=True,
                           usecols=("err2d_m",))["err2d_m"]

    assert len(lines) == 1002
    assert lines[0] == "err2d_m,cum_prob"
    values, probs = zip(*(line.split(",") for line in lines[1:]))
    assert list(probs) == ["%.6f" % (k / 1000) for k in range(1001)]
    errors = [float(v) for v in values]
    assert errors == sorted(errors)
    assert (errors[0], errors[-1]) == (np.nanmin(points), np.nanmax(points))
    assert [values[250], values[500], values[750]] == [
        "%.6f" % report[key] for key in ("q1", "median", "q3")
    ]


def test_new_file_removes_only_a_writable_regular_file(tmp_path):
    # A regular file goes, so open() creates a new one (a hard link keeps the
    # old bytes); a symlink, FIFO, directory or missing path is left for open()
    regular, link, fifo = tmp_path / "regular", tmp_path / "link", tmp_path / "fifo"
    regular.write_text("old")
    os.link(regular, tmp_path / "kept")
    link.symlink_to(tmp_path / "kept")
    os.mkfifo(fifo)
    for path in (regular, link, fifo, tmp_path, tmp_path / "missing", tmp_path / "kept" / "x"):
        assert outputs.new_file(str(path)) == str(path)
    assert not os.path.lexists(regular)
    assert (tmp_path / "kept").read_text() == "old"
    assert link.is_symlink() and stat.S_ISFIFO(os.lstat(fifo).st_mode) and tmp_path.is_dir()
