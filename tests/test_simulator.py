import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwb_locsim import (
    Anchor,
    BurrXII,
    DataError,
    DiversityConfig,
    Gaussian,
    LogNormal,
    ParameterError,
    Point3,
    Scenario,
    SolverConfig,
    Wall,
    aggregate,
    build_grid,
    preset_scenario,
    run_scenario,
)
from uwb_locsim import simulator
from uwb_locsim.outputs import write_outputs
from uwb_locsim.ranging import DIVERSITY_STRATEGIES
from uwb_locsim.solver import BatchSolveResult
from uwb_locsim.scenarios import scenario_from_dict, scenario_to_dict


def test_grid_reference_deployment_size():
    grid = build_grid((9.0, 20.0), 0.25, 1.2)
    assert len(grid) == 37 * 81 == 2997
    assert grid[:, 2].min() == grid[:, 2].max() == 1.2
    assert grid[:, 0].max() == 9.0
    assert grid[:, 1].max() == 20.0


def test_grid_small_lattice():
    assert len(build_grid((1.0, 1.0), 0.5, 0.0)) == 9


def test_grid_step_larger_than_one_dimension():
    grid = build_grid((9.0, 20.0), 10.0, 1.0)
    assert len(grid) == 3
    np.testing.assert_allclose(grid[:, 0], 0.0)
    np.testing.assert_allclose(sorted(grid[:, 1]), [0.0, 10.0, 20.0])


def test_grid_step_exceeding_both_dimensions():
    with pytest.raises(DataError):
        build_grid((9.0, 20.0), 25.0, 1.0)


@pytest.mark.parametrize("area", [(-9.0, 20.0), (9.0, -1.0)])
def test_grid_rejects_a_negative_area(area):
    with pytest.raises(ParameterError, match="area"):
        build_grid(area, 1.0, 1.2)


@pytest.mark.parametrize("step", [0.0, -0.25, float("nan")])
def test_grid_rejects_a_step_that_is_not_positive(step):
    with pytest.raises(ParameterError, match="grid_step must be > 0"):
        build_grid((9.0, 20.0), step, 1.2)


@pytest.mark.parametrize("step", [1e-300, 5e-324, 1e-4])
def test_grid_size_is_bounded_before_allocation(step):
    # 5e-324 makes the step count overflow to inf; 1e-4 would be 1.8e10 points
    with pytest.raises(DataError, match="tag points"):
        build_grid((9.0, 20.0), step, 1.2)


def test_aggregate_basic_examples():
    agg = aggregate([1.0, 2.0, 3.0])
    assert agg.mean == 2.0
    assert agg.std == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
    assert agg.median == 2.0
    single = aggregate([5.0])
    assert single.mean == 5.0
    assert single.std == 0.0
    assert single.iqr == 0.0


def test_aggregate_gaussian_moments():
    draws = Gaussian(0.004, 0.071).sample(
        __import__("uwb_locsim").RandomStream(77), 100_000
    )
    agg = aggregate(draws)
    assert abs(agg.mean - 0.004) < 1e-3
    assert abs(agg.std - 0.071) < 1e-3


def _linear_quantile(ordered, p):
    """Quantile of sorted data by linear interpolation between order statistics."""
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def test_aggregate_ecdf_properties():
    # ecdf_values is the quantile function at p = k/1000, k = 0..1000,
    # interpolated as the report's quartiles are.
    assert np.array_equal(simulator.LEVELS, np.arange(1001) / 1000)
    for errors in ([0.3, 0.1, 0.3, 0.7, 0.1], [5.0], [2.0, 1.0], list(np.linspace(3, 0, 14))):
        agg = aggregate(errors)
        ordered = sorted(errors)
        assert len(agg.ecdf_values) == 1001
        assert np.all(np.diff(agg.ecdf_values) >= 0)
        assert (agg.ecdf_values[0], agg.ecdf_values[-1]) == (min(errors), max(errors))
        expected = [_linear_quantile(ordered, k / 1000) for k in range(1001)]
        np.testing.assert_allclose(agg.ecdf_values, expected, rtol=0, atol=1e-12)
        quartiles = [agg.ecdf_values[250], agg.ecdf_values[500], agg.ecdf_values[750]]
        assert quartiles == [agg.q1, agg.median, agg.q3]
        assert quartiles == np.percentile(errors, [25, 50, 75]).tolist()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1), zero=st.sampled_from([0.0, -0.0]),
       infs=st.integers(0, 3))
def test_aggregate_levels_are_numpys_linear_quantiles_bit_for_bit(n, seed, zero, infs):
    # Ties from a small pool, zeros and up to three +inf among continuous
    # values. np.quantile partitions its input, which may reorder equal
    # values, so the zeros of one sample share a sign: a sample with both
    # signs may give a zero level of the other sign.
    rng = np.random.default_rng(seed)
    pool = np.array([zero, 0.125, 0.3, 1.0, 7.5])
    x = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.gamma(2.0, 0.05, n))
    x[rng.integers(0, n, infs)] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf at the levels an inf touches
        agg = aggregate(x)
        expected = np.quantile(np.sort(x), simulator.LEVELS)
    assert agg.ecdf_values.tobytes() == expected.tobytes()
    quartiles = agg.ecdf_values[[250, 500, 750]]
    assert np.array_equal([agg.q1, agg.median, agg.q3], quartiles, equal_nan=True)


def test_aggregate_empty():
    with pytest.raises(DataError):
        aggregate([])


def _mini_scenario(**overrides):
    settings = dict(
        area=(4.0, 4.0),
        anchors=(
            Anchor("a1", Point3(0.0, 0.0, 2.0)),
            Anchor("a2", Point3(4.0, 0.0, 2.6)),
            Anchor("a3", Point3(4.0, 4.0, 2.2)),
            Anchor("a4", Point3(0.0, 4.0, 3.0)),
        ),
        walls=(),
        grid_step=0.5,
        tag_height=1.0,
        runs=2,
        seed=7,
        model_table={
            "los": Gaussian(0.004, 0.071),
            "drywall": Gaussian(-0.043, 0.092),
            "concrete": Gaussian(0.3, 0.1),
        },
        solver=SolverConfig(),
        diversity=None,
    )
    settings.update(overrides)
    return Scenario(**settings)


def test_point_mass_models_recover_truth():
    scenario = _mini_scenario(
        model_table={"los": Gaussian(0.0, 1e-300)},
        solver=SolverConfig(delta=1e-7, k_max=40, c=0.0),
        runs=1,
    )
    stats = run_scenario(scenario)
    assert stats.n_failed == 0
    assert np.nanmax(stats.err3d) < 1e-3


def test_scenario_validation():
    with pytest.raises(ParameterError):
        _mini_scenario(grid_step=0.0)
    with pytest.raises(ParameterError):
        _mini_scenario(runs=0)
    with pytest.raises(ParameterError):
        _mini_scenario(walls=(Wall((0.0, 2.0), (4.0, 2.0), "concrete"),), model_table={"los": Gaussian(0, 0.1)})
    with pytest.raises(ParameterError, match="tag_height must be finite, got nan"):
        _mini_scenario(tag_height=math.nan)
    # checked when the Scenario is built, not partway into run_scenario
    with pytest.raises(ParameterError, match="solver.weights: one weight per anchor required, got 2 for 4"):
        _mini_scenario(solver=SolverConfig(weights=(1.0, 1.0)))


def test_run_shapes_and_counts():
    scenario = _mini_scenario()
    stats = run_scenario(scenario)
    points = len(build_grid(scenario.area, scenario.grid_step, scenario.tag_height))
    assert stats.err2d.shape == (2, points)
    assert stats.aggregate_2d.count == 2 * points - stats.n_failed
    assert stats.signature_of.shape == (points,)
    assert sorted(set(stats.signature_of.tolist())) == list(range(len(stats.labels)))


def test_wall_free_scenario_equals_all_los():
    walled = _mini_scenario(walls=(Wall((0.0, 2.0), (4.0, 2.0), "concrete"),))
    unwalled = _mini_scenario()
    with_wall_removed = dataclasses.replace(walled, walls=())
    a = run_scenario(with_wall_removed)
    b = run_scenario(unwalled)
    assert np.array_equal(a.err2d, b.err2d)
    assert np.array_equal(a.estimates, b.estimates)


def test_condition_isolation():
    walled = _mini_scenario(walls=(Wall((0.0, 2.0), (4.0, 2.0), "concrete"),))
    tweaked = dataclasses.replace(
        walled,
        model_table={**walled.model_table, "concrete": Gaussian(1.5, 0.4)},
    )
    a = run_scenario(walled)
    b = run_scenario(tweaked)
    conditions = [a.labels[i] for i in a.signature_of]
    los_points = [i for i, c in enumerate(conditions) if set(c.split("|")) == {"los"}]
    mixed = [i for i, c in enumerate(conditions) if "concrete" in c]
    assert mixed, "the dividing wall should obstruct some links"
    np.testing.assert_array_equal(a.err2d[:, los_points], b.err2d[:, los_points])
    assert not np.array_equal(a.err2d[:, mixed], b.err2d[:, mixed])


def test_rerun_is_bit_identical():
    scenario = _mini_scenario()
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert np.array_equal(a.estimates, b.estimates)


def test_diversity_min_lowers_measurements():
    base = _mini_scenario()
    diverse = _mini_scenario(diversity=DiversityConfig(channels=3, strategy="min"))
    a = run_scenario(base)
    b = run_scenario(diverse)
    # channel 0 draws are shared, so min over three channels can only shrink errors
    assert np.all(b.err2d <= a.err2d + 1.0)  # sanity: same scale
    assert a.aggregate_2d.median != b.aggregate_2d.median


def _biased_los_floor(**overrides):
    """paper-los on a 1 m grid for 3 runs with LOS errors biased to -4 m:
    ranges near an anchor go negative, so some solves fail and others do not."""
    floor = preset_scenario("paper-los")
    return dataclasses.replace(floor, grid_step=1.0, runs=3,
                               model_table={**floor.model_table, "los": Gaussian(-4.0, 2.0)},
                               **overrides)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), strategy=st.sampled_from(DIVERSITY_STRATEGIES),
       runs=st.integers(2, 3))
def test_chunk_size_does_not_change_results(chunk, seed, strategy, runs):
    # 81 points per run on the mini floor: chunks of 7 cells straddle run boundaries
    diversity = DiversityConfig(channels=3, strategy=strategy)
    for scenario in (
        _mini_scenario(seed=seed, runs=runs, diversity=diversity,
                       walls=(Wall((0.0, 2.0), (4.0, 2.0), "concrete"),)),
        _biased_los_floor(seed=seed, diversity=diversity),
    ):
        reference = run_scenario(scenario)
        with mock.patch.object(simulator, "_CHUNK", chunk):
            chunked = run_scenario(scenario)
        for name in ("estimates", "err2d", "err3d", "failed"):
            assert np.array_equal(getattr(chunked, name), getattr(reference, name), equal_nan=True)


# Recorded from the implementation that kept failures in a separate bool array:
# marking them by NaN alone must not change a byte
_BIASED_LOS_SHA256 = {
    "points.csv": "a1f964cb91907449a1113e70e146c8ad5781188e2f355d12e7b8a2e0ac649635",
    "ecdf.csv": "6d44f390d077006f47b0fd6ee5c74abd5bf55078d776fec15632a258b9f1b266",
    "report.json": "cda86056eada21f3983dccf52510d0c1befb2c29460fb87a466f293184a103e4",
}


# The three preset studies at seed 42, recorded at 3b2fcc7: the solver's active
# set and shared start, and the writer's label table, must not change a byte
_PRESET_SHA256 = {
    "paper-los": {
        "points.csv": "3a4937971a4e66e709c783beee050e6a7b535cb757b3bc574205d90346607008",
        "ecdf.csv": "171cf278678cbff80e75a2ea2a79fc97389915bbecda1f97420f06f949ced4af",
        "report.json": "efe80e8d92b8dd1dbb44884ae87a625d203d2b5999045346d57918632fd6d6cb",
    },
    "paper-drywall": {
        "points.csv": "d724b91317aacea7455af260891e451dfa63e477a0c82d8c3d6195870c2e5a08",
        "ecdf.csv": "6afd8e1e6b810205079663316c13e31cec1b238a17da2a0a4c7cdcdb325c4171",
        "report.json": "3c0260f011e912643d6b03c4be2400919efdaa7a225961c2d1162ba330f557aa",
    },
    "paper-concrete": {
        "points.csv": "05f21d6020c49397710d843c4bda26ff2c52ae5277c33f7e7c4ee0b3f97da257",
        "ecdf.csv": "636f7dcf620f8952ebfdc52edc6d584d49a0fea62c1cfbbcf0aea1cc86a5c799",
        "report.json": "7f5f891e9493b4348071ad0f5d910858388cde6a93065140e07224e2148dfb5f",
    },
}


# A 3-channel study per diversity strategy on the mini floor split by a
# concrete wall (Gaussian LOS, Burr XII concrete), recorded at 971402f,
# before the channel min, the per-condition transform, the AS241 tails,
# the splitmix64 finalizer and the error norms lost their temporaries
_DIVERSITY_SHA256 = {
    "min": {
        "points.csv": "0b2c6c487c511417660d0e1e5a30ba5491d7b9cd2ec72b02c7b89559afba3311",
        "ecdf.csv": "460d3c9facefb03312dd9cebf6ae33410b5a3be937c5ffe8d8d521ffc711c5eb",
        "report.json": "f8a511670c966c87887b6850ff9f8bca3756601ed2fea256076eb74ec14e80ab",
    },
    "mean": {
        "points.csv": "4cf9a7cd5fda9ab8b872fbeac5de4781b3611a15447e86ca9d5115299970dd45",
        "ecdf.csv": "15a5ceed314d06e6321404a6188a94182d290d83611ffd05e1e30baa8ce99382",
        "report.json": "14f0e95022a26d752ebbeb9d840001131c44ace8839dd3d0557d9c5be010a01d",
    },
    "median": {
        "points.csv": "2ab5034e0fa72ec76c24b43d2ae78031c71c41286bbcc2a0c76c79a2aff6edd0",
        "ecdf.csv": "c43854f71df4abcbedc521af9526e663aa1befbd9e0f89301ba30884b01e6650",
        "report.json": "5e333a250912cc4851b8962ac0df1d337a016037b6f5edb5abea26b13b656388",
    },
}


@pytest.mark.parametrize("strategy", sorted(_DIVERSITY_SHA256))
def test_three_channel_study_artifacts_are_pinned(tmp_path, strategy):
    scenario = _mini_scenario(
        walls=(Wall((0.0, 2.0), (4.0, 2.0), "concrete"),), runs=3, seed=2022,
        model_table={"los": Gaussian(0.004, 0.071), "concrete": BurrXII(c=9.64, d=0.98, mu=-0.46, sigma=0.72)},
        diversity=DiversityConfig(channels=3, strategy=strategy),
    )
    write_outputs(run_scenario(scenario), scenario, str(tmp_path))
    for name, digest in _DIVERSITY_SHA256[strategy].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("preset", sorted(_PRESET_SHA256))
def test_preset_study_artifacts_are_pinned(tmp_path, preset):
    scenario = dataclasses.replace(preset_scenario(preset), seed=42)
    write_outputs(run_scenario(scenario), scenario, str(tmp_path))
    for name, digest in _PRESET_SHA256[preset].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


try:  # the CPU features numpy 2 selects loops for at run time, above its build's baseline
    from numpy._core._multiarray_umath import __cpu_dispatch__ as _DISPATCHED
except ImportError:
    _DISPATCHED = []

_AT_BASELINE = """
import sys
from numpy.lib.introspect import opt_func_info
from uwb_locsim.cli import main
loop = opt_func_info(func_name="exp")["exp"]["dd"]["current"]
sys.exit(main(sys.argv[1:]) if loop.startswith("baseline") else f"exp still runs its {loop} loop")
"""


@pytest.mark.skipif(not _DISPATCHED, reason="this numpy build dispatches no CPU features")
@pytest.mark.parametrize("preset", sorted(_PRESET_SHA256))
def test_preset_digests_hold_at_numpys_baseline_cpu_level(tmp_path, preset):
    # numpy picks its exp, log, log1p, expm1 and power loops by CPU feature.
    # With every dispatched feature disabled, the process runs the loops of
    # the oldest CPU the build supports; the presets' files must not move.
    src = str(Path(simulator.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_DISPATCHED),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _AT_BASELINE, "simulate", "--preset", preset, "--seed", "42",
                           "--out", str(tmp_path)], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    for name, digest in _PRESET_SHA256[preset].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_partly_failing_study_artifacts_are_pinned(tmp_path):
    scenario = _biased_los_floor()
    stats = run_scenario(scenario)
    assert stats.n_failed == 195 and stats.err2d.size == 630
    assert np.array_equal(stats.failed, np.isnan(stats.estimates).any(axis=2))
    assert np.array_equal(stats.failed, np.isnan(stats.err3d))
    write_outputs(stats, scenario, str(tmp_path))
    for name, digest in _BIASED_LOS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("chunk", [4096, 5])
def test_error_norms_match_linalg_norm_bit_for_bit(monkeypatch, chunk):
    # Every tag at the origin, and a solver that returns these rows: each
    # row is then its own difference vector, and err2d / err3d must carry
    # np.linalg.norm's bits for it
    big, tiny = 1e160, 5e-324
    rows = np.array([
        [3.0, 4.0, 12.0], [0.1, 0.2, 0.3], [-1.5, 2.25, -0.75], [1e-3, -7.0, 1e5],
        [np.nan, 0.0, 0.0], [0.0, 0.0, np.nan], [np.inf, np.nan, 1.0],
        [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0], [1.0, 1.0, np.inf], [np.inf, -np.inf, -np.inf],
        [big, 0.0, 0.0], [-big, big, 1.0], [1.0, 2.0, -big], [9e153, 9e153, 9e153], [1e154, 1e154, 0.0],
        [tiny, 0.0, 0.0], [1e-310, -2e-310, 3e-310], [2.2e-308, 1e-160, 1e-170], [tiny, tiny, tiny],
        [-0.0, -0.0, -0.0], [-0.0, 0.0, -3.0], [0.0, -0.0, 0.0],
    ])
    batches = iter(np.array_split(rows, range(chunk, len(rows), chunk)))

    def solver(config, positions, distances, x_r, x0):
        batch = next(batches).copy()
        assert len(batch) == len(distances)
        nothing = np.zeros(len(batch))
        return BatchSolveResult(batch, nothing.astype(int), nothing == 0, nothing, nothing != 0)

    monkeypatch.setattr(simulator, "build_grid", lambda *args: np.zeros((len(rows), 3)))
    monkeypatch.setattr(simulator, "solve_batch", solver)
    monkeypatch.setattr(simulator, "_CHUNK", chunk)
    stats = run_scenario(_mini_scenario(runs=1))
    with np.errstate(over="ignore"):
        expected_2d = np.linalg.norm(rows[:, :2], axis=1)
        expected_3d = np.linalg.norm(rows, axis=1)
    assert np.isinf(expected_2d[11]) and np.isfinite(expected_2d[14]) and np.isinf(expected_3d[14])  # overflows
    assert np.array_equal(stats.err2d[0].view(np.int64), expected_2d.view(np.int64))
    assert np.array_equal(stats.err3d[0].view(np.int64), expected_3d.view(np.int64))


def test_draws_are_made_chunk_by_chunk(monkeypatch):
    sizes, draw = [], simulator.cell_uniform_array

    def spy(*args):
        uniforms = draw(*args)
        sizes.append(uniforms.size)
        return uniforms

    monkeypatch.setattr(simulator, "cell_uniform_array", spy)
    monkeypatch.setattr(simulator, "_CHUNK", 7)
    scenario = _mini_scenario(runs=3, diversity=DiversityConfig(channels=3, strategy="min"))
    run_scenario(scenario)
    points = len(build_grid(scenario.area, scenario.grid_step, scenario.tag_height))
    assert max(sizes) <= 7 * 4 * 3
    assert sum(sizes) == 3 * points * 4 * 3


def test_a_study_too_large_to_allocate_fails_before_classifying_links(monkeypatch):
    classified = mock.Mock(wraps=simulator.classify_links_bulk)
    monkeypatch.setattr(simulator, "classify_links_bulk", classified)
    with pytest.raises(MemoryError):
        run_scenario(dataclasses.replace(preset_scenario("paper-concrete"), runs=10**18))
    assert classified.call_count == 0


def test_diversity_validation():
    with pytest.raises(ParameterError):
        DiversityConfig(channels=0, strategy="min")
    with pytest.raises(ParameterError):
        DiversityConfig(channels=3, strategy="best")


def test_preset_definitions():
    for name, materials in (
        ("paper-los", set()),
        ("paper-drywall", {"drywall"}),
        ("paper-concrete", {"concrete"}),
    ):
        scenario = preset_scenario(name)
        assert scenario.area == (9.0, 20.0)
        assert scenario.runs == 5
        assert scenario.seed == 42
        assert scenario.grid_step == 0.25
        assert {w.material for w in scenario.walls} == materials
        heights = [a.position.z for a in scenario.anchors]
        assert sorted(heights) == [2.7, 2.7, 3.0, 3.0]
        if materials:
            wall = scenario.walls[0]
            assert wall.a[1] == wall.b[1] == 13.0


def test_unknown_preset():
    with pytest.raises(DataError):
        preset_scenario("paper-atrium")


def test_scenario_dict_round_trip():
    scenario = preset_scenario("paper-concrete")
    rebuilt = scenario_from_dict(scenario_to_dict(scenario))
    assert rebuilt.area == scenario.area
    assert rebuilt.anchors == scenario.anchors
    assert rebuilt.walls == scenario.walls
    assert rebuilt.model_table == scenario.model_table
    assert rebuilt.solver == scenario.solver
    stats_a = run_scenario(dataclasses.replace(scenario, grid_step=1.0))
    stats_b = run_scenario(dataclasses.replace(rebuilt, grid_step=1.0))
    assert np.array_equal(stats_a.err2d, stats_b.err2d)


def test_scenario_dict_round_trip_keeps_solver_points_and_weights():
    solver = SolverConfig(
        delta=1e-4, k_max=12, c=0.05, x_r=Point3(4.0, 9.5, 2.0), x_r_mode="mean",
        weights=(0.071, 0.071, 0.72, 0.72), x0=Point3(1.0, 2.0, 1.2),
    )
    scenario = dataclasses.replace(preset_scenario("paper-concrete"), solver=solver)
    config = scenario_to_dict(scenario)
    assert config["solver"]["x_r"] == {"x": 4.0, "y": 9.5, "z": 2.0}
    assert config["solver"]["x0"] == {"x": 1.0, "y": 2.0, "z": 1.2}
    assert scenario_from_dict(config) == scenario
    assert scenario_from_dict(json.loads(json.dumps(config))) == scenario


_coord = st.floats(-50.0, 50.0)
_positive = st.floats(0.01, 50.0)
_point = st.builds(Point3, _coord, _coord, _coord)
_model = st.one_of(
    st.builds(Gaussian, mu=_coord, sigma=_positive),
    st.builds(LogNormal, s=_positive, mu=_coord, sigma=_positive),
    st.builds(BurrXII, c=_positive, d=_positive, mu=_coord, sigma=_positive),
)
_wall = st.tuples(
    st.tuples(_coord, _coord), st.tuples(_coord, _coord), st.sampled_from(["drywall", "concrete"]),
).filter(lambda abm: abm[0] != abm[1]).map(lambda abm: Wall(*abm))


@st.composite
def _scenarios(draw):
    n_anchors = draw(st.integers(3, 6))
    walls = tuple(draw(st.lists(_wall, max_size=3)))
    conditions = {"los"} | {w.material for w in walls} | draw(st.sets(st.sampled_from(["human"])))
    solver = SolverConfig(
        delta=draw(_positive), k_max=draw(st.integers(1, 50)), c=draw(st.floats(0.0, 1.0)),
        x_r=draw(st.none() | _point), x_r_mode=draw(st.sampled_from(["median", "mean"])),
        weights=draw(st.none() | st.tuples(*[_positive] * n_anchors)), x0=draw(st.none() | _point),
    )
    diversity = draw(st.none() | st.builds(
        DiversityConfig, channels=st.integers(1, 5), strategy=st.sampled_from(DIVERSITY_STRATEGIES)))
    return Scenario(
        area=(draw(_positive), draw(_positive)),
        anchors=tuple(Anchor(f"a{i}", draw(_point)) for i in range(n_anchors)),
        walls=walls,
        grid_step=draw(_positive),
        tag_height=draw(_coord),
        runs=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**63 - 1)),
        model_table={condition: draw(_model) for condition in sorted(conditions)},
        solver=solver,
        diversity=diversity,
    )


@settings(max_examples=100, deadline=None)
@given(scenario=_scenarios())
def test_scenario_dict_json_round_trip(scenario):
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario)))) == scenario


def test_scenario_from_dict_names_non_numeric_field():
    config = scenario_to_dict(preset_scenario("paper-los"))
    config["anchors"][2]["z"] = "high"
    with pytest.raises(DataError, match=r"anchors\[2\]\.z"):
        scenario_from_dict(config)
    config = scenario_to_dict(preset_scenario("paper-los"))
    config["solver"]["k_max"] = "ten"
    with pytest.raises(DataError, match="solver.k_max"):
        scenario_from_dict(config)


def test_scenario_from_dict_reports_missing_field():
    config = scenario_to_dict(preset_scenario("paper-los"))
    del config["area"]["h"]
    with pytest.raises(DataError, match="'h'"):
        scenario_from_dict(config)
