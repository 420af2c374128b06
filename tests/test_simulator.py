import dataclasses
import json
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
from uwb_locsim.ranging import DIVERSITY_STRATEGIES
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


def test_aggregate_ecdf_properties():
    errors = [0.3, 0.1, 0.3, 0.7, 0.1]
    agg = aggregate(errors)
    np.testing.assert_allclose(agg.ecdf_values, [0.1, 0.3, 0.7])
    np.testing.assert_allclose(agg.ecdf_probs, [0.4, 0.8, 1.0])
    assert np.all(np.diff(agg.ecdf_probs) > 0)


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


def test_run_shapes_and_counts():
    scenario = _mini_scenario()
    stats = run_scenario(scenario)
    points = len(build_grid(scenario.area, scenario.grid_step, scenario.tag_height))
    assert stats.err2d.shape == (2, points)
    assert stats.aggregate_2d.count == 2 * points - stats.n_failed
    assert len(stats.conditions) == points


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
    los_points = [i for i, c in enumerate(a.conditions) if set(c.split("|")) == {"los"}]
    mixed = [i for i, c in enumerate(a.conditions) if "concrete" in c]
    assert mixed, "the dividing wall should obstruct some links"
    np.testing.assert_array_equal(a.err2d[:, los_points], b.err2d[:, los_points])
    assert not np.array_equal(a.err2d[:, mixed], b.err2d[:, mixed])


def test_thread_count_does_not_change_results():
    scenario = _mini_scenario(runs=3)
    a = run_scenario(scenario, threads=1)
    b = run_scenario(scenario, threads=8)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.err3d, b.err3d)


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


@pytest.mark.parametrize("chunk", [1, 7, 1000])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), strategy=st.sampled_from(DIVERSITY_STRATEGIES),
       runs=st.integers(2, 3))
def test_chunk_size_does_not_change_results(chunk, seed, strategy, runs):
    # 81 points per run: chunks of 7 cells straddle run boundaries
    scenario = _mini_scenario(
        seed=seed, runs=runs, diversity=DiversityConfig(channels=3, strategy=strategy),
        walls=(Wall((0.0, 2.0), (4.0, 2.0), "concrete"),),
    )
    reference = run_scenario(scenario)
    with mock.patch.object(simulator, "_CHUNK", chunk):
        chunked = run_scenario(scenario)
    for name in ("estimates", "err2d", "failed"):
        assert np.array_equal(getattr(chunked, name), getattr(reference, name), equal_nan=True)


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
