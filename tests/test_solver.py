import dataclasses
import functools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from uwb_locsim import (
    Anchor,
    ParameterError,
    Point3,
    SingularGeometryError,
    SolverConfig,
    jacobian,
    solve,
)
from uwb_locsim import simulator, solver
from uwb_locsim.geometry import SEVERITY_TO_CONDITION, classify_links_bulk
from uwb_locsim.scenarios import PRESETS, preset_scenario
from uwb_locsim.solver import (
    _anchor_reducer,
    _unit_rows,
    anchor_positions,
    reference_point,
    solve_batch,
    start_points,
)


def _anchor(i, x, y, z):
    return Anchor(str(i), Point3(x, y, z))


SQUARE = [_anchor(0, 0, 0, 0), _anchor(1, 10, 0, 0), _anchor(2, 0, 10, 0), _anchor(3, 10, 10, 3)]


def _exact_distances(anchors, truth):
    return [np.linalg.norm(a.position.as_array() - truth) for a in anchors]


def test_jacobian_unit_direction():
    rows = jacobian(Point3(0, 0, 0), [_anchor(0, 1, 0, 0)])
    np.testing.assert_allclose(rows, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_jacobian_345_direction():
    rows = jacobian(Point3(0, 0, 0), [_anchor(0, 3, 4, 0)])
    np.testing.assert_allclose(rows, [[0.6, 0.8, 0.0]], atol=1e-15)


def test_jacobian_rows_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        anchors = [_anchor(i, *rng.uniform(-5, 5, 3)) for i in range(6)]
        x = Point3(*rng.uniform(-4, 4, 3))
        rows = jacobian(x, anchors)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    step = 1e-6
    for _ in range(20):
        anchors = [_anchor(i, *rng.uniform(-5, 5, 3)) for i in range(5)]
        x = rng.uniform(-4, 4, 3)
        rows = jacobian(Point3(*x), anchors)
        positions = anchor_positions(anchors)
        for k in range(3):
            plus, minus = x.copy(), x.copy()
            plus[k] += step
            minus[k] -= step
            h_plus = np.linalg.norm(positions - plus, axis=1)
            h_minus = np.linalg.norm(positions - minus, axis=1)
            # rows hold the direction toward each anchor = -dh/dx
            fd = -(h_plus - h_minus) / (2 * step)
            np.testing.assert_allclose(rows[:, k], fd, atol=1e-5)


def test_jacobian_anchor_coincidence():
    with pytest.raises(SingularGeometryError):
        jacobian(Point3(1, 2, 3), [_anchor(0, 1, 2, 3 + 1e-12)])


def test_jacobian_returns_the_columns_of_the_solvers_unit_rows(monkeypatch):
    # one row builder: jacobian calls _unit_rows once and stacks its columns
    returned = []

    def spy(positions, x):
        returned.append(_unit_rows(positions, x))
        return returned[-1]

    monkeypatch.setattr(solver, "_unit_rows", spy)
    rng = np.random.default_rng(7)
    for n_anchors in range(3, 17):
        anchors = [_anchor(i, *rng.uniform(-10, 10, 3)) for i in range(n_anchors)]
        rows = jacobian(Point3(*rng.uniform(-12, 12, 3)), anchors)
        (ux, uy, uz, _, _), = returned
        returned.clear()
        assert rows.tobytes() == np.column_stack([ux[:, 0], uy[:, 0], uz[:, 0]]).tobytes(), n_anchors


def test_zero_noise_recovery():
    truth = np.array([5.0, 5.0, 1.0])
    config = SolverConfig(delta=1e-9, k_max=20, c=0.0, x0=Point3(4, 4, 0))
    estimate = solve(config, SQUARE, _exact_distances(SQUARE, truth))
    assert estimate.converged
    assert np.linalg.norm(estimate.position.as_array() - truth) < 1e-6
    assert estimate.iterations <= 20


def test_solve_respects_k_max():
    truth = np.array([5.0, 5.0, 1.0])
    config = SolverConfig(delta=1e-15, k_max=3, c=0.0, x0=Point3(4, 4, 0))
    estimate = solve(config, SQUARE, _exact_distances(SQUARE, truth))
    assert estimate.iterations == 3
    assert not estimate.converged


def test_solve_input_validation():
    with pytest.raises(ParameterError, match=r"got 3 distances per point for anchors of shape \(4, 3\)"):
        solve(SolverConfig(), SQUARE, [1.0, 2.0, 3.0])
    with pytest.raises(ParameterError, match="finite and > 0"):
        solve(SolverConfig(), SQUARE, [1.0, 2.0, 3.0, -1.0])
    with pytest.raises(ParameterError, match="at least three anchors are required"):
        solve(SolverConfig(), SQUARE[:2], [1.0, 2.0])
    with pytest.raises(ParameterError, match="at least three anchors are required"):
        solve(SolverConfig(), [], [])  # not start_points' "a reference point needs at least one anchor"
    with pytest.raises(ParameterError, match=r"got 2 distances per point for anchors of shape \(3, 3\)"):
        solve(SolverConfig(), SQUARE[:3], [1.0, 2.0])  # a count mismatch, not too few anchors
    for distances in (5.0, [[5.0] * 4]):  # 0-D and 2-D reach solve_batch's shape rule
        with pytest.raises(ParameterError, match=r"distances must be a \(B, N\) array"):
            solve(SolverConfig(), SQUARE, distances)


_POSITIONS = anchor_positions(SQUARE)
_X_R = np.median(_POSITIONS, axis=0)


@pytest.mark.parametrize("positions, distances, x0, weights, message", [
    (_POSITIONS[:0], np.full((2, 0), 5.0), _X_R, None, "at least three anchors are required"),
    (_POSITIONS[:1], np.full((2, 1), 5.0), _X_R, None, "at least three anchors are required"),
    (_POSITIONS[:2], np.full((2, 2), 5.0), _X_R, None, "at least three anchors are required"),
    (_POSITIONS, np.full(4, 5.0), _X_R, None, r"distances must be a \(B, N\) array, got shape \(4,\)"),
    (_POSITIONS, np.full((2, 2, 4), 5.0), _X_R, None, r"got shape \(2, 2, 4\)"),
    (_POSITIONS[:3], np.full((2, 4), 5.0), _X_R, None,
     r"got 4 distances per point for anchors of shape \(3, 3\)"),
    (_POSITIONS, np.full((2, 4), 5.0), _X_R, (1.0, 1.0), "one weight per anchor required, got 2 for 4"),
    (_POSITIONS, np.full((2, 4), 5.0), _X_R[:2], None, r"x0 must have shape \(3,\) or \(2, 3\), got \(2,\)"),
    (_POSITIONS, np.full((2, 4), 5.0), np.zeros((3, 3)), None, r"got \(3, 3\)"),
], ids=["0-anchors", "1-anchor", "2-anchors", "1-d-distances", "3-d-distances", "anchor-array",
        "weights", "x0-(2,)", "x0-(B+1,3)"])
def test_solve_batch_rejects_malformed_input(positions, distances, x0, weights, message):
    # solve_batch states the solver's input contract once; with fewer than
    # three anchors it used to return every point "converged"
    with pytest.raises(ParameterError, match=message):
        solve_batch(SolverConfig(weights=weights), positions, distances, _X_R, x0)


@pytest.mark.parametrize("anchors, mode, message", [
    (SQUARE, "centroid", "mode must be 'median' or 'mean'"),
    ([], "median", "at least one anchor"),
], ids=["unknown-mode", "no-anchors"])
def test_reference_point_rejects_malformed_input(anchors, mode, message):
    with pytest.raises(ParameterError, match=message):
        reference_point(anchors, mode)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solve_rejects_non_finite_distances(bad):
    with pytest.raises(ParameterError, match="finite"):
        solve(SolverConfig(), SQUARE, [5.0, 5.0, bad, 5.0])


def test_singular_geometry_with_unregularized_collinear_anchors():
    collinear = [_anchor(i, float(i), 0.0, 0.0) for i in range(4)]
    with pytest.raises(SingularGeometryError):
        solve(SolverConfig(c=0.0, x0=Point3(1.0, 0.0, 0.0)), collinear, [1.0, 1.0, 1.0, 2.0])


def test_regularization_keeps_collinear_solvable():
    collinear = [_anchor(i, float(i), 0.0, 0.0) for i in range(4)]
    estimate = solve(SolverConfig(c=0.1), collinear, [1.0, 1.0, 1.0, 2.0])
    assert np.isfinite(estimate.position.as_array()).all()


def test_translation_equivariance():
    rng = np.random.default_rng(44)
    truth = np.array([3.2, 4.1, 1.3])
    distances = _exact_distances(SQUARE, truth) + rng.normal(0, 0.05, 4)
    shift = np.array([13.0, -7.0, 2.5])
    base_cfg = SolverConfig(delta=1e-9, k_max=30, c=0.1)
    base = solve(base_cfg, SQUARE, distances).position.as_array()
    moved_anchors = [
        Anchor(a.id, Point3(*(a.position.as_array() + shift))) for a in SQUARE
    ]
    moved = solve(base_cfg, moved_anchors, distances).position.as_array()
    np.testing.assert_allclose(moved, base + shift, atol=1e-9)


def test_regularization_continuity():
    truth = np.array([5.0, 5.0, 1.0])
    distances = _exact_distances(SQUARE, truth)
    errors = []
    for c in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        config = SolverConfig(delta=1e-12, k_max=60, c=c, x0=Point3(5.2, 5.2, 1.2))
        est = solve(config, SQUARE, distances).position.as_array()
        errors.append(np.linalg.norm(est - truth))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-6


def test_reference_point_median_and_mean():
    np.testing.assert_allclose(reference_point(SQUARE, "median"), [5.0, 5.0, 0.0])
    np.testing.assert_allclose(reference_point(SQUARE, "mean"), [5.0, 5.0, 0.75])


@settings(max_examples=300, deadline=None)
@given(
    positions=arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.just(3)),
        elements=st.sampled_from([-0.0, 0.0, 1.5, -2.0])
        | st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    )
)
def test_start_point_median_has_the_bits_of_np_median(positions):
    # ties and zeros of either sign included; np.median's mean turns -0.0 into 0.0
    expected = np.median(positions, axis=0).tobytes()
    x_r, x0 = start_points(SolverConfig(), positions)
    assert x_r.tobytes() == x0.tobytes() == expected
    anchors = [_anchor(i, *p) for i, p in enumerate(positions)]
    assert reference_point(anchors).tobytes() == expected


def test_default_start_is_reference_point():
    # one iteration from the median reference point, both paths agree
    distances = _exact_distances(SQUARE, np.array([5.0, 5.0, 1.0]))
    auto = solve(SolverConfig(k_max=1, delta=1e-15), SQUARE, distances)
    manual = solve(
        SolverConfig(k_max=1, delta=1e-15, x0=Point3(5.0, 5.0, 0.0)), SQUARE, distances
    )
    assert auto.position == manual.position


def test_batch_matches_scalar():
    # solve() is its row of solve_batch, bit for bit, whatever the anchor
    # count and config; the x0 config starts on anchor 1 (the nudge)
    outcomes = set()
    for n_anchors in (3, 4, 8, 9, 16):
        positions, distances, _, _ = _random_problem(n_anchors, n_points=30)
        distances = distances[4:]  # rows 1-3 are not finite and positive
        anchors = [_anchor(i, *p) for i, p in enumerate(positions)]
        configs = [
            *(_config(name, n_anchors) for name in ("default", "weights", "c0")),
            SolverConfig(x_r_mode="mean"),
            SolverConfig(x0=Point3(*positions[1]), x_r=Point3(3.0, 4.0, 1.0)),
            SolverConfig(delta=1e-6, k_max=3),
        ]
        for config in configs:
            x_r = reference_point(anchors, config.x_r_mode) if config.x_r is None else config.x_r.as_array()
            x0 = x_r if config.x0 is None else config.x0.as_array()
            batch = solve_batch(config, positions, distances, x_r, x0)
            assert not batch.failed.any()
            for i, row in enumerate(distances):
                single = solve(config, anchors, row)
                assert single.position.as_array().tobytes() == batch.positions[i].tobytes()
                assert single.iterations == batch.iterations[i]
                assert single.converged == batch.converged[i]
                assert np.float64(single.final_step_norm).tobytes() == batch.step_norms[i].tobytes()
            outcomes.update(batch.converged.tolist())
    assert outcomes == {True, False}


def test_batch_flags_nonpositive_distances_as_failed():
    positions = anchor_positions(SQUARE)
    distances = np.array([[5.0, 5.0, 5.0, 5.0], [5.0, -0.1, 5.0, 5.0]])
    x_r = reference_point(SQUARE, "median")
    result = solve_batch(SolverConfig(), positions, distances, x_r, np.broadcast_to(x_r, (2, 3)))
    assert not result.failed[0]
    assert result.failed[1]


def test_batch_flags_non_finite_distances_as_failed_up_front():
    positions = anchor_positions(SQUARE)
    good = _exact_distances(SQUARE, np.array([3.0, 4.0, 1.0]))
    distances = np.array([good, [5.0, np.nan, 5.0, 5.0], [5.0, 5.0, np.inf, 5.0]])
    x_r = reference_point(SQUARE, "median")
    result = solve_batch(SolverConfig(), positions, distances, x_r, np.broadcast_to(x_r, (3, 3)))
    assert result.failed.tolist() == [False, True, True]
    assert result.iterations[1:].tolist() == [0, 0]
    np.testing.assert_array_equal(result.positions[1:], [x_r, x_r])


def test_iterate_on_anchor_is_perturbed_not_fatal():
    config = SolverConfig(delta=1e-9, k_max=30, c=0.1, x0=Point3(0.0, 0.0, 0.0))
    distances = _exact_distances(SQUARE, np.array([2.0, 2.0, 1.0]))
    estimate = solve(config, SQUARE, distances)
    assert np.isfinite(estimate.position.as_array()).all()


def test_per_anchor_weights_downweight_biased_anchor():
    spread = [_anchor(0, 0, 0, 0), _anchor(1, 10, 0, 2), _anchor(2, 0, 10, 3), _anchor(3, 10, 10, 1)]
    truth = np.array([5.0, 5.0, 1.0])
    distances = np.array(_exact_distances(spread, truth))
    distances[3] += 0.46
    start = Point3(5.2, 5.2, 1.2)
    plain = solve(SolverConfig(delta=1e-9, k_max=40, c=0.01, x0=start), spread, distances)
    weighted = solve(
        SolverConfig(delta=1e-9, k_max=40, c=0.01, x0=start, weights=(0.05, 0.05, 0.05, 5.0)),
        spread,
        distances,
    )
    err_plain = np.linalg.norm(plain.position.as_array() - truth)
    err_weighted = np.linalg.norm(weighted.position.as_array() - truth)
    assert err_weighted < err_plain / 5.0


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(delta=0.0)
    with pytest.raises(ParameterError):
        SolverConfig(k_max=0)
    with pytest.raises(ParameterError):
        SolverConfig(c=-0.1)
    with pytest.raises(ParameterError):
        SolverConfig(weights=(1.0, 0.0))
    with pytest.raises(ParameterError):
        SolverConfig(x_r_mode="centroid")


# ---------------------------------------------------------------------------
# Equivalence with the batched-QR kernel the closed-form kernel replaced.

def _qr_reference(config, positions, distances, x_r, x0):
    """Batched QR Gauss-Newton: each iteration solves the stacked system
    [W J; c I] dx = [W (h - d); c (x_r - x)] by QR, with the same anchor
    nudge, rank test and stopping rule as the kernel under test."""
    w = np.ones(len(positions)) if config.weights is None else 1.0 / np.asarray(config.weights)
    x = np.array(x0, dtype=float)
    iterations = np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    failed = ~np.all(distances > 0.0, axis=1)
    active = ~failed
    for _ in range(config.k_max):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xk = x[idx]
        for _attempt in range(3):
            diff = positions[None, :, :] - xk[:, None, :]
            dist = np.linalg.norm(diff, axis=2)
            too_close = dist < 1e-9
            if not too_close.any():
                break
            xk[too_close.any(axis=1), 2] += 1e-6
        reg = np.broadcast_to(config.c * np.eye(3), (idx.size, 3, 3))
        a = np.concatenate([diff / dist[:, :, None] * w[None, :, None], reg], axis=1)
        b = np.concatenate([(dist - distances[idx]) * w, config.c * (x_r - xk)], axis=1)
        q, r = np.linalg.qr(a)
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        singular = diag.min(axis=1) <= 1e-12 * diag.max(axis=1)
        failed[idx[singular]] = True
        active[idx[singular]] = False
        keep = ~singular
        idx, xk, q, r, b = idx[keep], xk[keep], q[keep], r[keep], b[keep]
        step = np.linalg.solve(r, np.einsum("bmi,bm->bi", q, b)[..., None])[..., 0]
        norms = np.linalg.norm(step, axis=1)
        x[idx] = xk + step
        iterations[idx] += 1
        converged[idx] = norms < config.delta
        active[idx] = norms >= config.delta
    return x, iterations, converged, failed


@functools.lru_cache(maxsize=None)
def _preset_problem(name, seed):
    """The anchors, ranges, x_r and starts a preset study hands the solver."""
    calls = []

    def spy(config, positions, distances, x_r, x0):
        calls.append((positions, distances, x_r, x0))
        return solve_batch(config, positions, distances, x_r, x0)

    original = simulator.solve_batch
    simulator.solve_batch = spy
    try:
        simulator.run_scenario(dataclasses.replace(preset_scenario(name), seed=seed))
    finally:
        simulator.solve_batch = original
    positions, _, x_r, _ = calls[0]
    distances = np.concatenate([call[1] for call in calls])
    starts = np.concatenate([np.broadcast_to(call[3], (len(call[1]), 3)) for call in calls])
    return positions, distances, x_r, starts


# LOS sigma for the two anchors in front of the presets' wall, concrete
# scale for the two behind it
_WEIGHTED = SolverConfig(weights=(0.071, 0.071, 0.72, 0.72))


@pytest.mark.parametrize("seed", [42, 1])
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize(
    "config", [SolverConfig(), _WEIGHTED, SolverConfig(delta=1e-9)],
    ids=["default", "weights", "delta1e-9"],
)
def test_kernel_matches_qr_reference_on_presets(preset, seed, config):
    positions, distances, x_r, starts = _preset_problem(preset, seed)
    result = solve_batch(config, positions, distances, x_r, starts)
    ref_x, ref_iterations, ref_converged, ref_failed = _qr_reference(
        config, positions, distances, x_r, starts
    )
    assert np.abs(result.positions - ref_x).max() <= 1e-9
    np.testing.assert_array_equal(result.iterations, ref_iterations)
    np.testing.assert_array_equal(result.converged, ref_converged)
    np.testing.assert_array_equal(result.failed, ref_failed)


@pytest.mark.parametrize("seed", [42, 1])
@pytest.mark.parametrize("preset", PRESETS)
def test_kernel_matches_qr_reference_unregularized(preset, seed):
    # At c = 0 the normal equations square the condition number of the
    # QR system. Converged solves still agree to ~1e-14 m, but the
    # ~4,000 unconverged ones per preset diverge to |x| ~ 1e4 m, where
    # the two kernels differ by up to ~7e-6 m; only converged positions
    # are held to 1e-9 m. Iteration counts and flags must match for all.
    config = SolverConfig(c=0.0)
    positions, distances, x_r, starts = _preset_problem(preset, seed)
    result = solve_batch(config, positions, distances, x_r, starts)
    ref_x, ref_iterations, ref_converged, ref_failed = _qr_reference(
        config, positions, distances, x_r, starts
    )
    assert ref_converged.sum() > 0.5 * len(ref_converged)
    assert np.abs(result.positions - ref_x)[ref_converged].max() <= 1e-9
    np.testing.assert_array_equal(result.iterations, ref_iterations)
    np.testing.assert_array_equal(result.converged, ref_converged)
    np.testing.assert_array_equal(result.failed, ref_failed)


_OVERFLOW_SCRIPT = textwrap.dedent(
    """
    import json
    import numpy as np
    from uwb_locsim.scenarios import preset_scenario
    from uwb_locsim.solver import SolverConfig, anchor_positions, reference_point, solve_batch

    anchors = list(preset_scenario("paper-los").anchors)
    positions, x_r = anchor_positions(anchors), reference_point(anchors)
    good = np.linalg.norm(positions - np.array([3.0, 4.0, 1.2]), axis=1) + 0.01
    rows = np.array([good, [1e308] * 4, [1e308, 5.0, 5.0, 5.0]])
    batch = solve_batch(SolverConfig(), positions, rows, x_r, np.broadcast_to(x_r, (3, 3)))
    alone = solve_batch(SolverConfig(), positions, rows[:1], x_r, x_r[None, :])
    print(json.dumps({
        "failed": batch.failed.tolist(),
        "finite": np.isfinite(batch.positions).all(axis=1).tolist(),
        "good_unchanged": bool((batch.positions[0] == alone.positions[0]).all()
                               and batch.iterations[0] == alone.iterations[0]),
    }))
    """
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_overflowing_distances_fail_only_their_row(flags):
    # The guard must be a real check: under python -O an assert would
    # vanish and let a NaN position through unflagged.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", _OVERFLOW_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    outcome = json.loads(done.stdout)
    assert outcome == {"failed": [False, True, True], "finite": [True] * 3, "good_unchanged": True}


_CONCRETE = preset_scenario("paper-concrete")
_CONCRETE_POSITIONS = anchor_positions(list(_CONCRETE.anchors))
_UNIT = st.floats(min_value=1e-12, max_value=1.0 - 1e-12)


@st.composite
def _concrete_floor_batches(draw):
    """Tags anywhere on the concrete preset floor, each range drawn from
    the bundled model of its link condition."""
    n = draw(st.integers(min_value=1, max_value=40))
    tags = np.array([
        [draw(st.floats(0.0, _CONCRETE.area[0])), draw(st.floats(0.0, _CONCRETE.area[1])), 1.2]
        for _ in range(n)
    ])
    distances = np.linalg.norm(_CONCRETE_POSITIONS[None, :, :] - tags[:, None, :], axis=2)
    for j, anchor in enumerate(_CONCRETE.anchors):
        severity = classify_links_bulk(tags[:, :2], anchor.position.xy, _CONCRETE.walls)
        for i in range(n):
            model = _CONCRETE.model_table[SEVERITY_TO_CONDITION[int(severity[i])]]
            distances[i, j] += model.quantile(draw(_UNIT))
    return distances


@settings(max_examples=60, deadline=None)
@given(
    distances=_concrete_floor_batches(),
    config=st.sampled_from([SolverConfig(), _WEIGHTED, SolverConfig(c=0.0)]),
)
def test_solve_batch_does_not_depend_on_how_the_batch_is_split(distances, config):
    x_r, x0 = start_points(config, _CONCRETE_POSITIONS)
    starts = np.broadcast_to(x0, (len(distances), 3))
    whole = solve_batch(config, _CONCRETE_POSITIONS, distances, x_r, starts)
    for size in (1, 7, len(distances)):
        for shared in (False, True):
            parts = [
                solve_batch(config, _CONCRETE_POSITIONS, distances[lo:lo + size], x_r,
                            x0 if shared else starts[lo:lo + size])
                for lo in range(0, len(distances), size)
            ]
            for name in ("positions", "iterations", "converged", "step_norms", "failed"):
                joined = np.concatenate([getattr(part, name) for part in parts])
                assert np.array_equal(joined, getattr(whole, name), equal_nan=name == "positions"), name


# ---------------------------------------------------------------------------
# Bit identity with the row-major kernel the anchor-major kernel replaced.

def _row_major_reference(config, positions, distances, x_r, x0):
    """The Gauss-Newton kernel on (B, N) arrays with row sums ``.sum(axis=1)``,
    frozen as it was before the kernel moved to (3, B) iterates and (N, B)
    ranges. Returns the five BatchSolveResult fields."""
    w2 = None if config.weights is None else 1.0 / np.asarray(config.weights, dtype=float) ** 2
    c2 = config.c * config.c
    x = np.array(x0, dtype=float).reshape(len(distances), 3).copy()
    iterations = np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    failed = ~np.all(np.isfinite(distances) & (distances > 0.0), axis=1)
    step_norms = np.zeros(len(x))
    idx = np.flatnonzero(~failed)
    with np.errstate(all="ignore"):
        for _ in range(config.k_max):
            if idx.size == 0:
                break
            xk, d = x[idx], distances[idx]
            for _attempt in range(3):
                ex = positions[:, 0] - xk[:, 0, None]
                ey = positions[:, 1] - xk[:, 1, None]
                ez = positions[:, 2] - xk[:, 2, None]
                dist = np.sqrt(ex * ex + ey * ey + ez * ez)
                too_close = dist < 1e-9
                if not too_close.any():
                    break
                xk[too_close.any(axis=1), 2] += 1e-6
            ux, uy, uz = ex / dist, ey / dist, ez / dist
            wx, wy, wz = (ux, uy, uz) if w2 is None else (ux * w2, uy * w2, uz * w2)
            resid = dist - d
            a11 = (wx * ux).sum(axis=1) + c2
            a12 = (wx * uy).sum(axis=1)
            a13 = (wx * uz).sum(axis=1)
            a22 = (wy * uy).sum(axis=1) + c2
            a23 = (wy * uz).sum(axis=1)
            a33 = (wz * uz).sum(axis=1) + c2
            pull = c2 * (x_r - xk)
            b1 = (wx * resid).sum(axis=1) + pull[:, 0]
            b2 = (wy * resid).sum(axis=1) + pull[:, 1]
            b3 = (wz * resid).sum(axis=1) + pull[:, 2]
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
            step = np.column_stack([(y1 - l21 * s2 - l31 * s3) / l11, s2, s3])
            low = np.minimum(np.minimum(l11, l22), l33)
            high = np.maximum(np.maximum(l11, l22), l33)
            unsolvable = ~(low > 1e-12 * high) | ~np.isfinite(step).all(axis=1)
            if unsolvable.any():
                failed[idx[unsolvable]] = True
                keep = ~unsolvable
                idx, xk, step = idx[keep], xk[keep], step[keep]
            norms = np.sqrt((step * step).sum(axis=1))
            x[idx] = xk + step
            step_norms[idx] = norms
            iterations[idx] += 1
            done = norms < config.delta
            converged[idx] = done
            idx = idx[~done]
    return {"positions": x, "iterations": iterations, "converged": converged,
            "step_norms": step_norms, "failed": failed}


def _assert_bit_identical(result, reference):
    for name, expected in reference.items():
        got = np.ascontiguousarray(getattr(result, name))
        assert got.shape == expected.shape and got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name


def _random_problem(n_anchors, n_points=300):
    """Anchors spread over a 20 x 20 m floor, noisy ranges from tags at 1.2 m,
    and starts at the anchor median. Point 0 starts on anchor 0 (the nudge),
    point 1 has a NaN range, point 2 an infinite one, point 3 a negative one."""
    rng = np.random.default_rng(n_anchors)
    positions = np.column_stack([rng.uniform(0, 20, (n_anchors, 2)), rng.uniform(2, 3, n_anchors)])
    tags = np.column_stack([rng.uniform(0, 20, (n_points, 2)), np.full(n_points, 1.2)])
    distances = np.linalg.norm(positions[None] - tags[:, None], axis=2)
    distances += rng.normal(0.0, 0.3, distances.shape)
    distances[1, -1], distances[2, 0], distances[3, n_anchors // 2] = np.nan, np.inf, -0.5
    x_r = np.median(positions, axis=0)
    starts = np.tile(x_r, (n_points, 1))
    starts[0] = positions[0]
    return positions, distances, x_r, starts


def _config(name, n_anchors):
    return {
        "default": SolverConfig(),
        "weights": SolverConfig(weights=tuple(np.linspace(0.05, 0.9, n_anchors))),
        "c0": SolverConfig(c=0.0),
    }[name]


@pytest.mark.parametrize("n_anchors", [3, 4, 7, 8, 9, 16])
@pytest.mark.parametrize("config", ["default", "weights", "c0"])
def test_kernel_is_bit_identical_to_the_row_major_kernel(n_anchors, config):
    positions, distances, x_r, starts = _random_problem(n_anchors)
    config = _config(config, n_anchors)
    result = solve_batch(config, positions, distances, x_r, starts)
    _assert_bit_identical(result, _row_major_reference(config, positions, distances, x_r, starts))
    assert result.failed[1:4].all() and not result.failed[0]
    assert result.iterations[0] > 0


@pytest.mark.parametrize("preset", PRESETS)
def test_kernel_is_bit_identical_to_the_row_major_kernel_on_presets(preset):
    positions, distances, x_r, starts = _preset_problem(preset, 42)
    for config in (SolverConfig(), _WEIGHTED, SolverConfig(c=0.0)):
        result = solve_batch(config, positions, distances, x_r, starts)
        _assert_bit_identical(result, _row_major_reference(config, positions, distances, x_r, starts))


def test_a_point_failing_after_the_nudge_keeps_its_start():
    # Collinear anchors at c = 0: the start sits on anchor 1, is nudged
    # along +z, and the y column of J is then zero, so the point fails.
    collinear = anchor_positions([_anchor(i, float(i), 0.0, 0.0) for i in range(4)])
    distances = np.array([[1.0, 1.0, 1.0, 2.0], [1.5, 0.8, 1.2, 2.1]])
    starts = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    config = SolverConfig(c=0.0)
    result = solve_batch(config, collinear, distances, np.zeros(3), starts)
    _assert_bit_identical(result, _row_major_reference(config, collinear, distances, np.zeros(3), starts))
    assert result.failed.all()
    np.testing.assert_array_equal(result.positions, starts)


@pytest.mark.parametrize("n_anchors", [3, 4, 7, 8, 9, 16])
def test_points_failing_mid_loop_match_the_row_major_kernel(n_anchors):
    # Ranges of 1e100 at c = 0 send the first step ~1e100 m away, where every
    # anchor lies in one direction and J^T J is singular; ranges of 1e154 send
    # it far enough that the distances overflow (not for every layout). A point
    # failing there has taken one step and keeps that step's iterate and norm.
    late = 0
    for config, far in ((SolverConfig(c=0.0), 1e100), (SolverConfig(), 1e154)):
        positions, distances, x_r, starts = _random_problem(n_anchors)
        distances[10:20] = far
        result = solve_batch(config, positions, distances, x_r, starts)
        _assert_bit_identical(result, _row_major_reference(config, positions, distances, x_r, starts))
        mid_loop = result.failed & (result.iterations > 0)
        assert (result.step_norms[mid_loop] > 0.0).all()
        late += mid_loop.sum()
    assert late >= 10


def test_a_small_step_from_a_singular_start_fails_and_does_not_converge():
    # Exact ranges from a start 1e-13 m above four anchors at z = 0, at c = 0:
    # the first step is zero, below delta, but the z pivot fails the rank
    # test. The point leaves failed with its start, not also converged.
    positions = np.array([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0], [9.0, 20.0, 0.0], [0.0, 20.0, 0.0]])
    start = np.array([3.0, 4.0, 1e-13])
    ex, ey, ez = (positions - start).T
    distances = np.sqrt(ex * ex + ey * ey + ez * ez)[None]  # the solver's own ranges at the start
    result = solve_batch(SolverConfig(c=0.0), positions, distances, start, start)
    assert result.failed.tolist() == [True]
    assert result.converged.tolist() == [False]
    assert result.iterations.tolist() == [0]
    assert result.positions.tobytes() == start.tobytes()


@pytest.mark.parametrize("n_anchors", [3, 4, 7, 8, 9, 16])
@pytest.mark.parametrize("config", ["default", "weights", "c0"])
def test_a_shared_start_gives_the_results_of_per_point_starts(n_anchors, config):
    positions, distances, x_r, _ = _random_problem(n_anchors)
    config = _config(config, n_anchors)
    for x0 in (x_r.copy(), positions[1].copy()):  # the second starts on an anchor: the nudge
        given = x0.copy()
        shared = solve_batch(config, positions, distances, x_r, x0)
        each = solve_batch(config, positions, distances, x_r, np.broadcast_to(x0, (len(distances), 3)))
        _assert_bit_identical(shared, dataclasses.asdict(each))
        assert x0.tobytes() == given.tobytes()
        assert shared.iterations.max() > 0


@settings(max_examples=200, deadline=None)
@given(
    rows=arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 33)),
        elements=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    )
)
def test_anchor_sum_adds_in_the_order_of_row_sums(rows):
    # rows is (B, N); the kernel holds its transpose
    with np.errstate(over="ignore", invalid="ignore"):
        assert _anchor_reducer(rows.shape[1])(rows.T.copy()).tobytes() == rows.sum(axis=1).tobytes()


def test_solve_batch_transient_memory_per_point():
    """tracemalloc's peak over one 8,192-point, 4-anchor solve_batch, above what
    was allocated before it, stays under 420 bytes a point (398 measured). The
    (B, N) distances are handed over unnamed, as run_scenario hands its chunk,
    and traced, so that freeing them counts; one more (N, B) float array alive
    at the peak adds 32 bytes a point."""
    scenario = preset_scenario("paper-concrete")
    positions = anchor_positions(list(scenario.anchors))
    x_r, x0 = start_points(scenario.solver, positions)
    rng = np.random.default_rng(0)
    tags = rng.uniform((0.0, 0.0, 1.2), (*scenario.area, 1.2), size=(8192, 3))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        held = [np.linalg.norm(tags[:, None] - positions, axis=2) + rng.normal(0.0, 0.1, (8192, 4))]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = solve_batch(scenario.solver, positions, held.pop(), x_r, x0)  # no *args tuple holds it
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.converged.mean() > 0.9
    assert peak / 8192 < 420, peak / 8192
