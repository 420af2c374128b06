import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from uwb_locsim import (
    CalibrationCoefficients,
    DataError,
    ParameterError,
    TwrTiming,
    calibrate_apply,
    calibrate_fit,
    diversity_select,
    drift_error,
    propagation_time,
)
from uwb_locsim.ranging import DIVERSITY_STRATEGIES

# high-precision evaluation of the drift formula for
# e1 = 20 ppm, e2 = -20 ppm, t_proc = 300 us, t_p = 33.356 ns
DRIFT_REFERENCE_S = 6.00066712e-9


def test_propagation_time_ten_meters():
    t = TwrTiming(t_round=300.0667e-6, t_proc=300e-6)
    assert propagation_time(t) == pytest.approx(33.35e-9, rel=1e-10)


def test_propagation_time_zero():
    t = TwrTiming(t_round=250e-6, t_proc=250e-6)
    assert propagation_time(t) == 0.0


def test_propagation_time_algebraic_inverse():
    for t_p in (1e-9, 33.35e-9, 700e-9):
        t = TwrTiming(t_round=2 * t_p + 300e-6, t_proc=300e-6)
        assert propagation_time(t) == pytest.approx(t_p, rel=1e-12)


def test_drift_error_reference_value():
    t = TwrTiming(t_round=400e-6, t_proc=300e-6, e1=20e-6, e2=-20e-6)
    assert drift_error(t, 33.356e-9) == pytest.approx(DRIFT_REFERENCE_S, abs=1e-13)


def test_drift_error_cancellations():
    t = TwrTiming(t_round=400e-6, t_proc=300e-6, e1=5e-6, e2=5e-6)
    assert drift_error(t, 0.0) == 0.0
    assert drift_error(t, 50e-9) == pytest.approx(5e-6 * 50e-9, rel=1e-12)


def test_timing_validation():
    with pytest.raises(ParameterError):
        TwrTiming(t_round=1e-6, t_proc=2e-6)
    with pytest.raises(ParameterError):
        TwrTiming(t_round=2e-6, t_proc=1e-6, e1=2e-3)
    with pytest.raises(ParameterError):
        drift_error(TwrTiming(2e-6, 1e-6), -1.0)


def test_calibrate_fit_exact_line():
    coef = calibrate_fit([(2, 2.09), (5, 5.15), (10, 10.25)])
    assert coef.p0 == pytest.approx(1.02, abs=1e-12)
    assert coef.p1 == pytest.approx(0.05, abs=1e-12)


def test_calibrate_fit_identity():
    coef = calibrate_fit([(2, 2), (5, 5), (10, 10)])
    assert coef.p0 == pytest.approx(1.0, abs=1e-12)
    assert coef.p1 == pytest.approx(0.0, abs=1e-12)


def test_calibrate_fit_with_noise_recovers_identity():
    rng = np.random.default_rng(99)
    true = np.repeat([2.0, 5.0, 10.0], 1000)
    measured = true + rng.normal(0.0, 0.0654, true.size)
    coef = calibrate_fit(list(zip(true, measured)))
    assert abs(coef.p0 - 1.0) < 0.01
    assert abs(coef.p1) < 0.02


def test_calibrate_fit_residuals_sum_to_zero():
    rng = np.random.default_rng(4)
    true = rng.uniform(1, 12, 500)
    measured = 1.31 * true - 0.2 + rng.normal(0, 0.05, 500)
    coef = calibrate_fit(list(zip(true, measured)))
    residuals = measured - (coef.p0 * true + coef.p1)
    assert abs(residuals.sum()) < 1e-9 * np.abs(measured).sum()


def test_calibrate_fit_degenerate():
    with pytest.raises(DataError):
        calibrate_fit([(5.0, 5.1), (5.0, 5.2), (5.0, 4.9)])
    with pytest.raises(DataError):
        calibrate_fit([(5.0, 5.1)])


def test_calibrate_apply_inverse():
    coef = CalibrationCoefficients(1.02, 0.05)
    assert calibrate_apply(coef, 10.25) == pytest.approx(10.0, abs=1e-12)
    assert calibrate_apply(CalibrationCoefficients(1.0, 0.0), 7.7) == 7.7


def test_calibration_round_trip_on_exact_data():
    pairs = [(2.0, 2.09), (5.0, 5.15), (10.0, 10.25)]
    coef = calibrate_fit(pairs)
    for true, measured in pairs:
        assert calibrate_apply(coef, measured) == pytest.approx(true, abs=1e-10)


def test_calibration_requires_positive_slope():
    with pytest.raises(ParameterError):
        CalibrationCoefficients(0.0, 0.1)


def test_diversity_select_examples():
    values = [0.46, 0.18, 0.30]
    assert diversity_select(values, "min") == 0.18
    assert diversity_select(values, "mean") == pytest.approx(0.31333333333333335)
    assert diversity_select(values, "median") == 0.30


def test_diversity_median_lower_middle_for_even_counts():
    assert diversity_select([4.0, 1.0, 3.0, 2.0], "median") == 2.0
    assert diversity_select([4.0, 1.0], "median") == 1.0


@given(
    values=st.integers(1, 5).flatmap(lambda channels: arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, max_side=4).map(lambda shape: shape + (channels,)),
        elements=st.floats(-1e3, 1e3),
    )),
    strategy=st.sampled_from(DIVERSITY_STRATEGIES),
)
def test_diversity_select_along_axis_equals_each_row(values, strategy):
    # numpy's own reduction of each row is the reference
    reduce_row = {"min": np.min, "mean": np.mean, "median": lambda row: np.sort(row)[(len(row) - 1) // 2]}
    rows = values.reshape(-1, values.shape[-1])
    expected = np.array([reduce_row[strategy](row) for row in rows], dtype=float)
    selected = diversity_select(values, strategy, axis=-1)
    assert selected.shape == values.shape[:-1]
    assert np.array_equal(selected.ravel().view(np.int64), expected.view(np.int64))  # bit for bit


def test_diversity_select_along_an_axis_returns_a_new_array():
    values = np.array([[[0.4], [0.2]], [[0.1], [0.3]]])
    for strategy in DIVERSITY_STRATEGIES:
        selected = diversity_select(values, strategy, axis=-1)
        selected[...] = 7.0
        assert values.tolist() == [[[0.4], [0.2]], [[0.1], [0.3]]], strategy


def test_diversity_select_errors():
    with pytest.raises(DataError):
        diversity_select([], "min")
    with pytest.raises(ParameterError):
        diversity_select([1.0], "mode")


def test_diversity_order_statistics():
    rng = np.random.default_rng(17)
    for _ in range(200):
        values = rng.normal(0.3, 0.2, rng.integers(1, 8))
        low = diversity_select(values, "min")
        assert low <= diversity_select(values, "mean")
        assert low <= diversity_select(values, "median")


def test_calibration_commutes_with_min_select():
    rng = np.random.default_rng(18)
    coef = CalibrationCoefficients(1.07, -0.12)
    for _ in range(100):
        values = rng.uniform(0.5, 12.0, 5)
        direct = calibrate_apply(coef, diversity_select(values, "min"))
        elementwise = min(calibrate_apply(coef, v) for v in values)
        assert direct == pytest.approx(elementwise, abs=1e-12)
