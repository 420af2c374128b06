import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from uwb_locsim import (
    DataError,
    ParameterError,
    TwrTiming,
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


def test_a_flat_min_has_the_bits_of_the_array_min():
    # 100,000 values whose minimum is held as both +0.0 and -0.0: which zero
    # comes back depends on the reduction order, and must be arr.min()'s
    values = np.random.default_rng(11).uniform(0.0, 5.0, 100_000)
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        values[::997], values[::1999] = first, second
        selected = diversity_select(values, "min")
        assert isinstance(selected, float)
        assert np.float64(selected).tobytes() == values.min().tobytes(), (first, second)


def test_an_axis_min_on_a_study_chunk_has_the_bits_of_the_channel_fold():
    # (cells, anchors, channels) as the simulator passes them; the reference
    # folds np.minimum over the channel slices one by one
    rng = np.random.default_rng(12)
    values = rng.normal(0.1, 0.2, (4096, 4, 3))
    values[rng.random(values.shape) < 0.05] = 0.0
    values[rng.random(values.shape) < 0.05] = -0.0
    values[rng.random(values.shape) < 0.01] = np.nan
    for axis in range(-3, 3):
        channels = np.moveaxis(values, axis, 0)
        expected = functools.reduce(np.minimum, channels[1:], channels[0].copy())
        selected = diversity_select(values, "min", axis=axis)
        assert selected.shape == expected.shape
        assert selected.tobytes() == expected.tobytes(), axis


def test_an_axis_min_over_one_row_has_the_bits_of_the_row_min():
    # with one element outside the channel axis numpy reduces the channels as
    # one contiguous row, as arr.min() does: from nine channels on, a zero
    # held with both signs may come back with the other sign than the fold's
    rng = np.random.default_rng(13)
    for n_channels in range(9, 17):
        for _ in range(50):
            row = rng.choice([0.0, -0.0, 1.0], n_channels)
            for values, axis in ((row, 0), (row[None, :], -1), (row[:, None], 0), (row[None, :, None], 1)):
                selected = diversity_select(values, "min", axis=axis)
                assert selected.size == 1
                assert selected.tobytes() == row.min().tobytes(), (n_channels, axis)


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


def test_diversity_select_commutes_with_an_increasing_affine_map():
    # for a > 0, fl(a * x + b) never reverses an order, so the selected value
    # of the mapped channels is the mapped selected value, bit for bit
    rng = np.random.default_rng(18)
    for _ in range(100):
        values = rng.uniform(0.5, 12.0, rng.integers(1, 8))
        a, b = rng.uniform(1e-3, 1e3), rng.uniform(-1e3, 1e3)
        for strategy in ("min", "median"):
            mapped = diversity_select(a * values + b, strategy)
            expected = a * diversity_select(values, strategy) + b
            assert np.float64(mapped).tobytes() == np.float64(expected).tobytes(), (strategy, a, b)
