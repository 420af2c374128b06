import math

import pytest

from uwb_locsim import BUILTIN_PROFILES, ParameterError, PowerProfile, average_power, energy_per_sstwr
from uwb_locsim.energy import profile_from_dict


def test_dw1000_energy_per_ranging():
    energy = energy_per_sstwr(BUILTIN_PROFILES["dw1000"])
    assert energy == pytest.approx((237.6 + 392.7) * 287e-3, rel=1e-12)
    assert abs(energy - 180.0) / 180.0 < 0.01  # close to the nominal 180 uJ figure


def test_3db_energy_per_ranging():
    bare = PowerProfile("3db-bare", 20.7, 40.7, 6.6, 6.25e-4, 400.0)
    assert energy_per_sstwr(bare) == pytest.approx(24.56, abs=1e-9)
    assert energy_per_sstwr(BUILTIN_PROFILES["3db"]) == pytest.approx(28.0, abs=1e-9)


def test_zero_profile_zero_energy():
    silent = PowerProfile("off", 0.0, 0.0, 0.0, 0.0, 100.0)
    assert energy_per_sstwr(silent) == 0.0


def test_energy_linear_in_packet_time_and_powers():
    base = PowerProfile("x", 10.0, 30.0, 1.0, 0.0, 200.0)
    doubled_t = PowerProfile("x", 10.0, 30.0, 1.0, 0.0, 400.0)
    doubled_p = PowerProfile("x", 20.0, 60.0, 1.0, 0.0, 200.0)
    assert energy_per_sstwr(doubled_t) == pytest.approx(2 * energy_per_sstwr(base))
    assert energy_per_sstwr(doubled_p) == pytest.approx(2 * energy_per_sstwr(base))


def test_long_range_packet_energy_ratio():
    short = BUILTIN_PROFILES["dw1000"]
    long_range = PowerProfile("dw1000-lr", short.p_tx, short.p_rx, short.p_idle,
                              short.p_sleep, 3487.0)
    ratio = energy_per_sstwr(long_range) / energy_per_sstwr(short)
    assert 10.0 <= ratio <= 13.0


def test_average_power_sleep_asymptote():
    profile = BUILTIN_PROFILES["dw1000"]
    nearly_idle = average_power(profile, 1e6, sleep_between=True)
    assert nearly_idle == pytest.approx(profile.p_sleep, rel=1e-2)


def test_average_power_3db_one_second_idle():
    value = average_power(BUILTIN_PROFILES["3db"], 1.0, sleep_between=False)
    expected = (28.0e-6 + 6.6e-3 * (1.0 - 800e-6)) / 1.0 * 1e3
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(6.63, abs=0.01)


def test_average_power_monotone_in_period():
    profile = BUILTIN_PROFILES["3db"]
    periods = [0.01, 0.1, 1.0, 10.0, 100.0]
    values = [average_power(profile, p, sleep_between=True) for p in periods]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_average_power_period_too_short():
    profile = BUILTIN_PROFILES["dw1000"]
    with pytest.raises(ParameterError):
        average_power(profile, profile.t_packet * 1e-6)


def test_profile_validation():
    with pytest.raises(ParameterError):
        PowerProfile("bad", -1.0, 1.0, 1.0, 0.0, 100.0)
    with pytest.raises(ParameterError):
        PowerProfile("bad", 1.0, 1.0, 1.0, 0.0, 0.0)
    good = BUILTIN_PROFILES["3db"].to_dict()
    for field in ("p_tx", "p_rx", "p_idle", "p_sleep", "t_packet", "e_transition"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match=field):
                PowerProfile(**{**good, field: value})


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf])
def test_average_power_rejects_a_non_finite_period(period):
    with pytest.raises(ParameterError, match="finite"):
        average_power(BUILTIN_PROFILES["dw1000"], period)


def test_profile_from_dict_round_trip():
    spec = BUILTIN_PROFILES["3db"].to_dict()
    assert profile_from_dict(spec) == BUILTIN_PROFILES["3db"]
    with pytest.raises(ParameterError):
        profile_from_dict({"name": "x", "p_tx": 1.0})
