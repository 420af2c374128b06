"""Power-state profiles and energy accounting per distance measurement.

A profile lumps state-transition overhead into a single microjoule
constant per SS-TWR instead of modeling current ramps. Profiles are
data, not code: the built-ins can be replaced by profiles loaded from
structured text files with the same fields.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class PowerProfile:
    """Per-state power levels and packet timing for one device class."""

    name: str
    p_tx: float  # transmit power, milliwatts
    p_rx: float  # receive power, milliwatts
    p_idle: float  # idle power, milliwatts
    p_sleep: float  # deep-sleep power, milliwatts
    t_packet: float  # over-the-air packet duration, microseconds
    e_transition: float = 0.0  # lumped per-SS-TWR transition overhead, microjoules

    def __post_init__(self):
        for field in ("p_tx", "p_rx", "p_idle", "p_sleep", "e_transition"):
            if not 0.0 <= getattr(self, field) < math.inf:  # False for NaN
                raise ParameterError(f"{field} must be finite and >= 0, got {getattr(self, field)}")
        if not 0.0 < self.t_packet < math.inf:
            raise ParameterError(f"t_packet must be finite and > 0, got {self.t_packet}")

    def to_dict(self) -> dict:
        return asdict(self)


# Built-in device classes. The 3db transition constant makes one SS-TWR
# cost 28.0 uJ total (24.56 uJ TX+RX plus 3.44 uJ of state transitions).
BUILTIN_PROFILES = {
    "3db": PowerProfile("3db", p_tx=20.7, p_rx=40.7, p_idle=6.6,
                        p_sleep=6.25e-4, t_packet=400.0, e_transition=3.44),
    "dw1000": PowerProfile("dw1000", p_tx=237.6, p_rx=392.7, p_idle=59.4,
                           p_sleep=3.3e-4, t_packet=287.0),
    "dwm1001": PowerProfile("dwm1001", p_tx=297.7, p_rx=507.21, p_idle=47.9,
                            p_sleep=3.9, t_packet=287.0),
}


def profile_from_dict(spec: dict) -> PowerProfile:
    """Build a profile from a mapping mirroring the PowerProfile fields."""
    try:
        return PowerProfile(
            name=str(spec["name"]),
            p_tx=float(spec["p_tx"]),
            p_rx=float(spec["p_rx"]),
            p_idle=float(spec["p_idle"]),
            p_sleep=float(spec["p_sleep"]),
            t_packet=float(spec["t_packet"]),
            e_transition=float(spec.get("e_transition", 0.0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ParameterError(f"invalid power profile spec: {exc}") from exc


def energy_per_sstwr(profile: PowerProfile) -> float:
    """Initiator-side energy for one SS-TWR, microjoules.

    One transmitted and one received packet plus the lumped transition
    overhead: (p_tx + p_rx) * t_packet * 1e-3 + e_transition.
    """
    return (profile.p_tx + profile.p_rx) * profile.t_packet * 1e-3 + profile.e_transition


def average_power(profile: PowerProfile, update_period: float, sleep_between: bool = False) -> float:
    """Mean power at a fixed ranging rate, milliwatts.

    Between exchanges the device rests in idle or deep sleep; the
    update period (seconds) must be finite and exceed the 2-packet air time.
    """
    exchange_s = 2.0 * profile.t_packet * 1e-6
    if not exchange_s < update_period < math.inf:
        raise ParameterError(
            f"update period {update_period} s must be finite and exceed the {exchange_s} s exchange"
        )
    p_rest_w = (profile.p_sleep if sleep_between else profile.p_idle) * 1e-3
    energy_j = energy_per_sstwr(profile) * 1e-6 + p_rest_w * (update_period - exchange_s)
    return energy_j / update_period * 1e3
