"""Parametric models for UWB ranging errors.

Three families cover the link conditions seen in practice: a Gaussian
for line-of-sight and shallow-obstruction links, and two heavy-tailed
shifted families — Burr XII (Singh-Maddala) and log-normal — for hard
non-line-of-sight links. All parameters are in meters except the
dimensionless shapes. The shifted families have support x > mu; their
density and CDF are exactly 0 at and below mu.

Sampling is inverse-transform only: one uniform draw maps to one
sample, which keeps stream accounting in the simulator deterministic
and auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import ParameterError
from .randomness import RandomStream

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Acklam's rational approximation to the standard normal quantile,
# accurate to ~1.15e-9 before refinement.
_ACKLAM_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_LOW = 0.02425


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * erfc(-x / _SQRT2)


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile: Acklam's approximation plus one Newton step."""
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    u = np.asarray(u, dtype=float)
    x = np.empty_like(u)

    central = (u >= _ACKLAM_LOW) & (u <= 1.0 - _ACKLAM_LOW)
    q = u[central] - 0.5
    r = q * q
    num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    x[central] = num * q / den

    low = u < _ACKLAM_LOW
    q = np.sqrt(-2.0 * np.log(u[low]))
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    x[low] = num / den

    high = u > 1.0 - _ACKLAM_LOW
    q = np.sqrt(-2.0 * np.log(1.0 - u[high]))
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    x[high] = -num / den

    err = _norm_cdf(x) - u
    x -= err * _SQRT2PI * np.exp(0.5 * x * x)
    return x


def _check_unit_interval(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ParameterError("quantile probability must lie strictly in (0, 1)")
    return u


def _scalar_ok(x, out):
    return float(out) if np.ndim(x) == 0 else out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


class _InverseTransform:
    """The one sampling path: a uniform draw through the family's quantile."""

    def sample(self, stream: RandomStream, n: int | None = None):
        if n is None:
            return self.quantile(stream.uniform())
        return self.quantile(stream.uniforms(n))


@dataclass(frozen=True)
class Gaussian(_InverseTransform):
    """Gaussian error model: f(x) = exp(-((x-mu)/sigma)^2 / 2) / (sigma*sqrt(2*pi))."""

    mu: float  # mean, meters
    sigma: float  # standard deviation, meters

    family = "gaussian"

    def __post_init__(self):
        _require(math.isfinite(self.mu), "gaussian mu must be finite")
        _require(math.isfinite(self.sigma) and self.sigma > 0, "gaussian sigma must be > 0")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return _scalar_ok(x, np.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI))

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return _scalar_ok(x, _norm_cdf(z))

    def quantile(self, u):
        u_arr = _check_unit_interval(u)
        return _scalar_ok(u, self.mu + self.sigma * _norm_ppf(u_arr))


@dataclass(frozen=True)
class BurrXII(_InverseTransform):
    """Shifted Burr XII (Singh-Maddala) error model.

    With z = (x - mu)/sigma > 0:
        f(x) = (c*d/sigma) * z^(c-1) / (1 + z^c)^(d+1)
        F(x) = 1 - (1 + z^c)^(-d)
    and f(x) = F(x) = 0 for x <= mu.
    """

    c: float  # first shape, dimensionless
    d: float  # second shape, dimensionless
    mu: float  # location, meters
    sigma: float  # scale, meters

    family = "burr12"

    def __post_init__(self):
        _require(math.isfinite(self.c) and self.c > 0, "burr12 c must be > 0")
        _require(math.isfinite(self.d) and self.d > 0, "burr12 d must be > 0")
        _require(math.isfinite(self.mu), "burr12 mu must be finite")
        _require(math.isfinite(self.sigma) and self.sigma > 0, "burr12 sigma must be > 0")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        out = np.zeros_like(z)
        pos = z > 0.0
        # log-space evaluation keeps z^c from overflowing in the far tail
        with np.errstate(divide="ignore"):
            log_z = np.log(z[pos])
        log_pdf = (
            math.log(self.c) + math.log(self.d) - math.log(self.sigma)
            + (self.c - 1.0) * log_z
            - (self.d + 1.0) * np.logaddexp(0.0, self.c * log_z)
        )
        out[pos] = np.exp(log_pdf)
        return _scalar_ok(x, out)

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        out = np.zeros_like(z)
        pos = z > 0.0
        with np.errstate(divide="ignore"):
            log_z = np.log(z[pos])
        out[pos] = -np.expm1(-self.d * np.logaddexp(0.0, self.c * log_z))
        return _scalar_ok(x, out)

    def quantile(self, u):
        u_arr = _check_unit_interval(u)
        z = np.expm1(-np.log1p(-u_arr) / self.d) ** (1.0 / self.c)
        return _scalar_ok(u, self.mu + self.sigma * z)


@dataclass(frozen=True)
class LogNormal(_InverseTransform):
    """Shifted log-normal error model.

    With z = (x - mu)/sigma > 0:
        f(x) = exp(-ln(z)^2 / (2 s^2)) / (s * (x - mu) * sqrt(2*pi))
    and f(x) = F(x) = 0 for x <= mu.
    """

    s: float  # shape, dimensionless
    mu: float  # location, meters
    sigma: float  # scale, meters

    family = "lognormal"

    def __post_init__(self):
        _require(math.isfinite(self.s) and self.s > 0, "lognormal s must be > 0")
        _require(math.isfinite(self.mu), "lognormal mu must be finite")
        _require(math.isfinite(self.sigma) and self.sigma > 0, "lognormal sigma must be > 0")

    def pdf(self, x):
        shifted = np.asarray(x, dtype=float) - self.mu
        out = np.zeros_like(shifted)
        pos = shifted > 0.0
        log_z = np.log(shifted[pos] / self.sigma)
        out[pos] = np.exp(-0.5 * (log_z / self.s) ** 2) / (self.s * shifted[pos] * _SQRT2PI)
        return _scalar_ok(x, out)

    def cdf(self, x):
        shifted = np.asarray(x, dtype=float) - self.mu
        out = np.zeros_like(shifted)
        pos = shifted > 0.0
        out[pos] = _norm_cdf(np.log(shifted[pos] / self.sigma) / self.s)
        return _scalar_ok(x, out)

    def quantile(self, u):
        u_arr = _check_unit_interval(u)
        return _scalar_ok(u, self.mu + self.sigma * np.exp(self.s * _norm_ppf(u_arr)))


ErrorDistribution = Gaussian | BurrXII | LogNormal

FAMILIES = ("gaussian", "burr12", "lognormal")

_PARAM_NAMES = {
    "gaussian": ("mu", "sigma"),
    "burr12": ("c", "d", "mu", "sigma"),
    "lognormal": ("s", "mu", "sigma"),
}
_CLASSES = {"gaussian": Gaussian, "burr12": BurrXII, "lognormal": LogNormal}


def to_dict(dist: ErrorDistribution) -> dict:
    """Serialize to {"family": ..., "params": {...}} with exact field names."""
    params = {name: getattr(dist, name) for name in _PARAM_NAMES[dist.family]}
    return {"family": dist.family, "params": params}


def from_dict(spec: dict) -> ErrorDistribution:
    """Build a distribution from its serialized form; validates names strictly."""
    try:
        family, params = spec["family"], spec["params"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"distribution spec needs 'family' and 'params': {spec!r}") from exc
    if not isinstance(family, str) or family not in _CLASSES:
        raise ParameterError(f"unknown distribution family {family!r}; expected one of {FAMILIES}")
    if not isinstance(params, dict):
        raise ParameterError(f"distribution 'params' must be a JSON object, got {params!r}")
    expected = set(_PARAM_NAMES[family])
    if set(params) != expected:
        raise ParameterError(
            f"{family} parameters must be exactly {sorted(expected)}, got {sorted(params)}"
        )
    values = {}
    for name, value in params.items():
        try:
            values[name] = float(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{family} params.{name} is not a number: {value!r}") from exc
    return _CLASSES[family](**values)
