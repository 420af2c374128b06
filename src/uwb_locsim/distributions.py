"""Parametric models for UWB ranging errors.

Three families cover the link conditions seen in practice: a Gaussian
for line-of-sight and shallow-obstruction links, and two heavy-tailed
shifted families — Burr XII (Singh-Maddala) and log-normal — for hard
non-line-of-sight links. All parameters are in meters except the
dimensionless shapes.

Every family keeps one contract, written once in ``_InverseTransform``:

- A family is a frozen dataclass whose fields are its parameters, in
  order. Each must be finite, and each except the location ``mu`` must
  be > 0; otherwise ParameterError says which (``burr12 c must be > 0``,
  ``gaussian mu must be finite``).
- The shifted families have support x > mu. Their density and CDF are
  evaluated at log z, z = (x - mu)/sigma, and are exactly 0 at and
  below mu.
- ``pdf``, ``cdf`` and ``quantile`` take a scalar or an array and return
  a float for a scalar.
- ``quantile`` takes probabilities strictly inside (0, 1): 0, 1 and NaN
  raise ParameterError, and an empty array gives an empty array.
- Sampling is inverse-transform only: ``sample(stream, n)`` maps the
  stream's next n uniform draws through ``quantile``, one draw per
  sample, which keeps stream accounting in the simulator deterministic
  and auditable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ParameterError
from .randomness import RandomStream

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Wichura's AS241 (PPND16): M. J. Wichura, "Algorithm AS 241: The
# percentage points of the normal distribution", Applied Statistics
# 37(3), 1988. Three rational functions of degree 7/7: in 0.180625 - q^2
# for |q| = |u - 0.5| <= 0.425, and in r - 1.6 or r - 5 for
# r = sqrt(-log(min(u, 1 - u))) up to or beyond 5. Wichura gives a
# relative accuracy of about 1e-16; on cell uniforms and tails down to
# 1e-300 it is within 6 ulp of scipy.special.ndtri.
_AS241_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_AS241_B = (
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_AS241_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_AS241_D = (
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_AS241_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_AS241_F = (
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    # math.erfc element-wise: within 22 ulp of scipy.special.erfc for |x| <= 8
    return 0.5 * np.asarray(np.frompyfunc(math.erfc, 1, 1)(-x / _SQRT2), dtype=float)


def _horner(coefs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """sum(coefs[k] * x**k) by Horner's rule in one buffer: the rounding of
    (((c[n] * x + c[n-1]) * x + ...) * x + c[0]), without a temporary per step."""
    out = coefs[-1] * x
    for coef in coefs[-2:0:-1]:
        out += coef
        out *= x
    out += coefs[0]
    return out


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile by Wichura's AS241 (PPND16).

    The central rational is evaluated on every element, and the tail
    elements, |u - 0.5| > 0.425 (15% of uniform draws), are overwritten:
    the central majority is never gathered or scattered.
    """
    u = np.asarray(u, dtype=float)
    shape, u = u.shape, u.ravel()  # 1-D, so a 0-d input still gives an array to write into
    q = u - 0.5
    r = 0.180625 - q * q
    x = _horner(_AS241_A, r)
    x *= q
    x /= _horner((1.0, *_AS241_B), r)

    tail = np.flatnonzero(~(np.abs(q) <= 0.425))
    ut = u[tail]
    # min(u, 1 - u), not 0.5 - |q|: q has already rounded away a tiny u
    r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
    s = r - 1.6  # r <= 5 unless u or 1 - u is below exp(-25), about 1.4e-11
    z = _horner(_AS241_C, s)
    z /= _horner((1.0, *_AS241_D), s)
    far = ~(r <= 5.0)
    s = r[far] - 5.0
    z[far] = _horner(_AS241_E, s) / _horner((1.0, *_AS241_F), s)
    x[tail] = np.copysign(z, q[tail])
    return x.reshape(shape)


def _check_unit_interval(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    # NaN fails both comparisons, since min and max propagate it
    if u.size and not (u.min() > 0.0 and u.max() < 1.0):
        raise ParameterError("quantile probability must lie strictly in (0, 1)")
    return u


def _scalar_ok(x, out):
    return float(out) if np.ndim(x) == 0 else out


class _InverseTransform:
    """The family contract: every family's parameter rule and sampling path,
    and the shifted families' support rule."""

    def __post_init__(self):
        for f in fields(self):
            value, positive = getattr(self, f.name), f.name != "mu"
            if not math.isfinite(value) or (positive and value <= 0):
                raise ParameterError(f"{self.family} {f.name} must be {'> 0' if positive else 'finite'}")

    def _on_support(self, x, formula):
        """``formula(log z, x - mu)`` where z = (x - mu)/sigma > 0, and exactly 0 elsewhere."""
        shifted = np.asarray(x, dtype=float) - self.mu
        z = shifted / self.sigma
        out = np.zeros_like(z)
        pos = z > 0.0
        out[pos] = formula(np.log(z[pos]), shifted[pos])
        return _scalar_ok(x, out)

    def sample(self, stream: RandomStream, n: int) -> np.ndarray:
        return self.quantile(stream.uniforms(n))


@dataclass(frozen=True)
class Gaussian(_InverseTransform):
    """Gaussian error model: f(x) = exp(-((x-mu)/sigma)^2 / 2) / (sigma*sqrt(2*pi))."""

    mu: float  # mean, meters
    sigma: float  # standard deviation, meters

    family = "gaussian"

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
    """

    c: float  # first shape, dimensionless
    d: float  # second shape, dimensionless
    mu: float  # location, meters
    sigma: float  # scale, meters

    family = "burr12"

    def pdf(self, x):
        # log-space evaluation keeps z^c from overflowing in the far tail
        log_scale = math.log(self.c) + math.log(self.d) - math.log(self.sigma)
        return self._on_support(x, lambda log_z, _: np.exp(
            log_scale + (self.c - 1.0) * log_z - (self.d + 1.0) * np.logaddexp(0.0, self.c * log_z)))

    def cdf(self, x):
        return self._on_support(x, lambda log_z, _: -np.expm1(-self.d * np.logaddexp(0.0, self.c * log_z)))

    def quantile(self, u):
        u_arr = _check_unit_interval(u)
        z = np.expm1(-np.log1p(-u_arr) / self.d) ** (1.0 / self.c)
        return _scalar_ok(u, self.mu + self.sigma * z)


@dataclass(frozen=True)
class LogNormal(_InverseTransform):
    """Shifted log-normal error model.

    With z = (x - mu)/sigma > 0:
        f(x) = exp(-ln(z)^2 / (2 s^2)) / (s * (x - mu) * sqrt(2*pi))
        F(x) = Phi(ln(z) / s)
    """

    s: float  # shape, dimensionless
    mu: float  # location, meters
    sigma: float  # scale, meters

    family = "lognormal"

    def pdf(self, x):
        return self._on_support(x, lambda log_z, shifted: np.exp(-0.5 * (log_z / self.s) ** 2)
                                / (self.s * shifted * _SQRT2PI))

    def cdf(self, x):
        return self._on_support(x, lambda log_z, _: _norm_cdf(log_z / self.s))

    def quantile(self, u):
        u_arr = _check_unit_interval(u)
        return _scalar_ok(u, self.mu + self.sigma * np.exp(self.s * _norm_ppf(u_arr)))


ErrorDistribution = Gaussian | BurrXII | LogNormal

# Family name -> class; a family's parameters are its dataclass fields, in order.
FAMILIES = {cls.family: cls for cls in (Gaussian, BurrXII, LogNormal)}


def to_dict(dist: ErrorDistribution) -> dict:
    """Serialize to {"family": ..., "params": {...}} with exact field names;
    ``scenarios.read_model`` reads it back."""
    return {"family": dist.family, "params": asdict(dist)}
