"""Maximum-likelihood fitting of error models and SSE-based selection.

The Gaussian MLE is closed-form: the sample mean and the population
standard deviation. The shifted families are fitted by profile
likelihood over t = log(mu_bound - mu), which keeps the location mu
strictly below the sample minimum, with each parameter that has a
closed-form MLE given the others profiled out:

- log-normal: sigma = exp(mean(y)) and s = std(y), y = log(x - mu),
  leaving a 1-D search over t;
- Burr XII: d = n / sum(log(1 + z^c)) for fixed (mu, sigma, c) (Q. Shao,
  "Notes on maximum likelihood estimation for the three-parameter Burr
  XII distribution", CSDA 45, 2004), leaving a 3-D search over
  (t, log sigma, log c). By the envelope theorem the profile's gradient
  is the full NLL's gradient at that d.

Each profile gets one BFGS run with its analytic gradient from a
deterministic start (mu0 = min(x) - 5% of the range; Burr XII starts
from the log-normal fit), so a fit is a pure function of its data. BFGS
often ends on a line-search precision limit at the optimum, so a fit
counts as converged when max|gradient of the profile NLL| <= 1e-6 n,
not by the optimizer's flag. On some samples the Burr XII likelihood
keeps rising as c grows without bound; that fit raises ConvergenceError
naming the final c and gradient.

Model selection scores each fitted density against the empirical PDF
with a sum of squared errors at the histogram bin centers and ranks
families by ascending SSE; ties inside 1e-12 go to the family with
fewer parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import BurrXII, ErrorDistribution, Gaussian, LogNormal
from .errors import ConvergenceError, DataError, ParameterError

_GRAD_TOL = 1e-6  # converged when max|gradient of the profile NLL| <= this * n
_LOCATION_MARGIN = 1e-6  # meters kept between mu and min(data)
_SSE_TIE = 1e-12

_N_PARAMS = {"gaussian": 2, "lognormal": 3, "burr12": 4}
_LOG_SQRT2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class EmpiricalPdf:
    """Histogram density estimate on equal-width bins."""

    bin_edges: np.ndarray  # length B+1, meters, strictly increasing
    densities: np.ndarray  # length B, 1/meters

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass(frozen=True)
class FitResult:
    family: str
    params: ErrorDistribution
    nll: float  # negative log-likelihood
    sse: float  # squared-error score vs the empirical PDF, 1/meters^2
    converged: bool
    iterations: int  # NLL+gradient evaluations used; 0 for the Gaussian
    error: str | None = None  # set when the fit did not converge


def empirical_pdf(data, bins: int) -> EmpiricalPdf:
    """Equal-width histogram spanning [min(data), max(data)], density-normalized."""
    data = np.asarray(data, dtype=float)
    if bins < 1:
        raise ParameterError("bins must be >= 1")
    if data.size < 2:
        raise DataError("need at least two data points for a histogram")
    if np.ptp(data) == 0.0:
        raise DataError("degenerate data: all values are equal")
    densities, edges = np.histogram(data, bins=bins, density=True)
    return EmpiricalPdf(bin_edges=edges, densities=densities)


def minimize(func, theta0, **kwargs):
    """``scipy.optimize.minimize``, imported on first call so that
    ``import uwb_locsim`` and a simulation load numpy only."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(func, theta0, **kwargs)


def _guarded(profile):
    """``profile`` returning an infinite NLL, which BFGS's line search backs
    off from, wherever its arithmetic leaves the floats."""

    def guarded(theta, data, mu_bound):
        try:
            with np.errstate(all="ignore"):
                nll, grad = profile(theta, data, mu_bound)
            if math.isfinite(nll) and np.isfinite(grad).all():
                return nll, grad
        except (ArithmeticError, ValueError):  # math.exp overflow, math.log(0), n / 0
            pass
        return math.inf, np.zeros(len(theta))

    return guarded


def _log_shifted(t, data, mu_bound):
    """log(x - mu) and 1/(x - mu) for the location mu = mu_bound - e^t."""
    shifted = data - (mu_bound - math.exp(t))
    return np.log(shifted), 1.0 / shifted


@_guarded
def _lognormal_profile(theta, data, mu_bound):
    """Log-normal NLL in t with sigma and s at their MLEs, and its derivative."""
    n = data.size
    y, w = _log_shifted(theta[0], data, mu_bound)
    dev = y - y.mean()
    var = float(dev @ dev) / n
    nll = 0.5 * n * (math.log(var) + 1.0) + n * _LOG_SQRT2PI + y.sum()
    return float(nll), np.array([math.exp(theta[0]) * (float(dev @ w) / var + w.sum())])


def _burr12_terms(theta, data, mu_bound):
    """c, the MLE of d, sigma, log z, 1/(x - mu) and log(1 + z^c) at theta."""
    y, w = _log_shifted(theta[0], data, mu_bound)
    log_z = y - theta[1]
    c, sigma = math.exp(theta[2]), math.exp(theta[1])
    tail = np.logaddexp(0.0, c * log_z)
    return c, data.size / float(tail.sum()), sigma, log_z, w, tail


@_guarded
def _burr12_profile(theta, data, mu_bound):
    """Burr XII NLL in (t, log sigma, log c) with d at its MLE, and its gradient."""
    t, log_sigma, log_c = theta
    n = data.size
    c, d, _, log_z, w, tail = _burr12_terms(theta, data, mu_bound)
    p = np.exp(c * log_z - tail)  # z^c / (1 + z^c)
    k = (d + 1.0) * c
    sum_log_z = log_z.sum()
    nll = n * (log_sigma - log_c - math.log(d) + 1.0) - (c - 1.0) * sum_log_z + tail.sum()
    grad = np.array([
        math.exp(t) * (k * float(w @ p) - (c - 1.0) * w.sum()),
        n * c - k * p.sum(),
        k * float(log_z @ p) - c * sum_log_z - n,
    ])
    return float(nll), grad


def _fit_shifted(family, data, mu_bound):
    """One BFGS run on the log-normal profile and, for Burr XII, one more
    from the log-normal fit; returns the fit, NLL, max|gradient| and
    evaluation count."""
    mu0 = float(data[0]) - 0.05 * float(data[-1] - data[0])  # data arrives sorted
    t0 = math.log(max(mu_bound - mu0, _LOCATION_MARGIN))
    result = minimize(_lognormal_profile, [t0], args=(data, mu_bound), method="BFGS", jac=True)
    y, _ = _log_shifted(result.x[0], data, mu_bound)
    mu = mu_bound - math.exp(result.x[0])
    dist = LogNormal(s=float(y.std()), mu=mu, sigma=math.exp(y.mean()))
    evals = result.nfev
    if family == "burr12":
        theta0 = [result.x[0], math.log(dist.sigma), math.log(1.5 / dist.s)]
        result = minimize(_burr12_profile, theta0, args=(data, mu_bound), method="BFGS", jac=True)
        c, d, sigma, *_ = _burr12_terms(result.x, data, mu_bound)
        dist = BurrXII(c=c, d=d, mu=mu_bound - math.exp(result.x[0]), sigma=sigma)
        evals += result.nfev
    return dist, float(result.fun), float(np.abs(result.jac).max()), evals


def sse_against(epdf: EmpiricalPdf, dist: ErrorDistribution) -> float:
    """Sum of squared density errors at the histogram bin centers."""
    diff = dist.pdf(epdf.bin_centers) - epdf.densities
    return float(diff @ diff)


def fit_mle(family: str, data, bins: int = 200) -> FitResult:
    """Maximum-likelihood fit of one family; deterministic for fixed data.

    Raises ConvergenceError (carrying the best-so-far FitResult) when
    the profile NLL's gradient is not within tolerance of zero.
    """
    if family not in _N_PARAMS:
        raise ParameterError(f"unknown family {family!r}; expected one of {sorted(_N_PARAMS)}")
    data = np.sort(np.asarray(data, dtype=float).ravel())
    if data.size < 2:
        raise DataError("need at least two data points to fit")
    span = float(data[-1]) - float(data[0])  # NaN sorts last; an overflowing span is inf
    if not math.isfinite(span):
        raise DataError(f"samples must be finite with a finite span, got {data[0]} to {data[-1]}")
    if span == 0.0:
        raise DataError("degenerate data: all values are equal, no scale can be fitted")

    if family == "gaussian":
        dist = Gaussian(mu=float(data.mean()), sigma=float(data.std()))
        nll, grad, evals = data.size * (math.log(dist.sigma) + _LOG_SQRT2PI + 0.5), 0.0, 0
    else:
        mu_bound = float(data[0]) - _LOCATION_MARGIN
        dist, nll, grad, evals = _fit_shifted(family, data, mu_bound)

    converged = math.isfinite(nll) and grad <= _GRAD_TOL * data.size
    fit = FitResult(
        family=family,
        params=dist,
        nll=nll,
        sse=sse_against(empirical_pdf(data, bins), dist),
        converged=converged,
        iterations=evals,
    )
    if not converged:
        shape = f"c = {dist.c:.4g}, " if family == "burr12" else ""
        raise ConvergenceError(
            f"{family} fit stopped after {evals} evaluations with {shape}"
            f"max|gradient| = {grad:.3g} > {_GRAD_TOL * data.size:.3g}",
            best=fit,
        )
    return fit


def _rank_order(a: FitResult, b: FitResult) -> int:
    if (a.error is None) != (b.error is None):
        return -1 if a.error is None else 1
    if abs(a.sse - b.sse) <= _SSE_TIE:
        return _N_PARAMS[a.family] - _N_PARAMS[b.family]
    return -1 if a.sse < b.sse else 1


def select_best_model(data, families, bins: int = 200) -> list[FitResult]:
    """Fit every family and rank by SSE against one shared empirical PDF
    (each fit_mle scores against the histogram of the same data and bins).

    Non-finite samples raise DataError before any fit. Families whose fit
    fails are ranked last with the failure recorded on the result instead
    of aborting the ranking.
    """
    families = list(families)
    if not families:
        raise ParameterError("at least one family is required")
    results = []
    for family in families:
        try:
            results.append(fit_mle(family, data, bins=bins))
        except ConvergenceError as exc:
            results.append(replace(exc.best, error=str(exc)))
    return sorted(results, key=functools.cmp_to_key(_rank_order))
