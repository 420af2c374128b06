"""Maximum-likelihood fitting of error models and SSE-based selection.

Fits run a Nelder-Mead simplex on an unconstrained reparameterization:
scale and shape parameters are optimized in log space, and the
location of the shifted families is kept strictly below the sample
minimum through a shift transform, so the likelihood is finite
everywhere the optimizer can reach. Initialization is deterministic
(moment-chained), so a fit is a pure function of its input data.

The Burr XII likelihood has two well-separated local basins on
heavy-tailed data: a light-tail one near d = 1 and a heavy-tail one at
small d. A single moment-chained start reliably lands in only one of
them, so the Burr fit runs the simplex from two deterministic starts
(d0 = 1 and d0 = 1/4) and keeps the lower negative log-likelihood. A
simplex that spends its whole evaluation budget without collapsing is
restarted once from its endpoint before the fit is declared
unconverged; near an optimum the fresh simplex terminates quickly.

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

_MAX_EVALS = 2000
_NLL_TOL = 1e-10
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

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])


@dataclass(frozen=True)
class FitResult:
    family: str
    params: ErrorDistribution
    nll: float  # negative log-likelihood
    sse: float  # squared-error score vs the empirical PDF, 1/meters^2
    converged: bool
    iterations: int  # objective evaluations used
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


def _gaussian_nll(theta, data):
    mu, log_sigma = theta
    sigma = math.exp(log_sigma)
    z = (data - mu) / sigma
    return data.size * (log_sigma + _LOG_SQRT2PI) + 0.5 * float(z @ z)


def _lognormal_nll(theta, data, mu_bound):
    t_mu, log_sigma, log_s = theta
    mu = mu_bound - math.exp(t_mu)
    sigma, s = math.exp(log_sigma), math.exp(log_s)
    shifted = data - mu
    log_z = np.log(shifted / sigma)
    return float(
        data.size * (log_s + _LOG_SQRT2PI)
        + np.log(shifted).sum()
        + 0.5 * float(log_z @ log_z) / (s * s)
    )


def _burr12_nll(theta, data, mu_bound):
    t_mu, log_sigma, log_c, log_d = theta
    mu = mu_bound - math.exp(t_mu)
    sigma, c, d = math.exp(log_sigma), math.exp(log_c), math.exp(log_d)
    log_z = np.log((data - mu) / sigma)
    tail = np.logaddexp(0.0, c * log_z)
    return float(
        -data.size * (log_c + log_d - log_sigma)
        - (c - 1.0) * log_z.sum()
        + (d + 1.0) * tail.sum()
    )


def minimize(func, theta0, **kwargs):
    """``scipy.optimize.minimize``, imported on first call so that
    ``import uwb_locsim`` and a simulation load numpy only."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(func, theta0, **kwargs)


def _simplex(func, theta0, args):
    """One Nelder-Mead run, restarted once from its endpoint if the
    evaluation budget runs out before the simplex collapses."""
    options = {"maxfev": _MAX_EVALS, "fatol": _NLL_TOL, "xatol": 1e-8}
    result = minimize(func, theta0, args=args, method="Nelder-Mead", options=options)
    if not result.success:
        retry = minimize(func, result.x, args=args, method="Nelder-Mead", options=options)
        retry.nfev += result.nfev
        result = retry
    return result


def _fit_gaussian(data):
    theta0 = np.array([data.mean(), math.log(max(data.std(), 1e-12))])
    result = _simplex(_gaussian_nll, theta0, (data,))
    mu, log_sigma = result.x
    return Gaussian(mu=float(mu), sigma=math.exp(log_sigma)), result


def _lognormal_theta0(data, mu_bound):
    span = float(data[-1] - data[0])  # data arrives sorted
    mu0 = float(data[0]) - 0.05 * span
    sigma0 = float(np.median(data)) - mu0
    s0 = float(np.log((data - mu0) / sigma0).std())
    return np.array([
        math.log(mu_bound - mu0),
        math.log(sigma0),
        math.log(max(s0, 1e-6)),
    ])


def _fit_lognormal(data, mu_bound):
    theta0 = _lognormal_theta0(data, mu_bound)
    result = _simplex(_lognormal_nll, theta0, (data, mu_bound))
    t_mu, log_sigma, log_s = result.x
    dist = LogNormal(s=math.exp(log_s), mu=mu_bound - math.exp(t_mu), sigma=math.exp(log_sigma))
    return dist, result


def _fit_burr12(data, mu_bound):
    # chain the starts from the log-normal fit; the families share mu/sigma roles
    seed_dist, seed_result = _fit_lognormal(data, mu_bound)
    base = [
        math.log(max(mu_bound - seed_dist.mu, 1e-12)),
        math.log(seed_dist.sigma),
        math.log(1.5 / seed_dist.s),
    ]
    best = None
    total_evals = seed_result.nfev
    for d0 in (1.0, 0.25):
        result = _simplex(_burr12_nll, np.array(base + [math.log(d0)]), (data, mu_bound))
        total_evals += result.nfev
        if best is None or result.fun < best.fun:
            best = result
    best.nfev = total_evals
    t_mu, log_sigma, log_c, log_d = best.x
    dist = BurrXII(
        c=math.exp(log_c), d=math.exp(log_d),
        mu=mu_bound - math.exp(t_mu), sigma=math.exp(log_sigma),
    )
    return dist, best


def sse_against(epdf: EmpiricalPdf, dist: ErrorDistribution) -> float:
    """Sum of squared density errors at the histogram bin centers."""
    diff = dist.pdf(epdf.bin_centers) - epdf.densities
    return float(diff @ diff)


def fit_mle(family: str, data, bins: int = 200) -> FitResult:
    """Maximum-likelihood fit of one family; deterministic for fixed data.

    Raises ConvergenceError (carrying the best-so-far FitResult) when
    the optimizer exhausts its evaluation budget.
    """
    if family not in _N_PARAMS:
        raise ParameterError(f"unknown family {family!r}; expected one of {sorted(_N_PARAMS)}")
    data = np.sort(np.asarray(data, dtype=float).ravel())
    if data.size < 2:
        raise DataError("need at least two data points to fit")
    if data[0] == data[-1]:
        raise DataError("degenerate data: all values are equal, no scale can be fitted")

    mu_bound = float(data[0]) - _LOCATION_MARGIN
    if family == "gaussian":
        dist, opt = _fit_gaussian(data)
    elif family == "lognormal":
        dist, opt = _fit_lognormal(data, mu_bound)
    else:
        dist, opt = _fit_burr12(data, mu_bound)

    fit = FitResult(
        family=family,
        params=dist,
        nll=float(opt.fun),
        sse=sse_against(empirical_pdf(data, bins), dist),
        converged=bool(opt.success),
        iterations=int(opt.nfev),
    )
    if not opt.success:
        raise ConvergenceError(
            f"{family} fit stopped after {opt.nfev} objective evaluations", best=fit
        )
    return fit


def _rank_order(a: FitResult, b: FitResult) -> int:
    if (a.error is None) != (b.error is None):
        return -1 if a.error is None else 1
    if abs(a.sse - b.sse) <= _SSE_TIE:
        return _N_PARAMS[a.family] - _N_PARAMS[b.family]
    return -1 if a.sse < b.sse else 1


def select_best_model(data, families, bins: int = 200) -> list[FitResult]:
    """Fit every family and rank by SSE against one shared empirical PDF.

    Families whose fit fails are ranked last with the failure recorded
    on the result instead of aborting the ranking.
    """
    families = list(families)
    if not families:
        raise ParameterError("at least one family is required")
    data = np.asarray(data, dtype=float).ravel()
    epdf = empirical_pdf(data, bins)

    results = []
    for family in families:
        try:
            fit = fit_mle(family, data, bins=bins)
        except ConvergenceError as exc:
            fit = replace(exc.best, error=str(exc))
        results.append(replace(fit, sse=sse_against(epdf, fit.params)))
    return sorted(results, key=functools.cmp_to_key(_rank_order))
