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

Burr XII's log(1 + z^c), in the profile as in ``BurrXII.pdf`` and
``cdf``, is ``distributions._softplus(c log z)``, not np.logaddexp(0.0,
c log z): numpy runs logaddexp as a scalar libm loop, which took about
120 of the 185 us of one profile evaluation on 10k samples (2-vCPU
x86-64). The two differ by a few ulp, which moved fitted Burr XII
parameters by at most 7.6e-7 relative on 1,200 10k-sample sets.

Each profile gets one run of ``minimize``, an in-house BFGS with a
strong-Wolfe line search (J. Nocedal and S. J. Wright, "Numerical
Optimization", 2006, Algorithms 3.5 and 3.6), from a deterministic start
(mu0 = min(x) - 5% of the range; Burr XII starts from the log-normal
fit), so a fit is a pure function of its data. BFGS stops at
max|gradient| <= 1e-5, where the slope g.p is within one ulp of the NLL
(no line search could see that decrease), or where rounding noise in the
NLL fails its line search; the fit counts as converged when
max|gradient| <= 1e-6 n. On some samples the Burr XII likelihood keeps
rising as c grows without bound; that fit raises ConvergenceError naming
the final c and gradient. The error's ``best`` result carries that message
as its ``error``, and a FitResult's ``converged`` is ``error is None``.

Model selection sorts and checks the samples once, makes one histogram
and one log-normal fit (which Burr XII starts from) for all families,
and scores each fitted density against that empirical PDF with a sum of
squared errors at the histogram bin centers. It ranks families by one
sort key: failed fits last, then ascending SSE (NaN last), then an exact
SSE tie to the family with fewer parameters. So the ranking does not
depend on the order the families are given in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .distributions import FAMILIES, BurrXII, ErrorDistribution, Gaussian, LogNormal, _softplus
from .errors import ConvergenceError, DataError, ParameterError, check_array_size

_GRAD_TOL = 1e-6  # converged when max|gradient of the profile NLL| <= this * n
_BFGS_GTOL = 1e-5  # BFGS stops at max|gradient| <= this
_C1, _C2 = 1e-4, 0.9  # strong Wolfe sufficient-decrease and curvature constants
_LOCATION_MARGIN = 1e-6  # meters kept between mu and min(data)

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
    iterations: int  # NLL+gradient evaluations used; 0 for the Gaussian
    error: str | None = None  # why the fit did not converge; None when it did

    @property
    def converged(self) -> bool:
        return self.error is None


def empirical_pdf(data, bins: int) -> EmpiricalPdf:
    """Equal-width histogram spanning [min(data), max(data)], density-normalized.
    DataError if a bin would have no width: all values equal, or a range
    too narrow for ``bins + 1`` distinct edges."""
    data = np.asarray(data, dtype=float)
    if bins < 1:
        raise ParameterError("bins must be >= 1")
    if data.size < 2:
        raise DataError("need at least two data points for a histogram")
    check_array_size(bins + 1)
    lo, hi = float(data.min()), float(data.max())
    edges = np.linspace(lo, hi, bins + 1)  # the edges np.histogram makes for ``bins``
    if not (edges[:-1] < edges[1:]).all():
        raise DataError(f"cannot make {bins} bins of finite width over [{lo!r}, {hi!r}]")
    densities, edges = np.histogram(data, bins=edges, density=True)
    return EmpiricalPdf(bin_edges=edges, densities=densities)


def minimize(func, theta0, args=()):
    """BFGS on ``func(theta, *args) -> (value, gradient)``: the last accepted
    point, its value and gradient, and the number of evaluations. The
    inverse Hessian h starts as I, scaled by s'y / y'y after the first step;
    its update is skipped when s'y <= 0. The first trial step is
    min(1, 1 / max|g|), later ones 1. Stops at max|g| <= _BFGS_GTOL, when
    -g.p <= one ulp of f (a decrease f cannot show, whose line search would
    fail after 20 trials), when a line search fails, or after 200
    iterations per dimension."""

    def trial(a):
        nonlocal nfev
        nfev += 1
        f, g = func(x + a * p, *args)
        return a, f, g, float(g @ p)

    x, h, nfev = np.array(theta0, dtype=float), np.eye(len(theta0)), 1
    f, g = func(x, *args)
    alpha = min(1.0, 1.0 / max(float(np.abs(g).max()), 1e-300))
    for k in range(200 * x.size):
        if np.abs(g).max() <= _BFGS_GTOL:
            break
        p = -(h @ g)
        slope = float(g @ p)
        if -slope <= abs(f) * 2.0**-52:
            break
        step = _wolfe_step(trial, f, slope, alpha)
        if step is None:
            break
        s, y = step[0] * p, step[2] - g
        x, f, g, alpha = x + s, step[1], step[2], 1.0
        sy = float(s @ y)
        if sy > 0.0:
            h *= sy / float(y @ y) if k == 0 else 1.0
            hy = h @ y
            h += (np.outer(s, s) * (1.0 + float(y @ hy) / sy) - np.outer(s, hy) - np.outer(hy, s)) / sy
    return x, f, g, nfev


def _wolfe_step(trial, f0, d0, alpha):
    """A ``trial(alpha) -> (alpha, f, g, slope)`` meeting the strong Wolfe
    conditions from slope d0 < 0 at f0, or None: Algorithm 3.5 doubles alpha
    until [lo, hi] brackets one, 3.6 shrinks [lo, hi]; lo is lower in f."""
    lo, hi = (0.0, f0, None, d0), None
    for _ in range(20):
        a, f, _, d = cur = trial(alpha if hi is None else _cubic_min(lo, hi))
        if f > f0 + _C1 * a * d0 or f >= lo[1]:
            hi = cur
        elif abs(d) <= -_C2 * d0:
            return cur
        else:  # cur is the new lo; the old lo becomes hi if the slope points back at it
            hi = lo if d * ((a if hi is None else hi[0]) - lo[0]) >= 0.0 else hi
            lo, alpha = cur, 2.0 * a
    return None


def _cubic_min(lo, hi):
    """Minimizer of the cubic matching f and slope at both ends (eq. 3.59),
    or the midpoint if undefined or within a tenth of the bracket of an end."""
    (a0, f0, _, d0), (a1, f1, _, d1) = lo, hi
    e1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = e1 * e1 - d0 * d1  # NaN or inf after an infinite f
    e2 = math.copysign(math.sqrt(disc), a1 - a0) if 0.0 <= disc < math.inf else math.nan
    denom = d1 - d0 + 2.0 * e2
    a = a1 - (a1 - a0) * (d1 + e2 - e1) / denom if denom else math.nan
    margin = 0.1 * abs(a1 - a0)
    return a if min(a0, a1) + margin <= a <= max(a0, a1) - margin else 0.5 * (a0 + a1)


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
    """c, the MLE of d, sigma, log z, 1/(x - mu), v = c log z and
    log(1 + z^c) at theta. log(1 + z^c) is ``_softplus(v)``, not
    np.logaddexp(0.0, v), whose scalar libm loop took two thirds of a
    profile evaluation."""
    y, w = _log_shifted(theta[0], data, mu_bound)
    log_z = np.subtract(y, theta[1], out=y)  # in place: one array fewer alive in _softplus
    c, sigma = math.exp(theta[2]), math.exp(theta[1])
    v = c * log_z
    tail = _softplus(v)
    return c, data.size / float(tail.sum()), sigma, log_z, w, v, tail


@_guarded
def _burr12_profile(theta, data, mu_bound):
    """Burr XII NLL in (t, log sigma, log c) with d at its MLE, and its gradient.
    Infinite where (c - 1) sum(log z) exceeds 2^32 times both |NLL| and n:
    there it and sum(log(1 + z^c)) cancel to finite rounding noise."""
    t, log_sigma, log_c = theta
    n = data.size
    c, d, _, log_z, w, v, tail = _burr12_terms(theta, data, mu_bound)
    sum_log_z = log_z.sum()
    shape_term = (c - 1.0) * sum_log_z
    nll = n * (log_sigma - log_c - math.log(d) + 1.0) - shape_term + tail.sum()
    if abs(shape_term) > 2.0**32 * max(abs(nll), n):
        return math.inf, np.zeros(3)
    v -= tail
    p = np.exp(v, out=v)  # z^c / (1 + z^c)
    k = (d + 1.0) * c
    grad = np.array([
        math.exp(t) * (k * float(w @ p) - (c - 1.0) * w.sum()),
        n * c - k * p.sum(),
        k * float(log_z @ p) - c * sum_log_z - n,
    ])
    return float(nll), grad


class _Sample:
    """Samples sorted and checked once, with what every family's fit of them
    shares: std, the location bound, the histogram and the log-normal fit."""

    def __init__(self, data, bins: int):
        data = np.sort(np.asarray(data, dtype=float).ravel())
        if data.size < 2:
            raise DataError("need at least two data points to fit")
        with np.errstate(over="ignore", invalid="ignore"):
            std = float(data.std())  # NaN, ±inf and overflow all leave it non-finite
        if not math.isfinite(std):
            raise DataError("samples must be finite and their spread must not overflow, "
                            f"got {data[0]} to {data[-1]}")
        if data[-1] == data[0]:
            raise DataError("degenerate data: all values are equal, no scale can be fitted")
        self.data, self.std = data, std
        self.mu_bound = float(data[0]) - _LOCATION_MARGIN
        self.epdf = empirical_pdf(data, bins)

    @cached_property
    def lognormal(self):
        """The log-normal profile fit, run on first use: t, fit, NLL, gradient, evaluations."""
        data, mu_bound = self.data, self.mu_bound
        mu0 = float(data[0]) - 0.05 * float(data[-1] - data[0])
        t0 = math.log(max(mu_bound - mu0, _LOCATION_MARGIN))
        x, nll, grad, evals = minimize(_lognormal_profile, [t0], args=(data, mu_bound))
        y, _ = _log_shifted(x[0], data, mu_bound)
        dist = LogNormal(s=float(y.std()), mu=mu_bound - math.exp(x[0]), sigma=math.exp(y.mean()))
        return x[0], dist, nll, grad, evals


def sse_against(epdf: EmpiricalPdf, dist: ErrorDistribution) -> float:
    """Sum of squared density errors at the histogram bin centers."""
    diff = dist.pdf(epdf.bin_centers) - epdf.densities
    return float(diff @ diff)


def fit_mle(family: str, data, bins: int = 200) -> FitResult:
    """Maximum-likelihood fit of one family; deterministic for fixed data.

    Raises ConvergenceError when the profile NLL's gradient is not within
    tolerance of zero. Its ``best`` is the best-so-far FitResult, whose
    ``error`` is the exception's message, so its ``converged`` is False.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    sample = data if isinstance(data, _Sample) else _Sample(data, bins)
    data, mu_bound = sample.data, sample.mu_bound
    if family == "gaussian":
        dist = Gaussian(mu=float(data.mean()), sigma=sample.std)
        nll, grad, evals = data.size * (math.log(dist.sigma) + _LOG_SQRT2PI + 0.5), 0.0, 0
    else:  # the sample's log-normal fit and, for Burr XII, one BFGS run from it
        t, dist, nll, grad, evals = sample.lognormal
        if family == "burr12":
            theta0 = [t, math.log(dist.sigma), math.log(1.5 / dist.s)]
            x, nll, grad, nfev = minimize(_burr12_profile, theta0, args=(data, mu_bound))
            c, d, sigma, *_ = _burr12_terms(x, data, mu_bound)
            dist = BurrXII(c=c, d=d, mu=mu_bound - math.exp(x[0]), sigma=sigma)
            evals += nfev
        nll, grad = float(nll), float(np.abs(grad).max())

    error = None
    if not (math.isfinite(nll) and grad <= _GRAD_TOL * data.size):
        shape = f"c = {dist.c:.4g}, " if family == "burr12" else ""
        error = (f"{family} fit stopped after {evals} evaluations with {shape}"
                 f"max|gradient| = {grad:.3g} > {_GRAD_TOL * data.size:.3g}")
    fit = FitResult(family=family, params=dist, nll=nll, sse=sse_against(sample.epdf, dist),
                    iterations=evals, error=error)
    if error is not None:
        raise ConvergenceError(error, best=fit)
    return fit


def select_best_model(data, families, bins: int = 200) -> list[FitResult]:
    """Fit every family and rank by SSE against one shared empirical PDF.
    The families share one ``_Sample``: one sort, one histogram and one
    log-normal fit, which Burr XII starts from.

    Non-finite samples raise DataError before any fit. A family whose fit
    fails is ranked last as its ConvergenceError's ``best``, with the
    failure in ``error``, instead of aborting the ranking.
    """
    families = list(families)
    if not families:
        raise ParameterError("at least one family is required")
    sample = _Sample(data, bins)
    results = []
    for family in families:
        try:
            results.append(fit_mle(family, sample, bins=bins))
        except ConvergenceError as exc:
            results.append(exc.best)
    return sorted(results, key=lambda fit: (fit.error is not None, math.isnan(fit.sse),
                                            0.0 if math.isnan(fit.sse) else fit.sse,
                                            len(fields(fit.params))))
