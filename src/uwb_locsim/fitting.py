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
  XII distribution", CSDA 45, 2004), leaving a 3-D search. It runs in
  bulk coordinates phi = (t, m, l), m = (sigma - e^t) / std(x) and
  l = log sigma - log c: along the heavy-tail basin's curved valley mu,
  sigma and c all move, but the bulk mu + sigma (where z = 1) and the
  width sigma / c barely do, so in phi the valley is nearly straight.
  Dividing by the sample std leaves m, and so the search, free of the
  data's units. The profile is made in theta = (t, log sigma, log c)
  and carried to phi by the chain rule; by the envelope theorem its
  gradient is the full NLL's gradient at that d.

Burr XII's log(1 + z^c), in the profile as in ``BurrXII.pdf`` and
``cdf``, is ``distributions._softplus(c log z)``, a few ulp from
np.logaddexp(0.0, c log z) but without its scalar libm loop.

Each profile gets one run of ``minimize``, an in-house trust-region
Newton method (J. Nocedal and S. J. Wright, "Numerical Optimization",
2006, chapter 4) on the profile's analytic Hessian, from a deterministic
start (mu0 = min(x) - 5% of the range; Burr XII starts from the
log-normal fit), so a fit is a pure function of its data. Burr XII's
Hessian is the full NLL's Schur complement over d, and each step solves
its trust-region subproblem exactly, so an indefinite Hessian in the
heavy-tail basin still gives a descent step. It stops at max|gradient|
<= 1e-5, where the model's decrease is within one ulp of the NLL, or
where the trust radius collapses; the fit counts as converged when
max|gradient| <= 1e-6 n, for Burr XII in theta (J^-T times phi's
gradient, with no further evaluation). On some samples the Burr XII
likelihood keeps rising as c grows without bound; that fit raises
ConvergenceError naming the final c and gradient. The error's ``best`` result carries that message
as its ``error``, and a FitResult's ``converged`` is ``error is None``.

numpy makes only the passes over the samples and, in the 3-D Burr XII
search, one eigendecomposition per step; the 1-D step is closed form.
The arithmetic on the 1 to 3 numbers of a point, its gradient and its
Hessian is on Python floats, carried as lists between evaluations:
numpy's fixed cost per call is many times that of such arithmetic.
Burr XII's c and d come from the search's last accepted evaluation, not
from another pass. No 3x3 matmul runs; it would call BLAS
gemm, whose code pages add 0.4 MB to a fit's RSS.

Model selection sorts and checks the samples once, makes one histogram
(counted by binary search in the sorted samples: np.histogram's
densities, bit for bit) and one log-normal fit (which Burr XII starts
from) for all families, and scores each fitted density against that
empirical PDF with a sum of squared errors at the histogram bin
centers. It ranks families by one sort key: failed fits last, then
ascending SSE (NaN last), then an exact SSE tie to the family with
fewer parameters. So the ranking does not depend on the order the
families are given in.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .distributions import FAMILIES, BurrXII, ErrorDistribution, Gaussian, LogNormal, _softplus
from .errors import ConvergenceError, DataError, ParameterError, check_array_size

_GRAD_TOL = 1e-6  # converged when max|gradient of the profile NLL| <= this * n
_GTOL = 1e-5  # minimize stops at max|gradient| <= this
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
    iterations: int  # NLL+gradient+Hessian evaluations used; 0 for the Gaussian
    error: str | None = None  # why the fit did not converge; None when it did

    @property
    def converged(self) -> bool:
        return self.error is None


def empirical_pdf(data, bins: int) -> EmpiricalPdf:
    """Equal-width histogram spanning [min(data), max(data)], density-normalized.
    DataError if a bin would have no width: all values equal, or a range
    too narrow for ``bins + 1`` distinct edges; or if a density overflows.

    The densities are np.histogram's on the same edges, bit for bit: a bin
    counts the samples in [its left edge, the next edge), the last bin its
    right edge too. They are counted by binary search in the sorted samples,
    which are sorted here unless already sorted (a selection's are)."""
    data = np.asarray(data, dtype=float).ravel()
    if bins < 1:
        raise ParameterError("bins must be >= 1")
    if data.size < 2:
        raise DataError("need at least two data points for a histogram")
    check_array_size(bins + 1)
    if not (data[:-1] <= data[1:]).all():  # NaN compares false: sorted to the end
        data = np.sort(data)
    lo, hi = float(data[0]), float(data[-1])
    edges = np.linspace(lo, hi, bins + 1)  # the edges np.histogram makes for ``bins``
    if not (edges[:-1] < edges[1:]).all():
        raise DataError(f"cannot make {bins} bins of finite width over [{lo!r}, {hi!r}]")
    counts = np.diff(data.searchsorted(edges[:-1]), append=data.size)  # every sample is <= edges[-1] = hi
    with np.errstate(over="ignore"):
        densities = counts / np.diff(edges) / data.size
    if not np.isfinite(densities).all():
        raise DataError(f"cannot make {bins} bins of finite density over [{lo!r}, {hi!r}]")
    return EmpiricalPdf(bin_edges=edges, densities=densities)


def minimize(func, theta0, args=()):
    """Trust-region Newton on ``func(theta, *args) -> (value, gradient,
    Hessian, *extra)`` (Nocedal and Wright, Algorithm 4.1): the last
    accepted point, its value and gradient, the number of evaluations and
    then its ``extra``. Each step minimizes the quadratic model within the
    radius exactly and is taken when f falls. The radius starts at 1,
    shrinks to a quarter of a step that gained less than a quarter of the
    model's decrease (an infinite f gains -inf) and doubles after a step on
    its edge that gained over three quarters. Stops at max|g| <= _GTOL,
    where the model's decrease is within one ulp of f, where the radius
    cannot move x, or after 200 iterations per dimension. The point, its
    gradient and its Hessian are carried as float lists between
    evaluations."""
    x, nfev, radius = np.array(theta0, dtype=float), 1, 1.0
    best = func(x, *args)
    xs, gs = x.tolist(), best[1].tolist()
    hs = None if best[2] is None else best[2].tolist()  # None where the start's value is infinite
    for _ in range(200 * len(xs)):
        if max(map(abs, gs)) <= _GTOL or radius <= 2.0**-52 * max(map(abs, xs)):
            break
        p = _trust_step(gs, hs, radius)
        gain = -(_dot(gs, p) + 0.5 * _dot(p, [_dot(row, p) for row in hs]))
        if gain <= abs(best[0]) * 2.0**-52:
            break
        trial_xs = [a + b for a, b in zip(xs, p)]
        trial_x = np.array(trial_xs)
        trial = func(trial_x, *args)
        nfev += 1
        rho, size = (best[0] - trial[0]) / gain, math.hypot(*p)
        if not rho >= 0.25:
            radius = 0.25 * size
        elif rho > 0.75 and size >= 0.99 * radius:
            radius *= 2.0
        if rho > 0.0:
            x, xs, best = trial_x, trial_xs, trial
            gs, hs = best[1].tolist(), best[2].tolist()
    return x, best[0], best[1], nfev, *best[3:]


def _dot(a, b):
    """a . b for two float sequences, its products' sum correctly rounded."""
    return math.fsum(map(operator.mul, a, b))


def _trust_step(g, h, radius):
    """The p minimizing g.p + p.h.p / 2 over |p| <= radius (Nocedal and
    Wright, section 4.3), for the float lists g and h. In one dimension it
    is -g / max(h, |g| / radius): the Newton step if h > 0 puts it within
    the radius, else the edge downhill, and in the hard case (g = 0 and
    h <= 0) the edge at -radius. Otherwise it is found from h's eigenvalues
    lam: p = -(h + (sigma - lam_1) I)^-1 g at sigma = lam_1 > 0 if that
    fits, else at the sigma >= 0 that puts p on the edge, found from the
    left by Newton's method on 1/|p|. In the hard case (g orthogonal to the
    lowest eigenvector and p short of the edge at sigma = 0) the lowest
    eigenvector fills the rest of the radius."""
    if len(g) == 1:
        sigma = max(h[0][0], abs(g[0]) / radius)
        return [-g[0] / sigma if sigma > 0.0 else -radius]
    lam, vec = np.linalg.eigh(h)
    lam, vec = lam.tolist(), vec.tolist()
    gam = [_dot(g, column) for column in zip(*vec)]  # g in the eigenvector basis
    # each |gam_i| / (lam_i - lam_1 + sigma) <= radius on the edge: a lower bound for sigma
    sigma = max(lam[0], *(abs(a) / radius - (l - lam[0]) for a, l in zip(gam, lam)))
    for _ in range(50):
        shifted = [l - lam[0] + sigma for l in lam]
        p = [a / s if s > 0.0 else 0.0 for a, s in zip(gam, shifted)]
        size = math.hypot(*p)
        if size <= radius * (1.0 + 1e-9):
            break
        sigma += (size / radius - 1.0) * size * size / sum(x * x / s for x, s in zip(p, shifted) if s > 0.0)
    if sigma <= 0.0 and size < radius:
        p[0] = math.sqrt(radius * radius - size * size)  # the hard case
    return [-_dot(row, p) for row in vec]


def _guarded(profile):
    """``profile`` returning an infinite NLL, which fails minimize's ratio
    test and so shrinks its trust radius, wherever its arithmetic leaves
    the floats. The Hessian of an infinite NLL is None; the values the
    profile returns past its Hessian are kept, unless it raised."""

    def guarded(theta, *args):
        try:
            with np.errstate(all="ignore"):
                nll, grad, hess, *extra = profile(theta, *args)
            if math.isfinite(nll) and all(map(math.isfinite, grad.tolist() + hess.ravel().tolist())):
                return nll, grad, hess, *extra
        except (ArithmeticError, ValueError):  # math.exp overflow, math.log(0), n / 0
            extra = []
        return math.inf, np.zeros(len(theta)), None, *extra

    return guarded


def _log_shifted(t, data, mu_bound):
    """log(x - mu) and 1/(x - mu) for the location mu = mu_bound - e^t."""
    shifted = data - (mu_bound - math.exp(t))
    return np.log(shifted), 1.0 / shifted


@_guarded
def _lognormal_profile(theta, data, mu_bound):
    """Log-normal NLL in t with sigma and s at their MLEs, and its two derivatives."""
    n, t = data.size, float(theta[0])
    y, w = _log_shifted(t, data, mu_bound)
    sum_y = float(np.add.reduce(y))
    dev = np.subtract(y, sum_y / n, out=y)  # y - y.mean(), in y's buffer
    var = float(dev @ dev) / n
    nll = 0.5 * n * (math.log(var) + 1.0) + n * _LOG_SQRT2PI + sum_y
    e, dev_w, sum_w, w_w = math.exp(t), float(dev @ w), float(np.add.reduce(w)), float(w @ w)
    grad = e * (dev_w / var + sum_w)
    hess = grad + e * e * ((w_w - sum_w * sum_w / n - float(np.multiply(dev, w, out=dev) @ w)) / var
                           - 2.0 * dev_w * dev_w / (n * var * var) - w_w)
    return nll, np.array([grad]), np.array([[hess]])


def _burr12_scale(phi, std):
    """sigma = std m + e^t at phi = (t, m, l), with d log sigma / d phi =
    (r_t, r_m, 0): r_t = e^t / sigma and r_m = std / sigma."""
    e = math.exp(phi[0])
    sigma = std * phi[1] + e
    return sigma, e / sigma, std / sigma


@_guarded
def _burr12_profile(phi, data, mu_bound, std):
    """Burr XII NLL in phi = (t, m, l) with d at its MLE, its gradient,
    its Hessian, and c and d, which the fit takes from the search's last
    accepted evaluation. The derivatives are made in theta = (t, log sigma,
    log c), where the Hessian H is the full NLL's Hessian in (theta, d)
    Schur-complemented over d, and carried to phi by J = d theta / d phi (log c = log sigma -
    l): J^T g and J^T H J + (g_sigma + g_c) C, with C the Hessian of log
    sigma in phi. The value is the NLL less n log(std), the NLL in units of
    the sample std, so its rounding, which decides where minimize stops,
    does not depend on the data's units. Infinite where (c - 1) sum(log z)
    exceeds 2^32 times both |value| and n: there it and sum(log(1 + z^c))
    cancel to finite rounding noise. Past the passes over the samples, all
    is float arithmetic on the six distinct entries of H."""
    n, phi = data.size, phi.tolist()
    sigma, r_t, r_m = _burr12_scale(phi, std)
    y, w = _log_shifted(phi[0], data, mu_bound)
    log_sigma = math.log(sigma)  # ValueError where sigma <= 0
    log_z = np.subtract(y, log_sigma, out=y)  # in place: one array fewer alive in _softplus
    c = math.exp(log_sigma - phi[2])
    v = c * log_z
    tail = _softplus(v)  # log(1 + z^c)
    sum_tail, sum_log_z = float(np.add.reduce(tail)), float(np.add.reduce(log_z))
    d = n / sum_tail
    shape_term = (c - 1.0) * sum_log_z
    nll = n * (phi[2] - math.log(std * d) + 1.0) - shape_term + sum_tail
    if abs(shape_term) > 2.0**32 * max(abs(nll), n):
        return math.inf, None, None, c, d
    v -= tail
    p = np.exp(v, out=v)  # z^c / (1 + z^c)
    e, k = math.exp(phi[0]), (d + 1.0) * c
    sum_w, sum_p = float(np.add.reduce(w)), float(np.add.reduce(p))
    wp, zp = float(w @ p), float(log_z @ p)
    g_t, g_s, g_c = e * (k * wp - (c - 1.0) * sum_w), n * c - k * sum_p, k * zp - c * sum_log_z - n
    # the Hessian's sums, made in the buffers of tail and p: a new 10k array
    # costs more in page faults than its arithmetic. q = dp / d(c log z).
    q = np.subtract(p, np.multiply(p, p, out=tail), out=tail)
    sum_q, q_w, q_z = float(np.add.reduce(q)), float(q @ w), float(q @ log_z)
    p_w2 = float(np.multiply(p, w, out=p) @ w)
    qz = np.multiply(q, log_z, out=p)
    qz_w, qz_z, q_w2 = float(qz @ w), float(qz @ log_z), float(np.multiply(q, w, out=q) @ w)
    # H less the outer product of u, the gradient of sum(log(1 + z^c)) in theta, times d^2 / n
    u_t, u_s, u_c, f = c * (e * wp), -c * sum_p, c * zp, d * d / n
    h_tt = e * (k * (c * e * q_w2 + wp - e * p_w2) - (c - 1.0) * (sum_w - e * float(w @ w))) - u_t * u_t * f
    h_ts, h_tc = -k * c * e * q_w - u_t * u_s * f, e * (k * (c * qz_w + wp) - c * sum_w) - u_t * u_c * f
    h_ss, h_sc = k * c * sum_q - u_s * u_s * f, c * n - k * (c * q_z + sum_p) - u_s * u_c * f
    h_cc = k * (c * qz_z + zp) - c * sum_log_z - u_c * u_c * f
    # J = [[1, 0, 0], [r_t, r_m, 0], [r_t, r_m, -1]], C = [[r_t - r_t^2, -r_t r_m, 0],
    # [-r_t r_m, -r_m^2, 0], [0, 0, 0]]; J^T H J from H's log sigma column plus
    # its log c column: s_t and s_c are its t and log c entries, s the sum of its last two
    g_sc, s_t, s_c = g_s + g_c, h_ts + h_tc, h_sc + h_cc
    s = h_ss + h_sc + s_c
    h_tm = r_m * (s_t + r_t * s) - g_sc * r_t * r_m
    h_tl, h_ml = -(h_tc + r_t * s_c), -r_m * s_c
    hess = [[h_tt + r_t * (2.0 * s_t + r_t * s) + g_sc * (r_t - r_t * r_t), h_tm, h_tl],
            [h_tm, r_m * r_m * (s - g_sc), h_ml],
            [h_tl, h_ml, h_cc]]
    return nll, np.array([g_t + r_t * g_sc, r_m * g_sc, -g_c]), np.array(hess), c, d


class _Sample:
    """Samples sorted and checked once, with what every family's fit of them
    shares: std, the location bound, the histogram and the log-normal fit."""

    def __init__(self, data, bins: int):
        data = np.sort(np.asarray(data, dtype=float).ravel())
        if data.size < 2:
            raise DataError("need at least two data points to fit")
        if not (math.isfinite(data[0]) and math.isfinite(data[-1])):  # sorted: NaN and ±inf at the ends
            raise DataError(f"samples must be finite, got {data[0]} to {data[-1]}")
        if data[-1] == data[0]:
            raise DataError("degenerate data: all values are equal, no scale can be fitted")
        with np.errstate(over="ignore", invalid="ignore"):
            std = float(data.std())  # an overflowing sum or square leaves it non-finite
            if not math.isfinite(std):
                what = "standard deviation: their spread" if math.isfinite(data.mean()) else "mean: their sum"
                raise DataError(f"samples must have a finite {what} must not overflow, got {data[0]} to {data[-1]}")
        span = float(data[-1] - data[0])
        if span < bins * 2.0**-512:  # (bins / span)^2, a bound on the squared densities, overflows
            raise DataError(f"samples span {span!r}, too little for {bins} bins with finite squared densities")
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
    else:  # the sample's log-normal fit and, for Burr XII, one minimize run from it
        t, dist, nll, grad, evals = sample.lognormal
        if family == "burr12":
            # from the log-normal fit's t and sigma, with c = 1.5 / s
            phi0 = [t, (dist.sigma - math.exp(t)) / sample.std, math.log(dist.sigma * dist.s / 1.5)]
            x, nll, grad, nfev, c, d = minimize(_burr12_profile, phi0, args=(data, mu_bound, sample.std))
            x = x.tolist()
            sigma, r_t, r_m = _burr12_scale(x, sample.std)
            dist = BurrXII(c=c, d=d, mu=mu_bound - math.exp(x[0]), sigma=sigma)
            # converged is judged in (t, log sigma, log c): J^-T times phi's gradient
            grad = np.array([grad[0] - r_t / r_m * grad[1], grad[1] / r_m + grad[2], -grad[2]])
            evals, nll = evals + nfev, nll + data.size * math.log(sample.std)  # back from std units
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

    Non-finite samples raise DataError and a repeated family ParameterError,
    before any fit. A family whose fit fails is ranked last as its
    ConvergenceError's ``best``, with the failure in ``error``, instead of
    aborting the ranking.
    """
    families = list(families)
    if not families:
        raise ParameterError("at least one family is required")
    for i, family in enumerate(families):
        if family in families[:i]:
            raise ParameterError(f"family {family!r} is listed more than once")
    sample = _Sample(data, bins)
    results = []
    for family in families:
        try:
            results.append(fit_mle(family, sample))
        except ConvergenceError as exc:
            results.append(exc.best)
    return sorted(results, key=lambda fit: (fit.error is not None, math.isnan(fit.sse),
                                            0.0 if math.isnan(fit.sse) else fit.sse,
                                            len(fields(fit.params))))
