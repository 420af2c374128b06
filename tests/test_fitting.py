import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uwb_locsim import (
    BurrXII,
    ConvergenceError,
    DataError,
    Gaussian,
    LogNormal,
    ParameterError,
    RandomStream,
    empirical_pdf,
    fit_mle,
    select_best_model,
)
from uwb_locsim import fitting
from uwb_locsim.fitting import FitResult, sse_against

CONCRETE = BurrXII(9.64, 0.98, -0.46, 0.72)
HUMAN = BurrXII(32.84, 0.24, -1.63, 1.66)


def test_empirical_pdf_two_point_data():
    data = [0.0, 1.0] * 1000
    epdf = empirical_pdf(data, bins=2)
    np.testing.assert_allclose(epdf.densities, [1.0, 1.0])
    np.testing.assert_allclose(epdf.bin_edges, [0.0, 0.5, 1.0])


def test_empirical_pdf_normalization():
    data = RandomStream(3).uniforms(5000) * 3.0 - 1.0
    epdf = empirical_pdf(data, bins=40)
    assert np.sum(epdf.densities * np.diff(epdf.bin_edges)) == pytest.approx(1.0, abs=1e-9)


def test_empirical_pdf_peak_density():
    model = Gaussian(0.0, 0.071)
    data = model.sample(RandomStream(55), 100_000)
    epdf = empirical_pdf(data, bins=200)
    peak_bin = np.searchsorted(epdf.bin_edges, 0.0) - 1
    assert abs(epdf.densities[peak_bin] - 5.619) < 0.3


def test_empirical_pdf_degenerate_inputs():
    with pytest.raises(DataError):
        empirical_pdf([], bins=10)
    with pytest.raises(DataError):
        empirical_pdf([1.0, 1.0, 1.0], bins=10)
    with pytest.raises(ParameterError):
        empirical_pdf([0.0, 1.0], bins=0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=100), bins=st.integers(1, 40),
       repeats=st.lists(st.integers(0, 99), max_size=40), on_edges=st.lists(st.integers(0, 39), max_size=20))
@example(values=[0.0, 1.1125369292536007e-308], bins=1, repeats=[], on_edges=[])  # 2 / width overflows
def test_empirical_pdf_is_np_histogram_bit_for_bit(values, bins, repeats, on_edges):
    # empirical_pdf counts on the sorted samples what np.histogram counts
    # after its own sort: unsorted samples, repeated values, values on inner
    # edges (left-closed bins) and the maximum on the last edge (closed);
    # where a density np.histogram makes overflows, it is a DataError
    values = np.array(values)
    edges = np.linspace(values.min(), values.max(), bins + 1)
    assume((edges[:-1] < edges[1:]).all())
    data = np.concatenate([values, values[np.array(repeats, dtype=int) % values.size],
                           edges[1:-1][np.array(on_edges, dtype=int) % max(bins - 1, 1)] if bins > 1 else []])
    with np.errstate(over="ignore"):
        expected, _ = np.histogram(data, edges, density=True)
    for samples in (data, np.sort(data)):
        if not np.isfinite(expected).all():
            with pytest.raises(DataError, match="finite density"):
                empirical_pdf(samples, bins)
            continue
        epdf = empirical_pdf(samples, bins)
        assert epdf.bin_edges.tobytes() == edges.tobytes()
        assert epdf.densities.tobytes() == expected.tobytes()


def _numpy_trust_step(g, h, radius):
    """fitting._trust_step with g, the eigenbasis and the step as numpy
    arrays, as earlier versions computed it: the reference for its floats."""
    lam, vec = np.linalg.eigh(h)
    lam, gam = lam.tolist(), (g @ vec).tolist()
    sigma = max(lam[0], *(abs(a) / radius - (l - lam[0]) for a, l in zip(gam, lam)))
    for _ in range(50):
        shifted = [l - lam[0] + sigma for l in lam]
        p = [a / s if s > 0.0 else 0.0 for a, s in zip(gam, shifted)]
        size = math.hypot(*p)
        if size <= radius * (1.0 + 1e-9):
            break
        sigma += (size / radius - 1.0) * size * size / sum(x * x / s for x, s in zip(p, shifted) if s > 0.0)
    if sigma <= 0.0 and size < radius:
        p[0] = math.sqrt(radius * radius - size * size)
    return -(vec @ p)


def _rotated(eigenvalues, seed):
    turn, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(eigenvalues),) * 2))
    return turn @ np.diag(eigenvalues) @ turn.T


@pytest.mark.parametrize("g,h", [
    ([3.0], [[2.0]]),  # positive definite
    ([1.0], [[-2.0]]),  # indefinite
    ([0.0], [[-2.0]]),  # the hard case: g has no part along the negative eigenvector
    ([0.3, -1.2, 0.5], _rotated([1.0, 3.0, 10.0], 1)),
    ([0.3, -1.2, 0.5], _rotated([-2.0, 1.0, 5.0], 2)),
    ([0.0, -1.2, 0.5], np.diag([-2.0, 1.0, 5.0])),
    ([-1.2, 0.5, 0.0], np.diag([1.0, 5.0, -2.0])),
], ids=["1-pd", "1-indefinite", "1-hard", "3-pd", "3-indefinite", "3-hard", "3-hard-permuted"])
@pytest.mark.parametrize("radius", [0.01, 0.3, 100.0])
def test_trust_step_floats_match_the_numpy_formulation(g, h, radius):
    g, h = np.array(g), np.array(h, dtype=float)
    expected = _numpy_trust_step(g, h, radius)
    step = np.array(fitting._trust_step(g.tolist(), h.tolist(), radius))
    if g.size == 1:  # the closed form, -g / max(h, |g| / radius), has the eigenbasis' bits
        assert step.tolist() == expected.tolist()
    else:
        assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()
    assert math.hypot(*step) <= radius * (1.0 + 1e-9)


def test_fit_gaussian_matches_closed_form_mle(monkeypatch):
    calls = []
    monkeypatch.setattr(fitting, "minimize", lambda *a, **k: calls.append(a))
    # fit_mle sorts its input, so sorted data makes the sums bit-comparable
    data = np.sort(Gaussian(0.004, 0.071).sample(RandomStream(808), 10_000))
    fit = fit_mle("gaussian", data)
    assert fit.params == Gaussian(mu=data.mean(), sigma=data.std())
    assert fit.nll == data.size * (math.log(data.std()) + 0.5 * math.log(2.0 * math.pi) + 0.5)
    assert fit.nll == pytest.approx(-np.log(fit.params.pdf(data)).sum(), rel=1e-12)
    assert (fit.converged, fit.iterations, calls) == (True, 0, [])
    assert abs(fit.params.mu - 0.004) < 3e-3
    assert abs(fit.params.sigma - 0.071) < 3e-3


# NLL and params of fits of model.sample(RandomStream(seed), 10_000) by
# the earlier two-start Nelder-Mead fitter, which the profile-likelihood
# fits must match or beat.
_NELDER_MEAD_FITS = [
    (CONCRETE, 1, "lognormal", -5748.698201910212,
     LogNormal(s=0.1936575083545453, mu=-0.444976946738621, sigma=0.7031786793910286)),
    (CONCRETE, 1, "burr12", -5864.480209636527,
     BurrXII(c=8.287499079962389, d=1.0199418918010967,
             mu=-0.3718976623181184, sigma=0.6309724726895505)),
    (CONCRETE, 2, "lognormal", -5697.013434112229,
     LogNormal(s=0.15643711249683442, mu=-0.6111659805988492, sigma=0.8749936065377611)),
    (CONCRETE, 2, "burr12", -5819.589383276001,
     BurrXII(c=10.410004676470408, d=1.0035958722543594,
             mu=-0.5261538909620027, sigma=0.7892117416692536)),
    (HUMAN, 1, "lognormal", -854.9239796159254,
     LogNormal(s=0.42335160410658595, mu=-0.3300718967791866, sigma=0.5247261825796602)),
    (HUMAN, 1, "burr12", -1193.756874134997,
     BurrXII(c=32.094383607592206, d=0.23247427303671,
             mu=-1.5260193988067932, sigma=1.5495498996924006)),
    (HUMAN, 2, "lognormal", -568.7725000594846,
     LogNormal(s=0.34281727442615434, mu=-0.45813280912070775, sigma=0.6668046961202002)),
    (HUMAN, 2, "burr12", -1013.6345524206408,
     BurrXII(c=44.25867403098457, d=0.23285883157205464,
             mu=-2.22833982670925, sigma=2.2547314523790427)),
]


@pytest.mark.parametrize("model,seed,family,nll,params", _NELDER_MEAD_FITS)
def test_profile_fit_matches_nelder_mead(model, seed, family, nll, params):
    fit = fit_mle(family, model.sample(RandomStream(seed), 10_000))
    assert fit.converged
    assert fit.nll <= nll + 1e-9
    for name in params.__dataclass_fields__:
        assert getattr(fit.params, name) == pytest.approx(getattr(params, name), rel=1e-6), name


@pytest.mark.parametrize("family", ["gaussian", "lognormal", "burr12"])
@pytest.mark.parametrize("model", [CONCRETE, HUMAN], ids=["concrete", "human"])
def test_fit_nll_is_that_of_the_fitted_density(family, model):
    data = model.sample(RandomStream(3), 10_000)
    fit = fit_mle(family, data)
    assert fit.nll == pytest.approx(-float(np.log(fit.params.pdf(data)).sum()), rel=1e-12)


def test_burr_fits_take_few_evaluations():
    # The four Burr XII sets above took 38 + 39 + 118 + 111 = 306 evaluations
    # (log-normal start included) with the BFGS of earlier versions, and
    # 22 + 23 + 50 + 57 = 152 with trust-region Newton in (t, log sigma,
    # log c); in the bulk coordinates they take 13 + 12 + 18 + 17 = 60. The
    # counts are exact, so losing either speed-up fails here.
    total = sum(fit_mle(family, model.sample(RandomStream(seed), 10_000)).iterations
                for model, seed, family, *_ in _NELDER_MEAD_FITS if family == "burr12")
    assert total <= 64


@pytest.mark.parametrize("model", [CONCRETE, HUMAN], ids=["concrete", "human"])
def test_profile_hessians_match_differences_of_their_gradients(monkeypatch, model):
    runs = []

    def recording(func, theta0, args=()):
        result = minimize(func, theta0, args)
        runs.append((func, np.array(theta0, dtype=float), result[0], args))
        return result

    minimize = fitting.minimize
    monkeypatch.setattr(fitting, "minimize", recording)
    fit_mle("burr12", model.sample(RandomStream(1), 10_000))
    assert [run[0] for run in runs] == [fitting._lognormal_profile, fitting._burr12_profile]
    for profile, start, optimum, args in runs:  # Burr XII starts from the log-normal fit
        for theta in (start, optimum):
            hess, diffs = profile(theta, *args)[2], np.empty((theta.size, theta.size))
            for i, step in enumerate(np.eye(theta.size) * 1e-5):
                diffs[:, i] = (profile(theta + step, *args)[1] - profile(theta - step, *args)[1]) / 2e-5
            assert np.abs(diffs - hess).max() <= 1e-6 * np.abs(hess).max(), (profile, theta)


def test_human_burr_fit_reaches_heavy_tail_basin_from_one_start(monkeypatch):
    calls = []

    def counting(func, theta0, **kwargs):
        calls.append(func)
        return minimize(func, theta0, **kwargs)

    minimize = fitting.minimize
    monkeypatch.setattr(fitting, "minimize", counting)
    fit = fit_mle("burr12", HUMAN.sample(RandomStream(7), 10_000))
    assert fit.params.d < 0.5
    # the log-normal start, then Burr XII
    assert calls == [fitting._lognormal_profile, fitting._burr12_profile]


def _rosenbrock(x):
    value = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    diag = np.zeros_like(x)
    diag[:-1] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
    diag[1:] += 200.0
    return value, grad, np.diag(diag) + np.diag(-400.0 * x[:-1], 1) + np.diag(-400.0 * x[:-1], -1)


def test_minimize_reaches_gtol_on_rosenbrock():
    calls = []

    def counted(x):
        calls.append(x.copy())
        return _rosenbrock(x)

    x, value, grad, nfev = fitting.minimize(counted, [-1.2, 1.0, 1.0])
    assert np.abs(grad).max() <= 1e-5
    np.testing.assert_allclose(x, [1.0, 1.0, 1.0], atol=1e-4)
    assert value < 1e-9
    expected_value, expected_grad, _ = _rosenbrock(x)  # value and gradient belong to x
    assert value == expected_value and np.array_equal(grad, expected_grad)
    assert nfev == len(calls)


def test_minimize_backs_off_from_an_infinite_value():
    # -a x - log(1 - x) + (y - 3)^2 has its minimum at x = 1 - 1/a, y = 3; like
    # fitting._guarded it is infinite, with a zero gradient and no Hessian,
    # beyond x = 1, where the first (Newton) step lands.
    trials = []

    def bounded(theta, a):
        trials.append(theta.copy())
        x, y = theta
        if x >= 1.0:
            return math.inf, np.zeros(2), None
        return (-a * x - math.log(1.0 - x) + (y - 3.0) ** 2,
                np.array([1.0 / (1.0 - x) - a, 2.0 * (y - 3.0)]), np.diag([(1.0 - x) ** -2, 2.0]))

    x, value, grad, nfev = fitting.minimize(bounded, [0.5, 2.5], args=(5.0,))
    assert nfev == len(trials)
    assert trials[1][0] >= 1.0
    assert np.abs(grad).max() <= 1e-5
    np.testing.assert_allclose(x, [0.8, 3.0], atol=1e-5)
    expected_value, expected_grad, _ = bounded(x, 5.0)  # value and gradient belong to x
    assert value == expected_value and np.array_equal(grad, expected_grad)


def test_minimize_stops_where_the_value_cannot_show_a_decrease():
    # at 1e17 one ulp is 16, so no step can show the decrease of about 1e-6
    # the model predicts; a trial there would only measure rounding noise
    calls = []

    def flat(theta):
        calls.append(theta.copy())
        return 1e17 + float((theta[0] - 1.0) ** 2), 2.0 * (theta - 1.0), np.array([[2.0]])

    x, value, _, nfev = fitting.minimize(flat, [1.0 + 1e-3])
    assert (nfev, len(calls), value) == (1, 1, 1e17)
    assert x.tolist() == [1.0 + 1e-3]


@pytest.mark.parametrize("angle", [0.0, 0.5], ids=["axes", "rotated"])
def test_minimize_steps_downhill_from_a_saddle(angle):
    # x^2 + y^4 - 2 y^2 in coordinates rotated by ``angle``, started at
    # x = 1, y = 0: the Hessian diag(2, -4) is indefinite, and the gradient
    # (2, 0) is orthogonal to its lowest eigenvector: the Newton step (-1, 0)
    # and every multiple of the gradient stay on the x axis, where f >= 0.
    turn = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    values = []

    def saddle(theta):
        x, y = turn.T @ theta
        values.append(x * x + y**4 - 2.0 * y * y)
        return values[-1], turn @ np.array([2.0 * x, 4.0 * y**3 - 4.0 * y]), turn @ np.diag([2.0, 12.0 * y * y - 4.0]) @ turn.T

    x, value, grad, nfev = fitting.minimize(saddle, turn @ [1.0, 0.0])
    assert values[1] < 0.0 < values[0]
    np.testing.assert_allclose(np.abs(turn.T @ x), [0.0, 1.0], atol=1e-5)
    assert value == pytest.approx(-1.0, abs=1e-9)
    assert np.abs(grad).max() <= 1e-5 and nfev == len(values)


def _bench_smoke_concrete_set():
    """The first concrete set of ``bench/run.py --workload fit-select --smoke --seed 5``."""
    rng = np.random.default_rng((5, 2, 0))
    return CONCRETE.quantile((rng.integers(0, 2**53, size=2000) + 0.5) * 2.0**-53)


def test_burr_fit_without_interior_optimum_raises():
    # On this set the likelihood keeps rising as c grows without bound
    data = _bench_smoke_concrete_set()
    with pytest.raises(ConvergenceError, match=r"c = \d+.*max\|gradient\|") as excinfo:
        fit_mle("burr12", data)
    assert not excinfo.value.best.converged
    assert excinfo.value.best.error == str(excinfo.value)
    assert excinfo.value.best.params.c > 100.0
    # 607 evaluations when the search ran in (t, log sigma, log c). In the
    # bulk coordinates the valley toward c = inf is nearly straight: 75
    # evaluations here, though on a path without an optimum the count
    # follows rounding (the same arithmetic in another order took 31). The
    # gradient in (t, log sigma, log c) still shows that the valley has no end.
    assert excinfo.value.best.iterations <= 250
    ranking = select_best_model(data, ["gaussian", "burr12", "lognormal"])
    assert ranking[-1].family == "burr12"
    assert ranking[-1].error is not None
    assert all(fit.error is None for fit in ranking[:-1])


def test_burr_fit_backs_off_where_the_nll_is_rounding_noise():
    # Set k = 5 of ``bench/run.py --workload fit-select --seed 150``. The
    # line-search minimizer of earlier versions tried t = 255.37416065 and
    # log c = 198.65200365. With sigma = e^t / 2 there every z is about 2,
    # and (c - 1) sum(log z) and sum(log(1 + z^c)) are about 1e90 and cancel
    # to a finite NLL of noise; an infinite value there, returned before
    # any Hessian is made, fails the trust region's ratio test.
    rng = np.random.default_rng((150, 2, 5))
    data = np.sort(HUMAN.quantile((rng.integers(0, 2**53, size=10_000) + 0.5) * 2.0**-53))
    t, std = 255.37416065, float(data.std())
    phi = np.array([t, -0.5 * math.exp(t) / std, t - math.log(2.0) - 198.65200365])
    nll, grad, hess, *_ = fitting._burr12_profile(phi, data, data[0] - fitting._LOCATION_MARGIN, std)
    assert nll == math.inf and not grad.any() and hess is None
    fit = fit_mle("burr12", data)
    assert fit.converged and math.isfinite(fit.nll)


@pytest.mark.parametrize("family", ["lognormal", "burr12"])
@pytest.mark.parametrize("data", [
    np.random.default_rng(0).normal(size=20),  # a c where sum(log(1 + z^c)) = 0 is in reach
    np.random.default_rng(15).normal(size=20),  # and a location where std(log(x - mu)) = 0
    np.random.default_rng(0).normal(0.0, 1e-7, size=50),  # range below the location margin
])
def test_fit_on_awkward_samples_ends_in_a_result_or_convergence_error(family, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit = fit_mle(family, data)
        except ConvergenceError as exc:
            assert not exc.best.converged
        else:
            assert fit.converged and math.isfinite(fit.nll)


def test_fit_lognormal_recovers_median():
    model = LogNormal(0.17, -0.53, 0.81)
    data = model.sample(RandomStream(909), 10_000)
    fit = fit_mle("lognormal", data)
    fitted_median = fit.params.quantile(0.5)
    assert fitted_median == pytest.approx(np.median(data), abs=0.01)
    assert abs(fitted_median - 0.28) < 0.01


def test_fit_degenerate_data():
    with pytest.raises(DataError):
        fit_mle("gaussian", np.full(100, 0.25))
    with pytest.raises(DataError):
        fit_mle("gaussian", [1.0])


def test_fit_unknown_family():
    with pytest.raises(ParameterError):
        fit_mle("weibull", [0.0, 0.1, 0.2])


def test_select_best_model_rejects_a_repeated_family():
    with pytest.raises(ParameterError, match="'lognormal' is listed more than once"):
        select_best_model([0.0, 0.1, 0.2], ["lognormal", "gaussian", "lognormal"])


def test_fit_is_permutation_invariant():
    data = BurrXII(9.64, 0.98, -0.46, 0.72).sample(RandomStream(31), 4000)
    shuffled = data.copy()
    np.random.default_rng(0).shuffle(shuffled)
    a = fit_mle("lognormal", data)
    b = fit_mle("lognormal", shuffled)
    assert a.params == b.params
    assert a.nll == b.nll
    assert a.sse == b.sse


def test_fit_is_deterministic():
    data = LogNormal(0.44, -0.30, 0.50).sample(RandomStream(32), 4000)
    assert fit_mle("lognormal", data) == fit_mle("lognormal", data)


@settings(max_examples=20, deadline=None)
@given(model=st.sampled_from([CONCRETE, HUMAN]), seed=st.integers(0, 2**32 - 1), k=st.integers(-3, 3))
def test_fits_do_not_depend_on_the_data_units(model, seed, k):
    # Samples in 10^k times smaller units: every location and scale is
    # 10^k times larger, the shapes, the ranking and the status stay, and
    # the NLL grows by n k log 10. A fit is as precise as the NLL's rounding
    # lets minimize's last steps be, about 1e-6 relative on 10k samples
    # (at most 1.1e-6 apart across units in 1,560 measured pairs).
    data = model.sample(RandomStream(seed), 10_000)
    families = ["gaussian", "burr12", "lognormal"]
    ranking, scaled = select_best_model(data, families), select_best_model(data * 10.0**k, families)
    assert [fit.family for fit in scaled] == [fit.family for fit in ranking]
    for fit, other in zip(ranking, scaled):
        assert other.converged == fit.converged
        assert other.nll == pytest.approx(fit.nll + data.size * k * math.log(10.0), rel=1e-12, abs=1e-8)
        for name in fit.params.__dataclass_fields__:
            unit = 10.0**k if name in ("mu", "sigma") else 1.0
            assert getattr(other.params, name) == pytest.approx(getattr(fit.params, name) * unit, rel=2e-6), name


@pytest.mark.parametrize(
    "family,model",
    [
        ("gaussian", Gaussian(0.004, 0.071)),
        ("burr12", BurrXII(9.64, 0.98, -0.46, 0.72)),
    ],
)
def test_round_trip_sse_small(family, model):
    # smoke-scale version of the full 1e5-sample round trip; the SSE of
    # a fitted pdf against its generator grows ~1/n, hence the wider bound
    data = model.sample(RandomStream(4242), 40_000)
    fit = fit_mle(family, data)
    epdf = empirical_pdf(data, 200)
    diff = fit.params.pdf(epdf.bin_centers) - model.pdf(epdf.bin_centers)
    assert float(diff @ diff) < 0.2


def test_select_best_model_prefers_generator_burr():
    data = BurrXII(32.84, 0.24, -1.63, 1.66).sample(RandomStream(2024), 20_000)
    ranking = select_best_model(data, ["gaussian", "burr12", "lognormal"])
    assert ranking[0].family == "burr12"
    assert [f.sse for f in ranking if f.error is None] == sorted(
        f.sse for f in ranking if f.error is None
    )


def test_select_best_model_prefers_gaussian_on_gaussian_data():
    data = Gaussian(0.0, 0.071).sample(RandomStream(11), 20_000)
    ranking = select_best_model(data, ["gaussian", "burr12", "lognormal"])
    assert ranking[0].family == "gaussian"


def test_select_ranking_does_not_depend_on_family_order():
    data = CONCRETE.sample(RandomStream(2021), 10_000)
    rankings = {tuple((fit.family, fit.sse) for fit in select_best_model(data, families))
                for families in itertools.permutations(["gaussian", "burr12", "lognormal"])}
    assert len(rankings) == 1


def _fit(family, params, sse, error=None):
    return FitResult(family, params, nll=0.0, sse=sse, iterations=0, error=error)


@pytest.mark.parametrize("fits, expected", [
    # SSEs 0.6e-12 apart: a "tied within 1e-12" rule is not transitive here
    ({"gaussian": _fit("gaussian", Gaussian(0.0, 0.1), 1.2e-12),
      "burr12": _fit("burr12", CONCRETE, 0.0),
      "lognormal": _fit("lognormal", LogNormal(0.17, -0.53, 0.81), 0.6e-12)},
     ["burr12", "lognormal", "gaussian"]),
    # an exact tie goes to fewer parameters, a NaN SSE sorts last, a failed fit after it
    ({"failed": _fit("burr12", HUMAN, 0.1, error="did not converge"),
      "burr12": _fit("burr12", CONCRETE, 0.5),
      "lognormal": _fit("lognormal", LogNormal(0.17, -0.53, 0.81), math.nan),
      "gaussian": _fit("gaussian", Gaussian(0.0, 0.1), 0.5)},
     ["gaussian", "burr12", "lognormal", "failed"]),
], ids=["tie-window", "exact-tie-nan-failed"])
def test_select_sorts_by_one_key_whatever_the_input_order(monkeypatch, fits, expected):
    monkeypatch.setattr(fitting, "fit_mle", lambda family, data: fits[family])
    label = {id(fit): name for name, fit in fits.items()}
    orders = {tuple(label[id(fit)] for fit in select_best_model([0.0, 1.0], families))
              for families in itertools.permutations(fits)}
    assert orders == {tuple(expected)}


def test_select_single_family():
    data = Gaussian(0.0, 0.071).sample(RandomStream(12), 2000)
    ranking = select_best_model(data, ["gaussian"])
    assert len(ranking) == 1
    assert ranking[0].family == "gaussian"


def test_select_requires_a_family():
    with pytest.raises(ParameterError):
        select_best_model([0.0, 0.1], [])


def test_select_scores_against_shared_histogram():
    data = Gaussian(0.0, 0.071).sample(RandomStream(13), 5000)
    ranking = select_best_model(data, ["gaussian"], bins=50)
    epdf = empirical_pdf(data, 50)
    assert ranking[0].sse == pytest.approx(sse_against(epdf, ranking[0].params), rel=1e-12)


@pytest.mark.parametrize("family", ["gaussian", "lognormal", "burr12"])
@pytest.mark.parametrize("data", [
    [math.nan, 1.0, 2.0, 3.0],
    [1.0, math.inf, 2.0, 3.0],
    [-math.inf, 1.0, 2.0, 3.0],
    [1e308, -1e308, 0.3],  # finite samples whose span overflows
    *(np.random.default_rng(0).normal(0.05, 0.07, 300) * scale  # squared densities overflow
      for scale in (1e-155, 1e-200, 1e-310)),
])
def test_fits_reject_non_finite_samples_and_overflowing_spans(family, data):
    with pytest.raises(DataError, match="finite"):
        fit_mle(family, data)
    with pytest.raises(DataError, match="finite"):
        select_best_model(data, [family])


def test_select_scores_each_fit_once(monkeypatch):
    # every family is scored against one shared histogram of the samples:
    # one histogram per selection, and the same SSE bit for bit as a
    # histogram of the unsorted samples.
    data = CONCRETE.sample(RandomStream(29), 2000)
    calls = []
    histogram = fitting.empirical_pdf

    def counted(*args):
        calls.append(args)
        return histogram(*args)

    monkeypatch.setattr(fitting, "empirical_pdf", counted)
    ranking = select_best_model(data, ["gaussian", "burr12", "lognormal"], bins=60)
    assert len(calls) == 1
    epdf = histogram(data, 60)
    for fit in ranking:
        assert fit.sse == sse_against(epdf, fit.params)


def _separate_fit(family, data):
    try:
        return fit_mle(family, data)
    except ConvergenceError as exc:
        return replace(exc.best, error=str(exc))


@pytest.mark.parametrize("model", [CONCRETE, HUMAN], ids=["concrete", "human"])
def test_select_matches_separate_fits_in_every_family_order(model):
    data = model.sample(RandomStream(41), 10_000)
    separate = {family: _separate_fit(family, data) for family in ("gaussian", "burr12", "lognormal")}
    for families in itertools.permutations(separate):
        for fit in select_best_model(data, families):
            expected = separate[fit.family]
            for name in ("params", "nll", "sse", "iterations", "converged", "error"):
                assert getattr(fit, name) == getattr(expected, name), (families, fit.family, name)


def test_select_fits_the_lognormal_profile_and_histogram_once(monkeypatch):
    calls, histograms = [], []
    minimize, histogram = fitting.minimize, fitting.empirical_pdf

    def counting(func, theta0, **kwargs):
        calls.append(func)
        return minimize(func, theta0, **kwargs)

    def counted(*args):
        histograms.append(args)
        return histogram(*args)

    monkeypatch.setattr(fitting, "minimize", counting)
    monkeypatch.setattr(fitting, "empirical_pdf", counted)
    select_best_model(CONCRETE.sample(RandomStream(43), 10_000), ["gaussian", "burr12", "lognormal"])
    assert calls == [fitting._lognormal_profile, fitting._burr12_profile]
    assert len(histograms) == 1
