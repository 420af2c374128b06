import math
import warnings

import numpy as np
import pytest

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
from uwb_locsim.fitting import sse_against

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
# BFGS fits must match or beat.
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


def test_human_burr_fit_reaches_heavy_tail_basin_from_one_start(monkeypatch):
    calls = []

    def counting(func, theta0, **kwargs):
        calls.append(kwargs["method"])
        return minimize(func, theta0, **kwargs)

    minimize = fitting.minimize
    monkeypatch.setattr(fitting, "minimize", counting)
    fit = fit_mle("burr12", HUMAN.sample(RandomStream(7), 10_000))
    assert fit.params.d < 0.5
    assert calls == ["BFGS", "BFGS"]  # the log-normal start, then Burr XII


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
    assert excinfo.value.best.params.c > 100.0
    ranking = select_best_model(data, ["gaussian", "burr12", "lognormal"])
    assert ranking[-1].family == "burr12"
    assert ranking[-1].error is not None
    assert all(fit.error is None for fit in ranking[:-1])


@pytest.mark.parametrize("family", ["lognormal", "burr12"])
@pytest.mark.parametrize("data", [
    np.random.default_rng(0).normal(size=20),  # BFGS tries a c where sum(log(1 + z^c)) = 0
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
])
def test_fits_reject_non_finite_samples_and_overflowing_spans(family, data):
    with pytest.raises(DataError, match="finite"):
        fit_mle(family, data)
    with pytest.raises(DataError, match="finite"):
        select_best_model(data, [family])


def test_select_scores_each_fit_once(monkeypatch):
    # fit_mle scores against the histogram of the same samples and bins,
    # so the ranking keeps that score: one histogram per family, and the
    # same SSE bit for bit as a histogram of the unsorted samples.
    data = CONCRETE.sample(RandomStream(29), 2000)
    calls = []
    histogram = fitting.empirical_pdf

    def counted(*args):
        calls.append(args)
        return histogram(*args)

    monkeypatch.setattr(fitting, "empirical_pdf", counted)
    ranking = select_best_model(data, ["gaussian", "burr12", "lognormal"], bins=60)
    assert len(calls) == 3
    epdf = histogram(data, 60)
    for fit in ranking:
        assert fit.sse == sse_against(epdf, fit.params)
