import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtri

from uwb_locsim import BurrXII, DataError, Gaussian, LogNormal, ParameterError, RandomStream
from uwb_locsim import distributions
from uwb_locsim.randomness import cell_uniform_array
from uwb_locsim.scenarios import read_model

from conftest import MODEL_SETS

# high-precision reference values (50-digit arithmetic)
LOGNORMAL_CONCRETE_PDF_AT_028 = 2.8971843166408  # LogNormal(0.17, -0.53, 0.81) at x = 0.28
BURR_CONCRETE_MEDIAN = 0.2621013978721633  # BurrXII(9.64, 0.98, -0.46, 0.72)


def _scipy_twin(dist):
    if isinstance(dist, Gaussian):
        return stats.norm(loc=dist.mu, scale=dist.sigma)
    if isinstance(dist, BurrXII):
        return stats.burr12(dist.c, dist.d, loc=dist.mu, scale=dist.sigma)
    return stats.lognorm(dist.s, loc=dist.mu, scale=dist.sigma)


def test_gaussian_peak_density():
    model = Gaussian(mu=0.004, sigma=0.071)
    assert model.pdf(0.004) == pytest.approx(1.0 / (0.071 * math.sqrt(2 * math.pi)), rel=1e-12)
    assert model.pdf(0.004) == pytest.approx(5.618905, abs=1e-6)


def test_gaussian_symmetry_and_median():
    model = Gaussian(mu=0.004, sigma=0.071)
    assert model.cdf(0.004) == 0.5
    assert Gaussian(0.0, 0.071).quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_burr_density_vanishes_at_and_below_location():
    model = BurrXII(c=9.64, d=0.98, mu=-0.46, sigma=0.72)
    assert model.pdf(-0.46) == 0.0
    assert model.pdf(-5.0) == 0.0
    assert model.cdf(-0.46) == 0.0


def test_burr_cdf_at_one_scale_above_location():
    model = BurrXII(c=9.64, d=0.98, mu=-0.46, sigma=0.72)
    assert model.cdf(-0.46 + 0.72) == pytest.approx(1.0 - 2.0 ** (-0.98), rel=1e-12)


def test_burr_median_closed_form_and_bisection():
    model = BurrXII(c=9.64, d=0.98, mu=-0.46, sigma=0.72)
    median = model.quantile(0.5)
    assert median == pytest.approx(BURR_CONCRETE_MEDIAN, abs=1e-12)
    # independent oracle: bisection on the cdf
    lo, hi = -0.46, 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if model.cdf(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    assert median == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_lognormal_pdf_against_high_precision_value():
    model = LogNormal(s=0.17, mu=-0.53, sigma=0.81)
    assert model.pdf(0.28) == pytest.approx(LOGNORMAL_CONCRETE_PDF_AT_028, rel=1e-12)


def test_lognormal_median_is_location_plus_scale():
    assert LogNormal(0.44, -0.30, 0.50).quantile(0.5) == pytest.approx(0.20, abs=1e-12)
    assert LogNormal(0.44, -0.30, 0.50).cdf(0.20) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("label,family,model", MODEL_SETS, ids=[m[0] for m in MODEL_SETS])
def test_matches_scipy_reference(label, family, model):
    twin = _scipy_twin(model)
    xs = twin.ppf(np.linspace(0.001, 0.999, 61))
    np.testing.assert_allclose(model.pdf(xs), twin.pdf(xs), rtol=1e-10)
    np.testing.assert_allclose(model.cdf(xs), twin.cdf(xs), rtol=1e-10, atol=1e-14)
    us = np.linspace(0.0005, 0.9995, 57)
    np.testing.assert_allclose(model.quantile(us), twin.ppf(us), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("label,family,model", MODEL_SETS, ids=[m[0] for m in MODEL_SETS])
def test_quantile_cdf_identities(label, family, model):
    us = np.linspace(0.0005, 0.9995, 1000)
    xs = model.quantile(us)
    np.testing.assert_allclose(model.cdf(xs), us, atol=1e-9)
    grid = model.quantile(np.linspace(0.01, 0.99, 1000))
    np.testing.assert_allclose(model.quantile(model.cdf(grid)), grid, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("label,family,model", MODEL_SETS, ids=[m[0] for m in MODEL_SETS])
def test_pdf_integrates_to_one(label, family, model):
    if isinstance(model, Gaussian):
        lo, hi = model.mu - 12 * model.sigma, model.mu + 12 * model.sigma
    else:
        lo, hi = model.mu, model.quantile(1 - 1e-12)
    integral, _ = quad(model.pdf, lo, hi, limit=300)
    assert integral == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("label,family,model", MODEL_SETS, ids=[m[0] for m in MODEL_SETS])
def test_pdf_nonnegative_and_cdf_monotone(label, family, model):
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(model.mu - 2.0, model.mu + 8.0, 500))
    pdf = model.pdf(xs)
    cdf = model.cdf(xs)
    assert np.all(pdf >= 0.0)
    assert np.all(np.isfinite(pdf))
    assert np.all(np.diff(cdf) >= 0.0)


def test_norm_ppf_within_8_ulp_of_ndtri():
    # Cell uniforms as the simulator draws them, deep tails on both sides
    # and the two extreme cell values (0.5 * 2**-53 and 1 - 2**-53).
    tiny = np.logspace(-300, -1, 3000)
    u = np.concatenate([
        cell_uniform_array(2024, np.arange(100_000), np.arange(2)[:, None]).ravel(),
        tiny,
        1.0 - np.logspace(-16, -1, 3000),
        [0.5 * 2.0**-53, 1.0 - 2.0**-53],
    ])
    ref = ndtri(u)
    got = distributions._norm_ppf(u)
    ulps = np.abs(got - ref) / np.spacing(np.abs(ref))
    assert ulps.max() <= 8, f"worst {ulps.max():.0f} ulp at u = {u[ulps.argmax()]!r}"


# One value per AS241 branch, recorded while the central rational was
# still evaluated on the central elements alone: central (0.075 on its
# edge, 0.925 just past it), near tail (r <= 5), far tail (r > 5), and
# the two extreme cell uniforms.
_PPF_BRANCH_PINS = {
    0.5: "0x0.0p+0",
    0.3: "-0x1.0c7e39582c5fap-1",
    0.7: "0x1.0c7e39582c5fap-1",
    0.075: "-0x1.7085226d3e523p+0",
    0.925: "0x1.7085226d3e524p+0",
    0.07: "-0x1.79cd70d9c27f0p+0",
    0.93: "0x1.79cd70d9c27f3p+0",
    1e-6: "-0x1.30381a9799f7ep+2",
    1.0 - 1e-6: "0x1.30381a97985f1p+2",
    2e-11: "-0x1.a6a9350dc279bp+2",
    1e-12: "-0x1.c234fba57a32ap+2",
    1e-300: "-0x1.286074064c26ep+5",
    0.5 * 2.0**-53: "-0x1.095b059d67c4cp+3",
    1.0 - 2.0**-53: "0x1.06b48528cea51p+3",
}


def test_norm_ppf_shape_and_branch_contract():
    u = np.array(list(_PPF_BRANCH_PINS))
    r = np.sqrt(-np.log(np.minimum(u, 1.0 - u)))
    central = np.abs(u - 0.5) <= 0.425
    assert central.sum() == 4 and (~central & (r <= 5.0)).sum() == 6 and (r > 5.0).sum() == 4
    flat = distributions._norm_ppf(u)
    assert [x.hex() for x in flat.tolist()] == list(_PPF_BRANCH_PINS.values())
    bits = flat.view(np.int64)
    for k, value in enumerate(u.tolist()):
        for form in (value, np.float64(value), np.array(value)):
            got = distributions._norm_ppf(form)
            assert got.shape == () and got.view(np.int64) == bits[k], (form, got)
    wide = np.zeros(2 * u.size)
    wide[::2] = u
    for shaped, expected in [
        (u.reshape(2, 7), bits.reshape(2, 7)),
        (np.asfortranarray(u.reshape(2, 7)), bits.reshape(2, 7)),
        (u.reshape(7, 2).T, bits.reshape(7, 2).T),
        (wide[::2], bits),
        (u[::-1], bits[::-1]),
    ]:
        assert np.array_equal(distributions._norm_ppf(shaped).view(np.int64), expected)


def test_sampling_is_inverse_transform():
    model = BurrXII(c=9.64, d=0.98, mu=-0.46, sigma=0.72)
    u = RandomStream(314).uniforms(5)
    assert model.sample(RandomStream(314), 5).tolist() == model.quantile(u).tolist()


def test_sampling_median_draw(fixed_stream):
    model = Gaussian(mu=0.004, sigma=0.071)
    assert model.sample(fixed_stream([0.5]), 1).tolist() == [model.quantile(0.5)]


# Pinned bit for bit: the first three draws of RandomStream(7) through each
# shipped model, and pdf/cdf of the concrete shifted models at mu - 1, mu,
# mu + 0.5 and mu + 1.5.
_SAMPLE_PINS = {
    "los-gaussian": ["-0x1.03e6e8c37532cp-6", "-0x1.2cd145b70e9a6p-3", "0x1.8657fed10d8c0p-4"],
    "drywall-gaussian": ["-0x1.198d33f383316p-4", "-0x1.e8787bae0f0eap-3", "0x1.347085b139bc3p-4"],
    "concrete-burr12": ["0x1.d544c03c5129ep-3", "0x1.aad85523893a0p-7", "0x1.ccd3f627d3ef1p-2"],
    "concrete-lognormal": ["0x1.f06414cff6980p-3", "0x1.19cebe1bd7930p-5", "0x1.e961f7e055d24p-2"],
    "human-burr12": ["0x1.0a5464051aed0p-3", "-0x1.8dbe4150238e0p-4", "0x1.30d6b58d4194cp-1"],
    "human-lognormal": ["0x1.22ffd8db9cbf0p-3", "-0x1.a8d39f4dd407ep-4", "0x1.292d4af0833c0p-1"],
}
_SUPPORT_PINS = {  # offset from mu -> (pdf, cdf)
    "concrete-burr12": {
        -1.0: ("0x0.0p+0", "0x0.0p+0"),
        0.0: ("0x0.0p+0", "0x0.0p+0"),
        0.5: ("0x1.0f8280e407722p-1", "0x1.cfe7c5d5260e4p-6"),
        1.5: ("0x1.9168b832a7628p-8", "0x1.ff806c496d72dp-1"),
    },
    "concrete-lognormal": {
        -1.0: ("0x0.0p+0", "0x0.0p+0"),
        0.0: ("0x0.0p+0", "0x0.0p+0"),
        0.5: ("0x1.56e0c5a3c841bp-4", "0x1.29b35c861c177p-9"),
        1.5: ("0x1.1fc0e98e08fa9p-9", "0x1.ffed08facc99dp-1"),
    },
}
_MODELS_BY_LABEL = {label: model for label, _, model in MODEL_SETS}


@pytest.mark.parametrize("label", list(_SAMPLE_PINS))
def test_samples_are_pinned(label):
    draws = _MODELS_BY_LABEL[label].sample(RandomStream(7), 3).tolist()
    assert [v.hex() for v in draws] == _SAMPLE_PINS[label]


@pytest.mark.parametrize("label", list(_SUPPORT_PINS))
def test_shifted_pdf_and_cdf_are_pinned(label):
    model = _MODELS_BY_LABEL[label]
    for offset, (pdf, cdf) in _SUPPORT_PINS[label].items():
        x = model.mu + offset
        assert (model.pdf(x).hex(), model.cdf(x).hex()) == (pdf, cdf), offset
        assert model.pdf(np.array([x])).tolist() == [model.pdf(x)]
        assert model.cdf(np.array([x])).tolist() == [model.cdf(x)]


def test_gaussian_sample_mean():
    model = Gaussian(mu=0.004, sigma=0.071)
    draws = model.sample(RandomStream(271828), 100_000)
    assert abs(draws.mean() - 0.004) < 1e-3


def test_heavy_tail_sampling_respects_dkw_band():
    model = BurrXII(c=32.84, d=0.24, mu=-1.63, sigma=1.66)
    n = 100_000
    draws = np.sort(model.sample(RandomStream(161803), n))
    cdf = model.cdf(draws)
    gap = max(
        np.abs(np.arange(1, n + 1) / n - cdf).max(),
        np.abs(cdf - np.arange(0, n) / n).max(),
    )
    assert gap < 0.0061


def test_sampling_is_bit_reproducible():
    model = LogNormal(0.44, -0.30, 0.50)
    assert np.array_equal(
        model.sample(RandomStream(5), 1000), model.sample(RandomStream(5), 1000)
    )


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Gaussian(0.0, 0.0),
        lambda: Gaussian(float("nan"), 1.0),
        lambda: BurrXII(0.0, 1.0, 0.0, 1.0),
        lambda: BurrXII(1.0, -1.0, 0.0, 1.0),
        lambda: BurrXII(1.0, 1.0, 0.0, 0.0),
        lambda: LogNormal(0.0, 0.0, 1.0),
        lambda: LogNormal(0.2, 0.0, -1.0),
    ],
)
def test_invalid_parameters_are_rejected_at_construction(bad):
    with pytest.raises(ParameterError):
        bad()


_VALID = {Gaussian: {"mu": 0.0, "sigma": 1.0}, BurrXII: {"c": 1.0, "d": 1.0, "mu": 0.0, "sigma": 1.0},
          LogNormal: {"s": 1.0, "mu": 0.0, "sigma": 1.0}}
_PARAMETER_ERRORS = [  # (family, parameter, the error for a zero or NaN value; None: 0 is valid)
    (Gaussian, "mu", None, "gaussian mu must be finite"),
    (Gaussian, "sigma", "gaussian sigma must be > 0", "gaussian sigma must be > 0"),
    (BurrXII, "c", "burr12 c must be > 0", "burr12 c must be > 0"),
    (BurrXII, "d", "burr12 d must be > 0", "burr12 d must be > 0"),
    (BurrXII, "mu", None, "burr12 mu must be finite"),
    (BurrXII, "sigma", "burr12 sigma must be > 0", "burr12 sigma must be > 0"),
    (LogNormal, "s", "lognormal s must be > 0", "lognormal s must be > 0"),
    (LogNormal, "mu", None, "lognormal mu must be finite"),
    (LogNormal, "sigma", "lognormal sigma must be > 0", "lognormal sigma must be > 0"),
]


@pytest.mark.parametrize("cls, name, at_zero, at_nan", _PARAMETER_ERRORS,
                         ids=[f"{cls.family}.{name}" for cls, name, _, _ in _PARAMETER_ERRORS])
def test_parameter_errors_name_family_and_parameter(cls, name, at_zero, at_nan):
    for bad, message in ((0.0, at_zero), (math.nan, at_nan)):
        params = {**_VALID[cls], name: bad}
        if message is None:
            assert getattr(cls(**params), name) == bad
            continue
        with pytest.raises(ParameterError) as excinfo:
            cls(**params)
        assert str(excinfo.value) == message


@pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
def test_quantile_domain_errors(u):
    with pytest.raises(ParameterError):
        Gaussian(0.0, 1.0).quantile(u)


_ONE_PER_FAMILY = [m for m in MODEL_SETS if m[0] in ("los-gaussian", "concrete-burr12", "concrete-lognormal")]


@pytest.mark.parametrize("label,family,model", _ONE_PER_FAMILY, ids=[m[0] for m in _ONE_PER_FAMILY])
@pytest.mark.parametrize("u", [math.nan, 0.0, 1.0, [0.5, math.nan], [[math.nan], [0.5]], [0.0, 0.5], [0.5, 1.0]],
                         ids=["nan", "0", "1", "list-nan", "2d-nan", "list-0", "list-1"])
def test_quantile_rejects_nan_and_the_interval_ends(label, family, model, u):
    # NaN fails every comparison, so a test of u <= 0 or u >= 1 let it through
    with pytest.raises(ParameterError, match=r"strictly in \(0, 1\)"):
        model.quantile(u)


@pytest.mark.parametrize("label,family,model", _ONE_PER_FAMILY, ids=[m[0] for m in _ONE_PER_FAMILY])
def test_quantile_of_an_empty_array_is_empty(label, family, model):
    for shape in ((0,), (0, 3)):
        out = model.quantile(np.empty(shape))
        assert out.shape == shape and out.dtype == np.float64


@pytest.mark.parametrize("label,family,model", MODEL_SETS, ids=[m[0] for m in MODEL_SETS])
def test_serialization_round_trip(label, family, model):
    spec = distributions.to_dict(model)
    assert spec["family"] == family
    assert read_model(spec, "model") == model


def test_from_dict_rejects_bad_specs():
    with pytest.raises(DataError):
        read_model({"family": "cauchy", "params": {}}, "model")
    with pytest.raises(DataError):
        read_model({"family": "gaussian", "params": {"mu": 0.0, "sd": 1.0}}, "model")
    with pytest.raises(DataError):
        read_model({"params": {"mu": 0.0, "sigma": 1.0}}, "model")
    with pytest.raises(DataError, match="params.mu"):
        read_model({"family": "gaussian", "params": {"mu": "abc", "sigma": 1.0}}, "model")
    with pytest.raises(DataError, match="params"):
        read_model({"family": "gaussian", "params": "ab"}, "model")
    with pytest.raises(DataError, match="family"):
        read_model({"family": [], "params": {}}, "model")


_UNIT = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
_LOCATION = st.floats(min_value=-2.0, max_value=2.0)
_SCALE = st.floats(min_value=0.01, max_value=2.0)
_MODELS = st.one_of(
    st.builds(Gaussian, mu=_LOCATION, sigma=_SCALE),
    # d spans both Burr XII likelihood basins: d ~ 1 (concrete) and d ~ 0.24 (human)
    st.builds(BurrXII, c=st.floats(1.0, 40.0), d=st.floats(0.2, 1.5), mu=_LOCATION, sigma=_SCALE),
    st.builds(LogNormal, s=st.floats(0.05, 1.5), mu=_LOCATION, sigma=_SCALE),
)


@settings(max_examples=300, deadline=None)
@given(model=_MODELS, us=st.lists(_UNIT, min_size=1, max_size=20))
def test_cdf_inverts_quantile_across_parameter_space(model, us):
    us = np.array(us)
    np.testing.assert_allclose(model.cdf(model.quantile(us)), us, rtol=0.0, atol=1e-9)
