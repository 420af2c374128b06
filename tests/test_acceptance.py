"""Acceptance suite: the shipped quantitative claims, each at its stated
tolerance, one printed status line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see every line.

Criterion 6a checks min-select on the concrete-wall model against its
closed form: the minimum of three independent Burr XII(c, d) draws is
exactly Burr XII(c, 3d), so the single-draw and min-select medians must
each fall inside the DKW band around the exact quantiles.

One check fails by analysis rather than by implementation error, and
its failure message carries the numbers: the drywall-divided floor
exceeds the open-floor median by ~2.5 cm (bound: 2 cm, criterion 2b).
The gap comes from the negative drywall bias acting together with the
solver's pull toward the anchor median; whether the bound, the model's
sign or the solver setting departs from the paper waits for the paper's
results. See the README's "Known acceptance deviations" section.
"""

import time

import numpy as np
from scipy.integrate import quad

from uwb_locsim import (
    Anchor,
    BUILTIN_PROFILES,
    BurrXII,
    Gaussian,
    Point3,
    PowerProfile,
    RandomStream,
    SolverConfig,
    TwrTiming,
    diversity_select,
    drift_error,
    energy_per_sstwr,
    jacobian,
    preset_scenario,
    run_scenario,
    solve,
)
from uwb_locsim.cli import main as cli_main
from uwb_locsim.fitting import empirical_pdf, fit_mle, select_best_model

from conftest import MODEL_SETS


def _criterion(cid: str, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {cid}] {status} - {description} ({detail})"
    print(line)
    assert passed, line


# ----------------------------------------------------------------- 1

def test_criterion_1_energy_reproduction():
    dw_energy = energy_per_sstwr(BUILTIN_PROFILES["dw1000"])
    bare_3db = energy_per_sstwr(
        PowerProfile("3db-bare", 20.7, 40.7, 6.6, 6.25e-4, 400.0, e_transition=0.0)
    )
    full_3db = energy_per_sstwr(BUILTIN_PROFILES["3db"])
    ok = (
        abs(dw_energy - 180.0) / 180.0 < 0.01
        and abs(bare_3db - 24.56) < 1e-9
        and abs(full_3db - 28.0) < 1e-9
    )
    _criterion(
        "1", "energy per SS-TWR",
        ok,
        f"dw1000 {dw_energy:.4f} uJ (nominal 180), 3db {bare_3db:.2f} bare / {full_3db:.2f} uJ",
    )


# ----------------------------------------------------------------- 2

def test_criterion_2_concrete_deployment_median():
    t0 = time.perf_counter()
    stats = run_scenario(preset_scenario("paper-concrete"))
    elapsed = time.perf_counter() - t0
    median = stats.aggregate_2d.median
    ok = 0.18 <= median <= 0.32 and elapsed < 60.0
    _criterion(
        "2a", "concrete-divided floor median 2D error in [18, 32] cm",
        ok,
        f"median {median * 100:.1f} cm, {stats.err2d.size} solves in {elapsed:.1f} s",
    )


def test_criterion_2_drywall_matches_open_floor():
    median_los = run_scenario(preset_scenario("paper-los")).aggregate_2d.median
    median_dry = run_scenario(preset_scenario("paper-drywall")).aggregate_2d.median
    gap = abs(median_dry - median_los)
    _criterion(
        "2b", "drywall-divided floor median 2D error within 2 cm of the open floor",
        gap <= 0.02,
        f"open {median_los * 100:.2f} cm vs drywall {median_dry * 100:.2f} cm, gap "
        f"{gap * 100:.2f} cm; the gap is stable across seeds, tag height and "
        f"iteration budget but comes from the negative drywall bias (-4.3 cm, "
        f"sigma 9.2 cm vs 0.4/7.1 cm) acting with the c = 0.1 /m pull toward the "
        f"anchor median: with the drywall bias at +4.3 cm the gap is 0.51 cm, with "
        f"c = 0 it is 1.8-2.0 cm; whether the bound, the model's sign or the solver "
        f"setting departs from the paper waits for the paper's results",
    )


# ----------------------------------------------------------------- 3

def test_criterion_3_distribution_correctness():
    n = 100_000
    worst_dkw = 0.0
    worst_integral_dev = 0.0
    for i, (label, family, model) in enumerate(MODEL_SETS):
        draws = np.sort(model.sample(RandomStream(500 + i), n))
        cdf = model.cdf(draws)
        dkw = max(
            np.abs(np.arange(1, n + 1) / n - cdf).max(),
            np.abs(cdf - np.arange(n) / n).max(),
        )
        worst_dkw = max(worst_dkw, dkw)
        if isinstance(model, Gaussian):
            lo, hi = model.mu - 12 * model.sigma, model.mu + 12 * model.sigma
        else:
            lo, hi = model.mu, model.quantile(1 - 1e-12)
        integral, _ = quad(model.pdf, lo, hi, limit=300)
        worst_integral_dev = max(worst_integral_dev, abs(integral - 1.0))
    ok = worst_dkw < 0.0061 and worst_integral_dev < 1e-6
    _criterion(
        "3", "10^5 inverse-transform samples inside the DKW band, pdf integral = 1",
        ok,
        f"worst sup|ECDF-CDF| {worst_dkw:.5f} (bound 0.0061), "
        f"worst |integral-1| {worst_integral_dev:.2e} (bound 1e-6)",
    )


# ----------------------------------------------------------------- 4

def test_criterion_4_fit_round_trip_and_ranking():
    worst_sse = 0.0
    for i, (label, family, model) in enumerate(MODEL_SETS):
        data = model.sample(RandomStream(1000 + i), 100_000)
        fit = fit_mle(family, data)
        epdf = empirical_pdf(data, 200)
        diff = fit.params.pdf(epdf.bin_centers) - model.pdf(epdf.bin_centers)
        worst_sse = max(worst_sse, float(diff @ diff))
    human = MODEL_SETS[4][2]
    ranking = select_best_model(
        human.sample(RandomStream(2024), 50_000), ["gaussian", "burr12", "lognormal"]
    )
    ok = worst_sse < 0.05 and ranking[0].family == "burr12"
    _criterion(
        "4", "fit round-trip SSE < 0.05 on all six models; Burr XII ranked first on "
        "human-shadowing data",
        ok,
        f"worst SSE {worst_sse:.4f}, ranking {[r.family for r in ranking]}",
    )


# ----------------------------------------------------------------- 5

def _random_nondegenerate_anchors(rng, count=4):
    while True:
        positions = np.column_stack(
            [rng.uniform(0, 10, count), rng.uniform(0, 10, count), rng.uniform(0, 3, count)]
        )
        volume = abs(np.linalg.det(positions[1:4] - positions[0])) / 6.0
        if volume > 8.0 and np.ptp(positions[:, 2]) > 1.5:
            return positions


def test_criterion_5a_zero_noise_recovery():
    rng = np.random.default_rng(501)
    worst = 0.0
    for _ in range(100):
        positions = _random_nondegenerate_anchors(rng)
        anchors = [Anchor(str(i), Point3(*p)) for i, p in enumerate(positions)]
        truth = np.array([rng.uniform(2, 8), rng.uniform(2, 8), rng.uniform(0.5, 2.5)])
        start = truth + rng.normal(0, 0.4, 3)  # within ~1 m of the truth
        config = SolverConfig(delta=1e-9, k_max=10, c=0.0, x0=Point3(*start))
        distances = np.linalg.norm(positions - truth[None, :], axis=1)
        estimate = solve(config, anchors, distances)
        worst = max(worst, float(np.linalg.norm(estimate.position.as_array() - truth)))
    _criterion(
        "5a", "zero-noise recovery < 1e-6 m on 100 random anchor configurations",
        worst < 1e-6,
        f"worst error {worst:.2e} m",
    )


def test_criterion_5b_jacobian_vs_finite_differences():
    rng = np.random.default_rng(502)
    step = 1e-6
    worst = 0.0
    for _ in range(50):
        positions = _random_nondegenerate_anchors(rng, count=5)
        anchors = [Anchor(str(i), Point3(*p)) for i, p in enumerate(positions)]
        x = rng.uniform(1, 9, 3)
        rows = jacobian(Point3(*x), anchors)
        for k in range(3):
            plus, minus = x.copy(), x.copy()
            plus[k] += step
            minus[k] -= step
            fd = -(
                np.linalg.norm(positions - plus, axis=1)
                - np.linalg.norm(positions - minus, axis=1)
            ) / (2 * step)
            worst = max(worst, float(np.abs(rows[:, k] - fd).max()))
    _criterion(
        "5b", "analytic direction rows match central finite differences within 1e-5",
        worst < 1e-5,
        f"worst elementwise gap {worst:.2e}",
    )


def _grid_search_minimizer(positions, distances, c, x_r):
    """Independent brute-force oracle: coarse 10 cm scan over the anchor
    hull plus a 3 m margin, then a 1 cm scan around the coarse argmin."""

    def objective(points):
        dist = np.linalg.norm(points[:, None, :] - positions[None, :, :], axis=2)
        return ((dist - distances[None, :]) ** 2).sum(axis=1) + c * c * (
            (points - x_r[None, :]) ** 2
        ).sum(axis=1)

    lo_xy, hi_xy = positions[:, :2].min() - 3.0, positions[:, :2].max() + 3.0
    lo_z, hi_z = positions[:, 2].min() - 3.0, positions[:, 2].max() + 3.0
    xy = np.arange(lo_xy, hi_xy + 1e-9, 0.1)
    gx, gy = np.meshgrid(xy, xy, indexing="ij")
    plane = np.column_stack([gx.ravel(), gy.ravel()])
    best_value, best_point = np.inf, None
    for z in np.arange(lo_z, hi_z + 1e-9, 0.1):
        points = np.column_stack([plane, np.full(len(plane), z)])
        values = objective(points)
        i = values.argmin()
        if values[i] < best_value:
            best_value, best_point = values[i], points[i]
    axes = [np.arange(best_point[k] - 0.15, best_point[k] + 0.15 + 1e-9, 0.01) for k in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    fine = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    return fine[objective(fine).argmin()]


def test_criterion_5c_solver_matches_brute_force():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        positions = _random_nondegenerate_anchors(rng)
        anchors = [Anchor(str(i), Point3(*p)) for i, p in enumerate(positions)]
        x_r = np.median(positions, axis=0)
        truth = np.array([rng.uniform(2, 8), rng.uniform(2, 8), rng.uniform(0.8, 2.2)])
        distances = np.linalg.norm(positions - truth[None, :], axis=1)
        distances[rng.integers(0, 4)] += 0.46  # hard-NLOS-sized bias on one anchor
        config = SolverConfig(delta=1e-6, k_max=50, c=0.1, x0=Point3(*truth))
        estimate = solve(config, anchors, distances).position.as_array()
        oracle = _grid_search_minimizer(positions, distances, 0.1, x_r)
        worst = max(worst, float(np.linalg.norm(estimate - oracle)))
    _criterion(
        "5c", "solver within 2 cm of the 1 cm brute-force minimizer on 20 biased instances",
        worst < 0.02,
        f"worst gap {worst * 100:.2f} cm",
    )


# ----------------------------------------------------------------- 6

def _min_of_three(model: BurrXII) -> BurrXII:
    # survival (1 + z^c)^(-d) cubed is (1 + z^c)^(-3d)
    return BurrXII(c=model.c, d=3.0 * model.d, mu=model.mu, sigma=model.sigma)


def test_min_of_three_burr12_is_burr12_with_tripled_d():
    concrete = MODEL_SETS[2][2]
    x = np.linspace(concrete.mu - 0.1, concrete.quantile(1.0 - 1e-9), 2001)
    min_cdf = 1.0 - (1.0 - concrete.cdf(x)) ** 3
    worst = float(np.abs(min_cdf - _min_of_three(concrete).cdf(x)).max())
    assert worst < 1e-12, f"min-of-three CDF differs from Burr XII(c, 3d) by {worst:.2e}"


def test_criterion_6_concrete_min_select_bias_ratio():
    concrete = MODEL_SETS[2][2]
    n = 10_000
    triples = concrete.sample(RandomStream(606), 3 * n).reshape(n, 3)
    single_median = float(np.median(triples[:, 0]))
    min_median = float(np.median([diversity_select(row, "min") for row in triples]))
    # with probability >= 1 - 1e-3 the ECDF of n draws stays within eps of
    # the CDF (DKW), which puts the sample median in [Q(0.5-eps), Q(0.5+eps)]
    eps = np.sqrt(np.log(2.0 / 1e-3) / (2 * n))
    single_lo, single_hi = concrete.quantile([0.5 - eps, 0.5 + eps])
    min_lo, min_hi = _min_of_three(concrete).quantile([0.5 - eps, 0.5 + eps])
    ok = single_lo <= single_median <= single_hi and min_lo <= min_median <= min_hi
    _criterion(
        "6a", "concrete-model single-draw and min-select medians match Burr XII(c, d) "
        "and Burr XII(c, 3d) within the DKW band",
        ok,
        f"single-draw median {single_median * 100:.2f} cm in [{single_lo * 100:.2f}, "
        f"{single_hi * 100:.2f}], min-select median {min_median * 100:.2f} cm in "
        f"[{min_lo * 100:.2f}, {min_hi * 100:.2f}], ratio "
        f"{single_median / min_median:.2f} (exact "
        f"{concrete.quantile(0.5) / _min_of_three(concrete).quantile(0.5):.2f})",
    )


def test_criterion_6_los_min_and_mean_select():
    los = MODEL_SETS[0][2]
    triples = los.sample(RandomStream(607), 30_000).reshape(10_000, 3)
    min_median = float(np.median(triples.min(axis=1)))
    mean_median = float(np.median(triples.mean(axis=1)))
    ok = min_median < 0.0 and abs(mean_median) < 0.01
    _criterion(
        "6b", "LOS min-select median strictly negative; mean-select median within 1 cm of 0",
        ok,
        f"min-select median {min_median * 100:.2f} cm, mean-select median "
        f"{mean_median * 100:.2f} cm",
    )


def test_min_select_is_the_diversity_module_path():
    # the acceptance statistics above go through the same selector the
    # simulator uses
    values = [0.46, 0.18, 0.30]
    assert diversity_select(values, "min") == min(values)


# ----------------------------------------------------------------- 7

def test_criterion_7_clock_drift_arithmetic():
    timing = TwrTiming(t_round=400e-6, t_proc=300e-6, e1=20e-6, e2=-20e-6)
    drift_ns = drift_error(timing, 33.356e-9) * 1e9
    ok = abs(drift_ns - 6.0007) < 1e-4
    _criterion(
        "7", "drift error for (20 ppm, -20 ppm, 300 us, 33.356 ns) equals 6.0007 ns",
        ok,
        f"computed {drift_ns:.6f} ns",
    )


# ----------------------------------------------------------------- 8

def test_criterion_8_determinism_across_threads(tmp_path):
    out_one = tmp_path / "threads1"
    out_eight = tmp_path / "threads8"
    rc1 = cli_main(["simulate", "--preset", "paper-concrete", "--seed", "42",
                    "--threads", "1", "--out", str(out_one)])
    rc8 = cli_main(["simulate", "--preset", "paper-concrete", "--seed", "42",
                    "--threads", "8", "--out", str(out_eight)])
    identical = all(
        (out_one / name).read_bytes() == (out_eight / name).read_bytes()
        for name in ("points.csv", "ecdf.csv", "report.json")
    )
    ok = rc1 == 0 and rc8 == 0 and identical
    _criterion(
        "8", "seed 42 with 1 and 8 threads produces byte-identical output files",
        ok,
        "points.csv, ecdf.csv, report.json compared",
    )
