import math

import numpy as np
import pytest
from scipy import stats

from helpers import synth_dataset

from dprep import (
    ADConfig,
    BudgetLedger,
    ConfigError,
    Dataset,
    NoisyRelease,
    RngStream,
    SingularFitError,
    build_fixed_region,
    build_inflated_region,
    compute_indicator_count,
    delta_star,
    gibbs_posterior,
    laplace_sample,
    make_partition,
    parse_formula,
    release_count,
    robustness_contour,
    theta_hat,
)
from dprep.ad import ADReleased, beta_conditional, s_conditional_logweights


def _released(s_noisy, M, eps=1.0, seed=0, prior=(1.0, 1.0), mcmc=(500, 1000)):
    """ADReleased built directly from a noisy count, for posterior-only tests."""
    config = ADConfig(M=M, epsilon=eps, seed=seed, prior=prior, mcmc=mcmc)
    record = NoisyRelease(value=float(s_noisy), epsilon_spent=eps, sensitivity=1.0)
    return ADReleased(s_noisy=float(s_noisy), config=config, release=record)


# ---------------------------------------------------------------- regions

def test_fixed_region_membership():
    sign = build_fixed_region(0.0, math.inf)
    assert sign.contains(0.5) and not sign.contains(-0.1)
    assert sign.contains(0.0)  # closed boundary
    app = build_fixed_region(500.0, math.inf)
    assert app.contains(500.0) and app.contains(1e9) and not app.contains(499.999)


def test_fixed_region_degenerate_rejected():
    with pytest.raises(ConfigError):
        build_fixed_region(1.0, 1.0)
    with pytest.raises(ConfigError):
        build_fixed_region(2.0, 1.0)


def test_inflated_region_scaling():
    # alpha* = alpha*sqrt(n0/n): 1.96 * sqrt(100) = 19.6
    r = build_inflated_region(0.0, 1.0, alpha=1.96, n0=10_000, n=100)
    assert r.upper == pytest.approx(19.6)
    assert r.lower == pytest.approx(-19.6)
    assert r.kind == "inflated"

    same = build_inflated_region(2.0, 0.5, alpha=3.0, n0=5000, n=5000)
    assert (same.lower, same.upper) == (pytest.approx(0.5), pytest.approx(3.5))

    r2 = build_inflated_region(0.971, 0.031, alpha=6.0, n0=10_000, n=10_000)
    assert r2.lower == pytest.approx(0.785, abs=1e-12)
    assert r2.upper == pytest.approx(1.157, abs=1e-12)


def test_inflated_region_refuses_deflation():
    with pytest.raises(ConfigError, match="choose M"):
        build_inflated_region(0.0, 1.0, alpha=2.0, n0=100, n=200)


def test_delta_star_values():
    # oracle: Phi(alpha(1 + 1/s)) - Phi(alpha(1/s - 1)) via erf
    def phi(x):
        return 0.5 * (1 + math.erf(x / math.sqrt(2)))

    got = delta_star(0.0, 1.0, alpha=1.96, n0=10_000, n=100)
    assert got == pytest.approx(phi(1.96 * 1.1) - phi(1.96 * (0.1 - 1)), abs=1e-12)
    assert got == pytest.approx(0.9456, abs=1e-4)

    # s = 1 reduction: Phi(2 alpha) - 1/2
    for alpha in (0.7, 1.96, 3.0):
        assert delta_star(1.0, 2.0, alpha, n0=400, n=400) == \
               pytest.approx(phi(2 * alpha) - 0.5, abs=1e-12)

    with pytest.raises(ConfigError):
        delta_star(0.0, 1.0, 1.0, n0=10, n=20)


# ------------------------------------------------------- indicator counts

def test_full_cover_region_counts_everything():
    ds = synth_dataset(200, seed=1)
    plan = make_partition(200, 5, seed=2)
    ind = compute_indicator_count(ds, parse_formula("y ~ x1 + x2 + x3"), "x2",
                                  build_fixed_region(-math.inf, math.inf), plan)
    assert ind.S == 5
    assert ind.W.tolist() == [1] * 5


def test_near_degenerate_region_counts_nothing():
    ds = synth_dataset(200, seed=1)
    plan = make_partition(200, 5, seed=2)
    c = 0.9
    sliver = build_fixed_region(c, np.nextafter(c, np.inf))
    ind = compute_indicator_count(ds, parse_formula("y ~ x1 + x2 + x3"), "x2",
                                  sliver, plan)
    assert ind.S == 0


def test_indicator_count_matches_brute_force_fits():
    ds = synth_dataset(90, seed=8)
    plan = make_partition(90, 3, seed=4)
    region = build_fixed_region(0.0, math.inf)
    model = parse_formula("y ~ x1 + x2 + x3")
    ind = compute_indicator_count(ds, model, "x2", region, plan)

    # oracle: independent lstsq fit per subset
    expected = []
    for l in range(3):
        rows = plan.rows_of(l)
        X = np.column_stack([np.ones(rows.size)] +
                            [ds.column(c)[rows] for c in ("x1", "x2", "x3")])
        beta, *_ = np.linalg.lstsq(X, ds.column("y")[rows], rcond=None)
        expected.append(1 if beta[2] >= 0.0 else 0)
    assert ind.W.tolist() == expected
    assert ind.S == sum(expected)
    assert ind.estimates == pytest.approx(
        [np.linalg.lstsq(
            np.column_stack([np.ones(plan.rows_of(l).size)] +
                            [ds.column(c)[plan.rows_of(l)] for c in ("x1", "x2", "x3")]),
            ds.column("y")[plan.rows_of(l)], rcond=None)[0][2]
         for l in range(3)], rel=1e-9)


def test_singular_subset_aborts_with_index():
    plan = make_partition(8, 2, seed=1)
    x = np.arange(8.0)
    x[plan.rows_of(0)] = 5.0  # subset 0 becomes constant in x
    ds = Dataset({"x": x, "y": np.arange(8.0) + 1.0})
    with pytest.raises(SingularFitError, match="subset 0") as exc_info:
        compute_indicator_count(ds, parse_formula("y ~ x"), "x",
                                build_fixed_region(0, math.inf), plan)
    assert exc_info.value.subset == 0


def test_release_count_uses_unit_sensitivity():
    config = ADConfig(M=4, epsilon=0.5, seed=11)
    ledger = BudgetLedger(cap=1.0)
    released = release_count(3, config, ledger)
    twin = RngStream(11).child("ad-release")
    assert released.s_noisy == 3.0 + laplace_sample(twin, 1.0 / 0.5)
    assert released.release.sensitivity == 1.0
    assert ledger.spent == pytest.approx(0.5)


# ------------------------------------------------------------------ gibbs

def test_r_conditional_is_exact_beta():
    rng = RngStream(100).child("beta-check").generator
    draws = beta_conditional(rng, S=10, M=20, a=1.0, b=1.0, size=5000)
    assert draws.mean() == pytest.approx(0.5, abs=0.02)
    ks = stats.kstest(draws, stats.beta(11, 11).cdf).statistic
    assert ks < 0.03


def test_s_conditional_two_point_oracle():
    # M=1, eps=1, s_noisy=0.3, r=0.5:
    # P(S=0) = e^{-0.3}*0.5 / (e^{-0.3}*0.5 + e^{-0.7}*0.5) = 1/(1+e^{-0.4})
    logw = s_conditional_logweights(0.3, M=1, eps=1.0, r=0.5)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    assert w[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.4)), abs=1e-12)
    assert w[0] == pytest.approx(0.599, abs=1e-3)


def test_s_conditional_handles_r_endpoints():
    for r in (0.0, 1.0):
        logw = s_conditional_logweights(2.0, M=5, eps=1.0, r=r)
        assert np.isfinite(logw).sum() == 1  # all mass on S=0 (or S=M)


def test_gibbs_reproducible_and_in_range():
    released = _released(12.4, M=20, seed=5)
    p1 = gibbs_posterior(released)
    p2 = gibbs_posterior(released)
    assert np.array_equal(p1.r_samples, p2.r_samples)
    assert np.array_equal(p1.s_samples, p2.s_samples)
    assert p1.r_samples.size == 1000
    assert np.all((p1.r_samples > 0) & (p1.r_samples < 1))
    assert np.all((p1.s_samples >= 0) & (p1.s_samples <= 20))
    assert p1.delta == 0.5  # default for an unspecified degree of certainty


def test_gibbs_tracks_the_noisy_count():
    high = gibbs_posterior(_released(18.0, M=20, seed=6))
    low = gibbs_posterior(_released(2.0, M=20, seed=6))
    assert np.median(high.r_samples) > 0.75
    assert np.median(low.r_samples) < 0.25


def test_theta_hat_examples():
    assert theta_hat(np.full(100, 0.9), 0.5) == 1.0
    symmetric = np.concatenate([np.linspace(0.01, 0.49, 50), np.linspace(0.51, 0.99, 50)])
    assert theta_hat(symmetric, 0.5) == pytest.approx(0.5, abs=0.01)
    with pytest.raises(ConfigError):
        theta_hat(symmetric, 0.0)


def test_theta_hat_nonincreasing_in_delta():
    post = gibbs_posterior(_released(9.7, M=20, seed=9))
    deltas = np.linspace(0.01, 0.99, 33)
    thetas = [theta_hat(post.r_samples, d) for d in deltas]
    assert all(a >= b for a, b in zip(thetas, thetas[1:]))


def test_application_analog_far_boundary_truth():
    # M=20 subsets whose estimates sit well above a one-sided bound: the
    # posterior verdict should be emphatic (around 0.99)
    rng = RngStream(2021).child("app-analog").generator
    estimates = rng.normal(1010.0, 791.7, size=20)
    S = int(np.sum(estimates >= 500.0))
    config = ADConfig(M=20, epsilon=1.0, seed=2021)
    released = release_count(S, config, BudgetLedger(cap=1.0))
    post = gibbs_posterior(released)
    assert post.theta_hat >= 0.95


def test_posterior_concentrates_with_more_subsets():
    # at a fixed s_noisy/M ratio the posterior sd of r shrinks from M=10 to M=90
    wins = 0
    for seed in range(50):
        sd10 = gibbs_posterior(_released(0.6 * 10, M=10, seed=seed)).r_samples.std()
        sd90 = gibbs_posterior(_released(0.6 * 90, M=90, seed=seed)).r_samples.std()
        wins += sd90 < sd10
    assert wins >= 48  # at least 95% of 50 paired runs


def test_consistency_with_clearly_separated_truth():
    # full pipeline, n=1000 per subset, M=50: a region the true coefficient
    # (0.9) sits deep inside gives medians near 1; one it sits far outside
    # gives medians near 0
    model = parse_formula("y ~ x1 + x2 + x3")
    interior = build_fixed_region(0.0, math.inf)
    exterior = build_fixed_region(2.0, math.inf)
    for region, predicate, needed in (
        (interior, lambda m: m > 0.9, 18),
        (exterior, lambda m: m < 0.1, 18),
    ):
        hits = 0
        for seed in range(20):
            ds = synth_dataset(50_000, seed=1000 + seed)
            config = ADConfig(M=50, epsilon=1.0, seed=seed)
            plan = make_partition(ds.n_rows, 50, seed=seed)
            ind = compute_indicator_count(ds, model, "x2", region, plan)
            released = release_count(ind.S, config, BudgetLedger(cap=1.0))
            post = gibbs_posterior(released)
            hits += predicate(float(np.median(post.r_samples)))
        assert hits >= needed


# ----------------------------------------------------- robustness contour

def test_contour_boundary_cell_is_ambiguous():
    region = build_fixed_region(500.0, math.inf)
    grid = robustness_contour([500.0], [20], sigma_hat_o=97.0, n0=154_442,
                              N=160_364, epsilon=1.0, region=region, K=750, seed=0)
    assert grid.T[0, 0] == 0.0


def test_contour_far_cell_matches_direct_monte_carlo():
    region = build_fixed_region(500.0, math.inf)
    M, N, n0, sigma = 20, 160_364, 154_442, 97.0
    n = N // M
    sd = sigma * math.sqrt(n0 / n)
    gamma = 500.0 + 10.0 * sd

    grid = robustness_contour([gamma], [M], sigma, n0, N, 1.0, region, K=750, seed=3)
    t_pkg = grid.T[0, 0]

    # oracle: the same statistic from a direct 10^5-rep simulation
    rng = np.random.default_rng(999)
    S = (rng.normal(gamma, sd, size=(100_000, M)) >= 500.0).sum(axis=1)
    r_obs = (S + rng.laplace(0, 1.0, size=100_000)) / M
    q10, q90 = np.quantile(r_obs, [0.1, 0.9])
    t_oracle = 0.0 if q10 <= 0.5 <= q90 else (q10 - 0.5 if q10 > 0.5 else 0.5 - q90)

    assert t_pkg > 0.3
    assert t_pkg == pytest.approx(t_oracle, abs=0.05)


def test_contour_cells_use_independent_keyed_streams():
    region = build_fixed_region(0.0, math.inf)
    grid = robustness_contour([0.0, 1.0], [5, 10], 1.0, 1000, 1000, 1.0,
                              region, K=200, seed=12)
    # rebuild cell (1, 1) by hand from its keyed stream
    i, j = 1, 1
    M = 10
    n = 1000 // M
    sd = 1.0 * math.sqrt(1000 / n)
    stream = RngStream(12).child("ad-contour", i * 2 + j)
    coefs = stream.generator.normal(1.0, sd, size=(200, M))
    S = ((coefs >= 0.0) & (coefs <= math.inf)).sum(axis=1)
    r_obs = (S + laplace_sample(stream, 1.0, size=200)) / M
    q10, q90 = np.quantile(r_obs, [0.1, 0.9])
    expected = 0.0 if q10 <= 0.5 <= q90 else (q10 - 0.5 if q10 > 0.5 else 0.5 - q90)
    assert grid.T[i, j] == pytest.approx(expected, abs=1e-15)

    again = robustness_contour([0.0, 1.0], [5, 10], 1.0, 1000, 1000, 1.0,
                               region, K=200, seed=12)
    assert np.array_equal(grid.T, again.T)


def test_contour_csv_layout():
    region = build_fixed_region(0.0, math.inf)
    grid = robustness_contour([0.0, 2.0], [4, 8], 1.0, 100, 100, 1.0,
                              region, K=100, seed=1)
    lines = grid.to_csv().strip().splitlines()
    assert lines[0] == "gamma\\M,4,8"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


def test_contour_validation():
    region = build_fixed_region(0.0, math.inf)
    with pytest.raises(ConfigError):
        robustness_contour([0.0], [5], 1.0, 100, 100, 1.0, region, K=10)
    with pytest.raises(ConfigError):
        robustness_contour([0.0], [200], 1.0, 100, 100, 1.0, region, K=100)
    with pytest.raises(ConfigError):
        robustness_contour([], [5], 1.0, 100, 100, 1.0, region, K=100)


def test_ad_config_validation():
    with pytest.raises(ConfigError):
        ADConfig(M=1, epsilon=1.0)
    with pytest.raises(ConfigError):
        ADConfig(M=2, epsilon=0.0)
    with pytest.raises(ConfigError):
        ADConfig(M=2, epsilon=1.0, delta=1.0)
    with pytest.raises(ConfigError):
        ADConfig(M=2, epsilon=1.0, prior=(0.0, 1.0))
    with pytest.raises(ConfigError):
        ADConfig(M=2, epsilon=1.0, mcmc=(10, 0))
