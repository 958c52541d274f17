import dataclasses
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc

from helpers import (
    gibbs_oracle,
    robustness_cell_oracle,
    s_conditional_logweights,
    subset_oracle,
    synth_dataset,
)

from dprep import (
    ADConfig,
    BudgetLedger,
    ConfigError,
    Dataset,
    Laplace,
    NoisyRelease,
    RngStream,
    build_fixed_region,
    build_inflated_region,
    compute_indicator_count,
    delta_star,
    fit_ols,
    gibbs_posterior,
    make_partition,
    parse_formula,
    release_count,
    robustness_contour,
    theta_hat,
)
from dprep.ad import beta_conditional, s_marginal_logweights
from dprep.privacy import Released


def _released(s_noisy, M, eps=1.0, seed=0, prior=(1.0, 1.0), mcmc=(500, 1000)):
    """Released built directly from a noisy count, for posterior-only tests."""
    config = ADConfig(M=M, epsilon=eps, seed=seed, prior=prior, mcmc=mcmc)
    record = NoisyRelease(value=float(s_noisy), epsilon_spent=eps, sensitivity=1.0)
    return Released(config=config, release=record)


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
    for sigma, alpha, n0, n in ((1.0, 1.0, 0, 1), (1.0, math.inf, 10, 5), (math.inf, 1.0, 10, 5)):
        with pytest.raises(ConfigError):
            build_inflated_region(0.0, sigma, alpha, n0, n)


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
    for sigma, alpha, n in ((1.0, 1.0, 0), (math.inf, 1.0, 5), (1.0, math.nan, 5)):
        with pytest.raises(ConfigError):  # n = 0 was a ZeroDivisionError
            delta_star(0.0, sigma, alpha, n0=10, n=n)


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
    expected, estimates = [], []
    for l in range(3):
        rows = np.flatnonzero(plan.assignment == l)
        X = np.column_stack([np.ones(rows.size)] +
                            [ds.column(c)[rows] for c in ("x1", "x2", "x3")])
        beta, *_ = np.linalg.lstsq(X, ds.column("y")[rows], rcond=None)
        expected.append(1 if beta[2] >= 0.0 else 0)
        estimates.append(beta[2])
    assert ind.W.tolist() == expected
    assert ind.S == sum(expected)
    assert ind.estimates == pytest.approx(estimates, rel=1e-9)


def test_singular_subset_aborts_with_index():
    # a singular subset does not abort the count: it is imputed as W_l = 0
    # with a NaN estimate, and the other subset is counted as fitted alone
    plan = make_partition(8, 2, seed=1)
    x = np.arange(8.0)
    x[plan.assignment == 0] = 5.0  # subset 0 becomes constant in x
    ds = Dataset({"x": x, "y": np.arange(8.0) + 1.0})
    model = parse_formula("y ~ x")
    ind = compute_indicator_count(ds, model, "x", build_fixed_region(0, math.inf), plan)
    expected = subset_oracle(ds, plan, lambda sub: fit_ols(sub, model).coef("x"))
    assert expected[0] is None and expected[1] > 0
    assert np.isnan(ind.estimates[0]) and ind.estimates[1] == expected[1]
    assert ind.W.tolist() == [0, 1] and ind.S == 1


def test_release_count_uses_unit_sensitivity():
    config = ADConfig(M=4, epsilon=0.5, seed=11)
    ledger = BudgetLedger(cap=1.0)
    released = release_count(3, config, ledger)
    twin = RngStream(11).child("ad-release")
    assert released.release.value == 3.0 + Laplace(0.5, 1.0).sample(twin)
    assert released.release.sensitivity == 1.0
    assert ledger.spent == pytest.approx(0.5)


# ------------------------------------------------------------------ gibbs

def test_r_conditional_is_exact_beta():
    rng = RngStream(100).child("beta-check").generator
    draws = beta_conditional(rng, S=10, M=20, a=1.0, b=1.0, size=5000)
    assert draws.mean() == pytest.approx(0.5, abs=0.02)
    ks = stats.kstest(draws, stats.beta(11, 11).cdf).statistic
    assert ks < 0.03


def _exact_s_pmf(s_noisy, M, eps, a=1.0, b=1.0):
    """p(S | s_noisy) over 0..M from scipy's Beta-Binomial prior times the
    Laplace likelihood, independent of the package's log-weights."""
    s = np.arange(M + 1)
    w = stats.betabinom.pmf(s, M, a, b) * np.exp(-eps * np.abs(s_noisy - s))
    return w / w.sum()


def test_s_conditional_two_point_oracle():
    # M=1, eps=1, s_noisy=0.3, flat prior: B(1, 2) = B(2, 1) = 1/2, so
    # P(S=0) = e^{-0.3} / (e^{-0.3} + e^{-0.7}) = 1/(1+e^{-0.4})
    logw = s_marginal_logweights(0.3, M=1, mechanism=Laplace(1.0, 1.0), a=1.0, b=1.0)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    assert w[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.4)), abs=1e-12)
    assert w[0] == pytest.approx(0.599, abs=1e-3)


def test_s_conditional_handles_r_endpoints():
    # the reference Gibbs sampler's S | r weights
    for r in (0.0, 1.0):
        logw = s_conditional_logweights(2.0, M=5, eps=1.0, r=r)
        assert np.isfinite(logw).sum() == 1  # all mass on S=0 (or S=M)


EXACT_CASES = [(20, 1.0, 9.7), (200, 0.01, 120.0), (1000, 1.0, 512.3)]


@pytest.mark.parametrize("M, eps, s_noisy", EXACT_CASES)
def test_s_draws_match_exact_marginal(M, eps, s_noisy):
    # chi-square goodness of fit of 20,000 S draws, bins with expected
    # count below 5 pooled; fixed seed, tolerance p > 0.001
    post = gibbs_posterior(_released(s_noisy, M, eps=eps, seed=3, mcmc=(0, 20_000)))
    expected = 20_000 * _exact_s_pmf(s_noisy, M, eps)
    observed = np.bincount(post.s_samples, minlength=M + 1)
    big = expected >= 5
    obs, exp = list(observed[big]), list(expected[big])
    if not big.all():
        obs.append(observed[~big].sum())
        exp.append(expected[~big].sum())
    assert stats.chisquare(obs, exp).pvalue > 1e-3


@pytest.mark.parametrize("M, eps, s_noisy, delta",
                         [case + (d,) for case in EXACT_CASES for d in (0.5, 0.51)])
def test_theta_hat_matches_exact_value(M, eps, s_noisy, delta):
    # exact theta = sum_S p(S | z) * P(r >= delta | S), r | S ~ Beta(S+1, M-S+1)
    s = np.arange(M + 1)
    exact = float(np.sum(_exact_s_pmf(s_noisy, M, eps) * (1 - betainc(s + 1, M - s + 1, delta))))
    post = gibbs_posterior(_released(s_noisy, M, eps=eps, seed=4, mcmc=(0, 20_000)))
    mc_sd = math.sqrt(exact * (1 - exact) / 20_000)
    assert abs(theta_hat(post.r_samples, delta) - exact) <= 4 * mc_sd


def test_theta_hat_spread_across_seeds_at_small_epsilon():
    # eps=0.01, M=200: the Laplace likelihood is nearly flat, where a Gibbs
    # chain of 500 + 1000 sweeps mixed poorly (sd 0.128 over 12 seeds);
    # 1000 independent draws give sd about sqrt(0.58 * 0.42 / 1000) = 0.016
    thetas = [gibbs_posterior(_released(120.0, M=200, eps=0.01, seed=seed)).theta_hat
              for seed in range(20)]
    assert np.std(thetas) <= 0.03


@pytest.mark.parametrize("M, s_noisy", [(20, 9.7), (1000, 512.3)])
def test_r_draws_match_reference_gibbs(M, s_noisy):
    # at eps=1 the reference chain mixes within a few sweeps; thinned to
    # every 10th sweep its 2,000 draws are close to independent.  Two-sample
    # KS tolerance: p > 0.001
    post = gibbs_posterior(_released(s_noisy, M, eps=1.0, seed=8, mcmc=(0, 20_000)))
    reference, _ = gibbs_oracle(_released(s_noisy, M, eps=1.0, seed=9),
                                burn_in=500, keep=2000, thin=10)
    assert stats.ks_2samp(post.r_samples, reference).pvalue > 1e-3


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


def test_gibbs_refuses_a_release_of_an_unknown_mechanism():
    # the posterior models the law the record names, and knows only Laplace
    released = _released(12.4, M=20, seed=5)
    geometric = Released(released.config, dataclasses.replace(released.release,
                                                               mechanism="geometric"))
    with pytest.raises(ConfigError, match="unknown release mechanism 'geometric'"):
        gibbs_posterior(geometric)


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
                              N=160_364, epsilon=1.0, region=region)
    assert grid.T[0, 0] == 0.0


def test_contour_far_cell_matches_direct_monte_carlo():
    region = build_fixed_region(500.0, math.inf)
    M, N, n0, sigma = 20, 160_364, 154_442, 97.0
    n = N // M
    sd = sigma * math.sqrt(n0 / n)
    gamma = 500.0 + 10.0 * sd

    grid = robustness_contour([gamma], [M], sigma, n0, N, 1.0, region)
    t_pkg = grid.T[0, 0]

    # oracle: the same statistic from a direct 10^5-rep simulation
    rng = np.random.default_rng(999)
    S = (rng.normal(gamma, sd, size=(100_000, M)) >= 500.0).sum(axis=1)
    r_obs = (S + rng.laplace(0, 1.0, size=100_000)) / M
    q10, q90 = np.quantile(r_obs, [0.1, 0.9])
    t_oracle = 0.0 if q10 <= 0.5 <= q90 else (q10 - 0.5 if q10 > 0.5 else 0.5 - q90)

    assert t_pkg > 0.3
    assert t_pkg == pytest.approx(t_oracle, abs=0.05)


def test_contour_quantiles_match_simulation_oracle():
    """T at the two cells that set the Monte Carlo noise, pinned to 4
    decimals.  Above the region T = q10 - 0.5, and at the mirror cell below
    it T = 0.5 - q90; in 10^6 simulated replicates the fraction of r_obs at
    or below each exact quantile q lies within 3 standard errors of q."""
    region = build_fixed_region(500.0, math.inf)
    K = 1_000_000
    cells = [(1010.0, 20, 0.2565, 0.1), (750.0, 35, 0.0569, 0.1), (-10.0, 20, 0.2565, 0.9)]
    for i, (gamma, M, pinned, q) in enumerate(cells):
        T = robustness_contour([gamma], [M], 97.0, 154_442, 160_364, 1.0, region).T[0, 0]
        assert T == pytest.approx(pinned, abs=5e-5)
        quantile = 0.5 + T if q < 0.5 else 0.5 - T
        r_obs = robustness_cell_oracle(gamma, M, 97.0, 154_442, 160_364, 1.0, region, K,
                                       RngStream(12).child("ad-contour-oracle", i))
        assert abs(np.mean(r_obs <= quantile) - q) <= 3 * math.sqrt(q * (1 - q) / K)


def test_contour_csv_layout():
    region = build_fixed_region(0.0, math.inf)
    # far below and far above the region, p is exactly 0 and 1
    grid = robustness_contour([0.0, 2.0, -1e9, 1e9], [4, 8], 1.0, 100, 100, 1.0, region)
    lines = grid.to_csv().strip().splitlines()
    assert lines[0] == "gamma\\M,4,8"
    assert len(lines) == 5
    assert lines[1].startswith("0,")
    # S is then 0 or M, r_obs is Laplace(0, 1/M) about 0 or 1, and
    # T = 1/2 - ln(5)/M; the same holds when the region is the whole line
    point_mass = 0.5 - math.log(5) / np.array([4, 8])
    whole_line = robustness_contour([0.0], [4, 8], 1.0, 100, 100, 1.0,
                                    build_fixed_region(-math.inf, math.inf))
    for row in (grid.T[2], grid.T[3], whole_line.T[0]):
        assert row == pytest.approx(point_mass, abs=1e-12)


def test_contour_validation():
    region = build_fixed_region(0.0, math.inf)
    with pytest.raises(ConfigError):
        robustness_contour([math.inf], [5], 1.0, 100, 100, 1.0, region)
    with pytest.raises(ConfigError):
        robustness_contour([0.0], [200], 1.0, 100, 100, 1.0, region)
    with pytest.raises(ConfigError):
        robustness_contour([], [5], 1.0, 100, 100, 1.0, region)
    for sigma, n0, eps in ((1.0, 0, 1.0), (math.inf, 10, 1.0), (1.0, 10, math.inf)):
        with pytest.raises(ConfigError):
            robustness_contour([0.0], [5], sigma, n0, 100, eps, region)


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
    for bad in ({"epsilon": math.inf}, {"prior": (math.inf, 1.0)}, {"prior": (1.0, math.nan)},
                {"mcmc": (0, 10**6 + 1)},
                {"mcmc": (0, 100.0)}):  # numpy refused it after the release
        with pytest.raises(ConfigError):
            ADConfig(**{"M": 2, "epsilon": 1.0, **bad})
    with pytest.raises(TypeError):
        ADConfig(2, 1.0)  # keyword-only
    assert ADConfig(M=2, epsilon=1.0, mcmc=(0, 10**6)).mcmc == (0, 10**6)
