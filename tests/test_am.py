import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from helpers import (am_overlap, overlap_measure, reference_cell_oracle, replace_row,
                     subset_oracle, synth_dataset)

from dprep import (
    AMConfig,
    BudgetLedger,
    ConfidenceInterval,
    ConfigError,
    Dataset,
    DegenerateIntervalError,
    InversionAssumption,
    Laplace,
    NoisyRelease,
    RngStream,
    average_overlap,
    confidence_interval,
    credible_interval,
    error_bound,
    fit_ols,
    invert_credible_interval,
    invert_overlap,
    make_partition,
    null_assumption_lengths,
    parse_formula,
    posterior_nu,
    reference_contour,
    release_overlap,
)
from dprep.am import OverlapResult
from dprep.planning import Z975
from dprep.privacy import Released
from dprep.verify import summarize_nu_samples


def _ci(lo, hi, level=0.95):
    return ConfidenceInterval(lo, hi, level)


def _released(nu_noisy, M, eps=1.0, seed=0, prior=(1.0, 1.0), grid_points=10001):
    config = AMConfig(M=M, epsilon=eps, seed=seed, prior=prior, grid_points=grid_points)
    record = NoisyRelease(value=float(nu_noisy), epsilon_spent=eps, sensitivity=1.0 / M)
    return Released(config=config, release=record)


# ---------------------------------------------------------------- overlap

def test_overlap_reference_values():
    assert am_overlap(_ci(0, 2), _ci(0, 2)) == 1.0
    assert am_overlap(_ci(0, 1), _ci(2, 3)) == 0.0
    assert am_overlap(_ci(0, 2), _ci(1, 3)) == pytest.approx(0.5, abs=0)
    assert am_overlap(_ci(0, 4), _ci(1, 2)) == pytest.approx(0.625, abs=0)
    # touching intervals share a single point: zero length, zero overlap
    assert am_overlap(_ci(0, 1), _ci(1, 2)) == 0.0


def test_overlap_symmetry_and_degenerate():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = np.sort(rng.uniform(-5, 5, 2))
        b = np.sort(rng.uniform(-5, 5, 2))
        if a[0] == a[1] or b[0] == b[1]:
            continue
        i1, i2 = _ci(*a), _ci(*b)
        assert am_overlap(i1, i2) == am_overlap(i2, i1)
    with pytest.raises(DegenerateIntervalError):
        overlap_measure(_ci(1, 1), _ci(0, 2))


def test_overlap_one_iff_identical():
    rng = np.random.default_rng(1)
    for k in range(500):
        a = np.sort(rng.integers(-64, 64, 2)) / 16.0
        if a[0] == a[1]:
            continue
        if k % 3 == 0:
            b = a.copy()
        else:
            b = np.sort(rng.integers(-64, 64, 2)) / 16.0
            if b[0] == b[1]:
                continue
        nu = am_overlap(_ci(*a), _ci(*b))
        assert (nu == 1.0) == bool(np.array_equal(a, b))


def test_overlap_translation_monotonicity():
    base = _ci(0.0, 2.0)
    shifts = np.linspace(0.0, 4.0, 41)
    nus = [am_overlap(base, _ci(s, s + 1.5)) for s in shifts]
    assert all(x >= y - 1e-15 for x, y in zip(nus, nus[1:]))


def test_overlap_matches_exact_rational_oracle():
    rng = np.random.default_rng(2)
    for _ in range(500):
        ints = rng.integers(-128, 128, size=4)
        a = np.sort(ints[:2]); b = np.sort(ints[2:])
        if a[0] == a[1] or b[0] == b[1]:
            continue
        af = [Fraction(int(v), 8) for v in a]
        bf = [Fraction(int(v), 8) for v in b]
        c = max(Fraction(0), min(af[1], bf[1]) - max(af[0], bf[0]))
        exact = (c / (af[1] - af[0]) + c / (bf[1] - bf[0])) / 2
        got = am_overlap(_ci(a[0] / 8, a[1] / 8), _ci(b[0] / 8, b[1] / 8))
        assert got == pytest.approx(float(exact), abs=1e-12)


# --------------------------------------------------------- average overlap

def test_average_overlap_identical_models_is_one():
    ds = synth_dataset(120, seed=3)
    plan = make_partition(120, 4, seed=5)
    m = parse_formula("y ~ x1 + x2")
    res = average_overlap(ds, m, m, "x1", plan)
    assert res.nus.tolist() == [1.0] * 4
    assert res.nu_bar == 1.0
    assert res.lower.shape == res.upper.shape == (2, 4)


def test_average_overlap_matches_hand_computation():
    ds = synth_dataset(60, seed=7)
    plan = make_partition(60, 2, seed=9)
    m0 = parse_formula("y ~ x1 + x2")
    m1 = parse_formula("y ~ x1 + x3")
    res = average_overlap(ds, m0, m1, "x1", plan, level=0.9)

    expected = []
    for l in range(2):
        rows = np.flatnonzero(plan.assignment == l)
        cis = []
        for covs in (("x1", "x2"), ("x1", "x3")):
            X = np.column_stack([np.ones(rows.size)] +
                                [ds.column(c)[rows] for c in covs])
            y = ds.column("y")[rows]
            beta, rss, *_ = np.linalg.lstsq(X, y, rcond=None)
            resid = y - X @ beta
            df = rows.size - X.shape[1]
            s2 = resid @ resid / df
            se = math.sqrt(s2 * np.linalg.inv(X.T @ X)[1, 1])
            half = stats.t.ppf(0.95, df) * se
            cis.append((beta[1] - half, beta[1] + half))
        l1 = cis[0][1] - cis[0][0]
        l2 = cis[1][1] - cis[1][0]
        c = max(0.0, min(cis[0][1], cis[1][1]) - max(cis[0][0], cis[1][0]))
        expected.append(0.5 * (c / l1 + c / l2))
    assert res.nus == pytest.approx(expected, rel=1e-10)
    assert res.nu_bar == pytest.approx(np.mean(expected), rel=1e-10)


def test_average_overlap_requires_untransformed_coefficient():
    ds = synth_dataset(60, seed=7)
    plan = make_partition(60, 2, seed=9)
    with pytest.raises(ConfigError, match="untransformed"):
        average_overlap(ds, parse_formula("y ~ sq(x1)"),
                        parse_formula("y ~ x1"), "x1", plan)


def test_average_overlap_singular_abort_names_model():
    plan = make_partition(8, 2, seed=1)
    x = np.arange(8.0)
    z = np.arange(8.0) ** 2
    z[plan.assignment == 1] = 1.0  # model1's extra column is constant in subset 1
    ds = Dataset({"x": x, "z": z, "y": x + 1.0})
    m0, m1 = parse_formula("y ~ x"), parse_formula("y ~ x + z")
    # the singular fit does not abort the run: subset 1 gets nu = 0 and NaN
    # bounds for model1, and subset 0 the overlap of its fits alone
    res = average_overlap(ds, m0, m1, "x", plan)
    expected = subset_oracle(ds, plan, lambda sub: overlap_measure(
        *(confidence_interval(fit_ols(sub, m), "x", 0.95) for m in (m0, m1))))
    assert expected[1] is None and expected[0] is not None
    assert res.nus.tolist() == [expected[0], 0.0]
    assert res.nu_bar == expected[0] / 2
    assert np.isnan(res.lower[1, 1]) and np.isnan(res.upper[1, 1])


def test_average_overlap_imputes_an_interval_of_infinite_width():
    # a response cell of 1e200 overflows its subset's residual variance:
    # that subset's intervals are infinitely wide, and it gets nu = 0
    # rather than a NaN that would reach the release
    ds = synth_dataset(120, seed=6)
    plan = make_partition(120, 4, seed=1)
    big = replace_row(ds, 5, {"y": 1e200})
    m0, m1 = parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + x3")
    res, base = (average_overlap(d, m0, m1, "x1", plan) for d in (big, ds))
    held = plan.assignment[5]
    assert np.isinf(res.upper[:, held]).all() and res.nus[held] == 0.0
    others = np.arange(4) != held
    assert np.array_equal(res.nus[others], base.nus[others])
    assert math.isfinite(res.nu_bar)


def test_release_overlap_sensitivity_is_one_over_m():
    config = AMConfig(M=25, epsilon=1.0, seed=13)
    ledger = BudgetLedger(cap=1.0)
    result = OverlapResult(nus=np.full(25, 0.8), nu_bar=0.8,
                           lower=np.zeros((2, 25)), upper=np.ones((2, 25)))
    released = release_overlap(result, config, ledger)
    twin = RngStream(13).child("am-release")
    assert released.release.value == 0.8 + Laplace(1.0, 1.0 / 25.0).sample(twin)
    assert released.release.sensitivity == pytest.approx(1.0 / 25.0)


# ---------------------------------------------------------- posterior(nu)

def test_posterior_point_mass_limit():
    post = posterior_nu(_released(0.5, M=100, eps=100.0))  # M*eps = 1e4
    assert post.mean == pytest.approx(0.5, abs=1e-3)
    assert credible_interval(post, 0.5).length < 0.01


def test_posterior_prior_dominated_limit():
    post = posterior_nu(_released(0.5, M=2, eps=5e-7))  # M*eps = 1e-6
    assert post.mean == pytest.approx(0.5, abs=0.01)
    # density is essentially flat on [0, 1]
    assert post.density.max() - post.density.min() < 1e-3


def test_posterior_density_normalized_and_in_bounds():
    post = posterior_nu(_released(1.03, M=25))
    assert np.trapezoid(post.density, post.grid) == pytest.approx(1.0, abs=1e-6)
    assert np.all(post.density >= 0)
    quantiles = post.quantile(np.linspace(0.0, 1.0, 101))
    assert np.all((quantiles >= 0) & (quantiles <= 1)) and np.all(np.diff(quantiles) >= 0)
    assert post.cdf[0] == 0.0 and post.cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_posterior_quantiles_match_analytic_form():
    # flat prior and nu_noisy above 1: density ~ exp(M*eps*(nu-1.03)) on [0,1],
    # so quantiles have the closed form log(1 + p(e^c - 1))/c with c = M*eps
    post = posterior_nu(_released(1.03, M=25, eps=1.0))
    c = 25.0
    for p in (0.05, 0.25, 0.5, 0.75, 0.95):
        analytic = math.log(1 + p * (math.exp(c) - 1)) / c
        assert post.quantile(p) == pytest.approx(analytic, abs=5e-4)
    ci = credible_interval(post, 0.9)
    assert ci.lower == pytest.approx(0.878, abs=0.01)
    assert ci.upper == pytest.approx(0.998, abs=0.01)


def test_posterior_mean_between_prior_mean_and_observation():
    post = posterior_nu(_released(0.9, M=25))
    assert 0.5 < post.mean < 0.9
    post_low = posterior_nu(_released(0.1, M=25))
    assert 0.1 < post_low.mean < 0.5


def test_posterior_open_grid_for_singular_priors():
    post = posterior_nu(_released(0.5, M=10, prior=(0.5, 0.5)))
    assert post.grid[0] > 0.0 and post.grid[-1] < 1.0
    assert np.all(np.isfinite(post.density))
    assert np.trapezoid(post.density, post.grid) == pytest.approx(1.0, abs=1e-6)


def test_posterior_is_the_same_whatever_the_seed():
    # nothing is drawn after the release: the seed picks only the noise
    a = posterior_nu(_released(0.7, M=25, seed=3))
    b = posterior_nu(_released(0.7, M=25, seed=4))
    for name in ("grid", "density", "cdf"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert summarize_nu_samples(a, 0.95) == summarize_nu_samples(b, 0.95)


def test_posterior_models_the_law_its_release_records():
    # the rate is epsilon / sensitivity of the release record, which the
    # report publishes, not M * epsilon of the config (they part in the last bit)
    release = _released(0.7, M=9, eps=0.1).release
    post = posterior_nu(Released(AMConfig(M=9, epsilon=0.1), release))
    rate = 0.1 / (1 / 9)
    assert rate != 9 * 0.1
    logpdf = -rate * np.abs(post.grid - 0.7)
    pdf = np.exp(logpdf - logpdf.max())
    assert np.array_equal(post.density, pdf / np.trapezoid(pdf, post.grid))


def test_credible_interval_validation():
    post = posterior_nu(_released(0.7, M=25))
    with pytest.raises(ConfigError):
        credible_interval(post, 1.0)


# ------------------------------------------------------------ error bound

def test_error_bound_values():
    assert error_bound(25, 1.0, 0.2) == pytest.approx(0.33, abs=1e-12)
    assert error_bound(25, 1.0, 0.2, variance_cap=1 / 12) == \
           pytest.approx(0.16333333, abs=1e-6)
    assert error_bound(10**9, 1.0, 0.2) < 1e-8
    with pytest.raises(ConfigError):
        error_bound(0, 1.0, 0.2)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            error_bound(25, eps, 0.2)


# ------------------------------------------------------ reference contour

def test_contour_perfectly_coupled_case():
    # corr = 1 and ratio = 1: D = gamma_hat - beta_hat is the constant
    # diff*|gamma|, so at diff 0.1 the overlap is 1 - 0.5/(2*1.959964*0.5)
    grid = reference_contour(5.0, 0.5, corr=1.0, diff_grid=[0.0, 0.1],
                             ratio_grid=[1.0])
    assert grid.values[0, 0] == 1.0  # identical intervals
    assert grid.values[1, 0] == pytest.approx(1 - 0.5 / (2 * Z975 * 0.5), abs=1e-15)


def test_contour_scale_invariance():
    kwargs = dict(corr=0.95, diff_grid=np.linspace(0, 1.5, 4),
                  ratio_grid=[0.5, 1.0, 2.0])
    a = reference_contour(5.0, 0.5, **kwargs)
    b = reference_contour(10.0, 1.0, **kwargs)
    assert np.max(np.abs(a.values - b.values)) < 1e-9


def test_contour_decreasing_along_difference_axis():
    grid = reference_contour(5.0, 1.0, corr=0.9,
                             diff_grid=np.linspace(0, 2, 9),
                             ratio_grid=[1.0])
    vals = grid.values[:, 0]
    assert all(nxt <= cur for cur, nxt in zip(vals, vals[1:]))


def test_contour_matches_simulation_oracle():
    """The closed-form mean overlap lies within 3 standard errors of the
    mean of 10^6 simulated overlaps, cell by cell."""
    K = 1_000_000
    cells = [(0.95, 0.0, 1.0), (0.95, 0.75, 0.8), (0.95, 1.5, 1.25),
             (0.0, 0.5, 1.0), (0.0, 1.5, 0.8), (-0.5, 1.0, 1.25)]
    for i, (corr, diff, ratio) in enumerate(cells):
        exact = reference_contour(1010.0, 790.0, corr, [diff], [ratio]).values[0, 0]
        nu = reference_cell_oracle(1010.0, 790.0, corr, diff, ratio, K,
                                   RngStream(21).child("am-contour-oracle", i))
        assert abs(exact - nu.mean()) <= 3 * nu.std() / math.sqrt(K)


def test_contour_csv_layout():
    # corr = 1 with ratio = 1 makes s = 0, with ratio = 2 it does not
    for corr in (0.95, 1.0):
        grid = reference_contour(5.0, 0.5, corr, [0.0, 0.5], [1.0, 2.0])
        lines = grid.to_csv().strip().splitlines()
        assert lines[0] == "diff\\ratio,1,2"
        assert len(lines) == 3


def test_contour_validation():
    with pytest.raises(ConfigError):
        reference_contour(0.0, 1.0, 0.5, [0.0], [1.0])
    with pytest.raises(ConfigError):
        reference_contour(1.0, 1.0, 1.5, [0.0], [1.0])
    with pytest.raises(ConfigError):
        reference_contour(1.0, 1.0, 0.5, [0.0], [0.0])
    with pytest.raises(ConfigError):
        reference_contour(1.0, -1.0, 0.5, [0.0], [1.0])
    for gamma, sigma, diff, ratio in ((math.nan, 1.0, 0.0, 1.0), (math.inf, 1.0, 0.0, 1.0),
                                      (1.0, math.nan, 0.0, 1.0), (1.0, math.inf, 0.0, 1.0),
                                      (1.0, 1.0, math.nan, 1.0), (1.0, 1.0, math.inf, 1.0),
                                      (1.0, 1.0, 0.0, math.nan), (1.0, 1.0, 0.0, math.inf)):
        with pytest.raises(ConfigError):
            reference_contour(gamma, sigma, 0.5, [diff], [ratio])


# ---------------------------------------------------------------- inversion

def test_null_assumption_lengths():
    a = null_assumption_lengths(177.0, n0=160_364, n=160_364 // 25)
    assert a.l1 == a.l2
    assert a.l1 == pytest.approx(3469.1, abs=1.0)  # 2 * 1.959964 * 885.04
    b = null_assumption_lengths(1.0, n0=500, n=500)
    assert b.l1 == pytest.approx(3.9199, abs=1e-4)
    with pytest.raises(ConfigError):
        null_assumption_lengths(0.0, 10, 10)


def test_invert_equal_lengths_reduces_to_linear():
    a = InversionAssumption(2.0, 2.0)
    for nu in np.linspace(0.0, 1.0, 21):
        assert invert_overlap(float(nu), a) == pytest.approx(2.0 * (1 - nu), abs=1e-12)
    assert invert_overlap(0.5, a) == pytest.approx(1.0)  # l/2 at the midpoint
    assert invert_overlap(1.0, a) == 0.0


def test_invert_boundary_conventions():
    a = InversionAssumption(4.0, 2.0)
    assert a.nu_max == pytest.approx(0.75)
    assert invert_overlap(0.0, a) == pytest.approx(3.0)       # (l1+l2)/2
    assert invert_overlap(0.75, a) == pytest.approx(1.0)      # (l1-l2)/2
    assert invert_overlap(0.9, a) == pytest.approx(1.0)       # clamped past nu_max
    sweep = [invert_overlap(float(v), a) for v in np.linspace(0, 1, 101)]
    assert all(x >= y - 1e-12 for x, y in zip(sweep, sweep[1:]))
    with pytest.raises(ConfigError):
        invert_overlap(1.2, a)
    with pytest.raises(ConfigError):
        InversionAssumption(1.0, 2.0)
    for l1, l2 in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (math.inf, math.inf),
                   (1.0, 0.0)):
        with pytest.raises(ConfigError):
            InversionAssumption(l1, l2)
    with pytest.raises(ConfigError):  # once l1 = l2 = inf
        null_assumption_lengths(math.inf, 10, 10)


def test_invert_round_trips_the_geometric_overlap():
    rng = np.random.default_rng(5)
    for _ in range(300):
        l1 = rng.uniform(1.0, 5.0)
        l2 = rng.uniform(0.2, l1)
        lo = 0.5 * (l1 - l2)
        hi = 0.5 * (l1 + l2)
        d = rng.uniform(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo))
        # geometric overlap of two centered intervals offset by d
        i1 = _ci(-l1 / 2, l1 / 2)
        i2 = _ci(d - l2 / 2, d + l2 / 2)
        nu = am_overlap(i1, i2)
        back = invert_overlap(nu, InversionAssumption(l1, l2))
        assert back == pytest.approx(d, abs=1e-12)


def test_invert_credible_interval_values():
    a = null_assumption_lengths(177.0, n0=160_364, n=160_364 // 25)
    out = invert_credible_interval(_ci(0.878, 0.998, level=0.9), a)
    assert out.level == 0.9
    assert out.lower == pytest.approx(6.9, abs=2.0)
    assert out.upper == pytest.approx(423.2, abs=2.0)

    point = invert_credible_interval(_ci(0.4, 0.4, level=0.9), InversionAssumption(2, 2))
    assert point.lower == point.upper == pytest.approx(1.2)

    a2 = InversionAssumption(4.0, 2.0)
    widest = invert_credible_interval(_ci(0.0, a2.nu_max, level=0.9), a2)
    assert (widest.lower, widest.upper) == (pytest.approx(1.0), pytest.approx(3.0))


# ----------------------------------------- overlap decay with subset size

def test_overlap_shrinks_with_subset_size_when_models_differ():
    # x2 leans on x1, so dropping x2 shifts the x1 coefficient: with truly
    # different targets the overlap must fall as subsets grow
    m0 = parse_formula("y ~ x1 + x2 + x3")
    m1 = parse_formula("y ~ x1 + x3")
    wins = 0
    for seed in range(20):
        means = []
        for n_subset in (250, 4000):
            ds = synth_dataset(4 * n_subset, seed=seed, x2_on_x1=0.3)
            plan = make_partition(ds.n_rows, 4, seed=seed)
            means.append(average_overlap(ds, m0, m1, "x1", plan).nu_bar)
        wins += means[1] < means[0]
    assert wins >= 15  # one-sided sign test at the 5% level


def test_am_config_validation():
    with pytest.raises(ConfigError):
        AMConfig(M=1, epsilon=1.0)
    with pytest.raises(ConfigError):
        AMConfig(M=2, epsilon=1.0, level=1.0)
    with pytest.raises(ConfigError):
        AMConfig(M=2, epsilon=1.0, grid_points=10)
    with pytest.raises(ConfigError):
        AMConfig(M=2, epsilon=1.0, prior=(1.0, -1.0))
    for bad in ({"epsilon": math.inf}, {"prior": (1.0, math.inf)}, {"grid_points": 10**7 + 1},
                {"grid_points": 1001.0}):  # numpy refused it after the release
        with pytest.raises(ConfigError):
            AMConfig(**{"M": 2, "epsilon": 1.0, **bad})
    with pytest.raises(TypeError):
        AMConfig(2, 1.0)  # keyword-only
    assert AMConfig(M=2, epsilon=1.0, grid_points=10**7).grid_points == 10**7
