"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

These checks exercise the package end to end at fixed seeds and stated
tolerances; the module test files cover the finer-grained contracts.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import stats

from helpers import am_overlap, replace_row, synth_dataset

from dprep import (
    ADConfig,
    AMConfig,
    BudgetLedger,
    ConfidenceInterval,
    Dataset,
    NoisyRelease,
    PrivacyParams,
    RngStream,
    build_fixed_region,
    compute_indicator_count,
    credible_interval,
    gibbs_posterior,
    invert_credible_interval,
    make_partition,
    null_assumption_lengths,
    average_overlap,
    parse_formula,
    posterior_nu,
    release_count,
    release_scalar,
    robustness_contour,
)
from dprep.ad import beta_conditional
from dprep.privacy import Released

MODEL = parse_formula("y ~ x1 + x2 + x3")


def _check(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _run_pipeline(ds, region, config, want_true_count=False):
    plan = make_partition(ds.n_rows, config.M, config.seed)
    ind = compute_indicator_count(ds, MODEL, "x2", region, plan)
    released = release_count(ind.S, config, BudgetLedger(cap=config.eps))
    post = gibbs_posterior(released)
    return (post, ind.S) if want_true_count else post


def test_01_gibbs_r_conditional_exact():
    """With the count pinned at S=10, M=20 and a flat prior, the sampler's
    r-draws must be exactly Beta(11, 11)."""
    rng = RngStream(20_240).child("acceptance-beta").generator
    draws = beta_conditional(rng, S=10, M=20, a=1.0, b=1.0, size=20_000)
    mean = float(draws.mean())
    ks = float(stats.kstest(draws, stats.beta(11, 11).cdf).statistic)
    _check(1, "gibbs r-conditional exactness",
           abs(mean - 0.5) <= 0.01 and ks < 0.015,
           f"mean={mean:.4f} (want 0.5 +/- 0.01), KS={ks:.4f} (want < 0.015)")


def test_02_posterior_median_consistency_pattern():
    """Posterior medians should land near 1 when the true coefficient sits
    inside the band 0.971 +/- 6*0.031 and near 0 when it sits outside the
    band 0.971 +/- 0.031, at subset size n=1000 and M=50.

    Premise: the subset x2 estimate has sd s = noise_sd/sqrt(n), and s must be
    small next to the distance from the truth 0.9 to each band's edges, so
    that the true in-region probability r* = Phi((hi-0.9)/s) - Phi((lo-0.9)/s)
    is near 1 for the wide band and near 0 for the narrow one.  The data use
    noise_sd=0.5, so s ~0.016: the truth is ~7.3 sd inside the wide band
    (r* >= 0.9999) and ~2.5 sd below the narrow band (r* ~0.0057).  Under the
    exact posterior p(S | z) ~ exp(-eps|z-S|), r | S ~ Beta(S+1, M-S+1), a
    single run misses its threshold with probability ~0.56% (interior: the
    Laplace draw must fall below -4.49) and ~0.9% (exterior), so each half
    reaches 18/20 with probability >= 0.999 whatever the seeds.  At the
    generator's default noise_sd=3.0 (s ~0.095) r* is 0.884 and 0.196, the
    medians track r*, and the thresholds are out of reach; the premise check
    below fails first in that case.
    """
    n_rows, M, noise_sd = 50_000, 50, 0.5
    s = noise_sd / math.sqrt(n_rows // M)
    results = {}
    for alpha, predicate, label in (
        (6.0, lambda m: m > 0.9, "interior"),
        (1.0, lambda m: m < 0.1, "exterior"),
    ):
        lo, hi = 0.971 - alpha * 0.031, 0.971 + alpha * 0.031
        r_star = float(stats.norm.cdf((hi - 0.9) / s) - stats.norm.cdf((lo - 0.9) / s))
        premise = r_star >= 0.99 if label == "interior" else r_star <= 0.01
        assert premise, (
            f"premise of criterion 2 fails: {label} band [{lo:.3f}, {hi:.3f}] has "
            f"true in-region probability r*={r_star:.4f} at subset sd {s:.4f} "
            f"(want >= 0.99 inside, <= 0.01 outside)")
        region = build_fixed_region(lo, hi)
        hits = 0
        for seed in range(20):
            ds = synth_dataset(n_rows, seed=9_000 + seed, noise_sd=noise_sd)
            post = _run_pipeline(ds, region, ADConfig(M=M, epsilon=1.0, seed=seed))
            hits += predicate(float(np.median(post.r_samples)))
        results[label] = hits
    _check(2, "posterior-median consistency pattern",
           results["interior"] >= 18 and results["exterior"] >= 18,
           f"interior {results['interior']}/20 runs with median>0.9, "
           f"exterior {results['exterior']}/20 with median<0.1 (want >=18 each)")


def test_03_laplace_noise_decay():
    """The gap between the posterior median of r and the true count fraction
    S/M shrinks as M grows, and widens as epsilon falls."""
    region = build_fixed_region(0.971 - 3 * 0.031, 0.971 + 3 * 0.031)

    def mean_gap(M, eps):
        gaps = []
        for seed in range(50):
            ds = synth_dataset(100 * M, seed=31_000 + seed)
            post, S = _run_pipeline(
                ds, region, ADConfig(M=M, epsilon=eps, seed=seed),
                want_true_count=True)
            gaps.append(abs(float(np.median(post.r_samples)) - S / M))
        return float(np.mean(gaps))

    g = {(M, eps): mean_gap(M, eps) for M in (10, 90) for eps in (1.0, 0.2)}
    ok = (g[(90, 1.0)] < g[(10, 1.0)]
          and g[(10, 0.2)] > g[(10, 1.0)]
          and g[(90, 0.2)] > g[(90, 1.0)])
    _check(3, "laplace-noise decay with M",
           ok,
           f"eps=1: M=10 {g[(10, 1.0)]:.4f} -> M=90 {g[(90, 1.0)]:.4f}; "
           f"eps=0.2: M=10 {g[(10, 0.2)]:.4f} -> M=90 {g[(90, 0.2)]:.4f}")


def test_04_inversion_application_values():
    """Deterministic worked example: overlap interval [0.878, 0.998] under the
    equal-length assumption built from sigma=177, n0=160364, M=25."""
    assumption = null_assumption_lengths(177.0, n0=160_364, n=160_364 // 25)
    out = invert_credible_interval(
        ConfidenceInterval(0.878, 0.998, level=0.9), assumption)
    ok = abs(out.lower - 6.9) <= 2.0 and abs(out.upper - 423.2) <= 2.0
    _check(4, "overlap-to-difference inversion",
           ok, f"got [{out.lower:.2f}, {out.upper:.2f}], want [6.9, 423.2] +/- 2")


def test_05_overlap_posterior_interval():
    """A noisy average overlap of 1.03 at M=25, eps=1 and a flat prior gives a
    90% equal-tailed interval of [0.878, 0.998] within 0.01 per endpoint."""
    config = AMConfig(M=25, epsilon=1.0, seed=1)
    released = Released(
        config=config,
        release=NoisyRelease(value=1.03, epsilon_spent=1.0, sensitivity=1 / 25))
    ci = credible_interval(posterior_nu(released), 0.9)
    ok = abs(ci.lower - 0.878) <= 0.01 and abs(ci.upper - 0.998) <= 0.01
    _check(5, "overlap posterior credible interval",
           ok, f"got [{ci.lower:.4f}, {ci.upper:.4f}], want [0.878, 0.998] +/- 0.01")


def test_06_single_row_sensitivity_exhaustive():
    """Exhaustive neighbouring-dataset check on a 12-row dataset with a fixed
    3-subset partition: any single-row replacement from a 5-value probe set
    moves the count by at most 1 and the average overlap by at most 1/3."""
    base = Dataset({
        "x1": np.array([0.7, 1.9, 3.1, 4.4, 5.2, 6.8, 7.3, 8.9, 9.6, 10.4, 11.8, 12.5]),
        "x2": np.array([2.1, 0.8, 3.7, 1.4, 4.9, 2.6, 5.5, 3.2, 6.1, 4.3, 7.7, 5.8]),
        "y": np.array([1.0, 3.2, 2.4, 5.1, 4.0, 6.9, 5.5, 8.2, 7.1, 9.8, 8.4, 11.3]),
    })
    probes = [
        {"x1": 0.33, "x2": 1.11, "y": 2.2},
        {"x1": 5.55, "x2": 5.05, "y": -3.3},
        {"x1": 13.1, "x2": 0.2, "y": 9.9},
        {"x1": 2.75, "x2": 8.25, "y": 0.0},
        {"x1": 10.01, "x2": 3.99, "y": 20.0},
    ]
    plan = make_partition(12, 3, seed=77)
    region = build_fixed_region(0.0, math.inf)
    m0 = parse_formula("y ~ x1")
    m1 = parse_formula("y ~ x1 + x2")

    s_base = compute_indicator_count(base, m0, "x1", region, plan).S
    nu_base = average_overlap(base, m0, m1, "x1", plan).nu_bar

    worst_ds, worst_dnu = 0, 0.0
    for row in range(12):
        for probe in probes:
            neighbour = replace_row(base, row, probe)
            s = compute_indicator_count(neighbour, m0, "x1", region, plan).S
            nu = average_overlap(neighbour, m0, m1, "x1", plan).nu_bar
            worst_ds = max(worst_ds, abs(s - s_base))
            worst_dnu = max(worst_dnu, abs(nu - nu_base))
    ok = worst_ds <= 1 and worst_dnu <= 1 / 3 + 1e-12
    _check(6, "single-row sensitivity (exhaustive)",
           ok, f"max |dS|={worst_ds} (want <=1), max |d nu_bar|={worst_dnu:.4f} "
               f"(want <= 1/3) over 60 replacements")


def test_07_dp_density_ratio():
    """Released distributions of neighbouring true values 0 and 1 (sensitivity
    1, eps=1) must have log density ratio bounded by eps + 0.1 on every
    well-populated histogram bin."""
    n_total = 1_000_000
    edges = np.arange(-5.0, 6.0 + 1e-9, 0.05)

    def released_values(true_value, seed):
        stream = RngStream(seed).child("acceptance-dp")
        params = PrivacyParams(1.0)
        out = np.empty(n_total)
        pos = 0
        while pos < n_total:  # chunked ledgers keep memory flat
            ledger = BudgetLedger(cap=100_001.0)
            for _ in range(100_000):
                out[pos] = release_scalar(true_value, 1.0, params, ledger, stream).value
                pos += 1
        return out

    h0, _ = np.histogram(released_values(0.0, 11), bins=edges)
    h1, _ = np.histogram(released_values(1.0, 12), bins=edges)
    expected0 = np.diff(stats.laplace.cdf(edges, loc=0.0)) * n_total
    expected1 = np.diff(stats.laplace.cdf(edges, loc=1.0)) * n_total
    mask = (expected0 >= 500) & (expected1 >= 500)
    ratios = np.abs(np.log(h0[mask] / h1[mask]))
    worst = float(ratios.max())
    _check(7, "dp density-ratio bound",
           worst <= 1.1,
           f"max |log ratio| = {worst:.3f} over {int(mask.sum())} bins (want <= 1.1)")


def test_08_overlap_oracle_equivalence():
    """10^4 random interval pairs: the overlap equals an exact rational
    computation to 1e-12, is symmetric, and equals 1 iff the intervals are
    identical."""
    rng = np.random.default_rng(88)
    checked = 0
    worst = 0.0
    while checked < 10_000:
        ints = rng.integers(-256, 256, size=4)
        a = np.sort(ints[:2]); b = np.sort(ints[2:])
        if a[0] == a[1] or b[0] == b[1]:
            continue
        if checked % 5 == 0:
            b = a.copy()
        i1 = ConfidenceInterval(a[0] / 16, a[1] / 16, 0.95)
        i2 = ConfidenceInterval(b[0] / 16, b[1] / 16, 0.95)
        nu = am_overlap(i1, i2)
        assert nu == am_overlap(i2, i1)
        af = [Fraction(int(v), 16) for v in a]
        bf = [Fraction(int(v), 16) for v in b]
        c = max(Fraction(0), min(af[1], bf[1]) - max(af[0], bf[0]))
        exact = (c / (af[1] - af[0]) + c / (bf[1] - bf[0])) / 2
        worst = max(worst, abs(nu - float(exact)))
        assert (nu == 1.0) == bool(np.array_equal(a, b))
        checked += 1
    _check(8, "overlap oracle equivalence",
           worst <= 1e-12, f"max |nu - exact| = {worst:.2e} over 10^4 pairs")


def test_09_contour_boundary_behavior():
    """Published-quantities contour (sigma=97, N=160364): the statistic stays 0
    on the region boundary for every M, and is positive at gamma=1010 for
    M=20."""
    region = build_fixed_region(500.0, math.inf)
    M_axis = list(range(5, 91, 5))
    # the contour is exact, so one call per cell settles it
    grid = robustness_contour([500.0], M_axis, 97.0, 154_442, 160_364, 1.0, region)
    far = robustness_contour([1010.0], [20], 97.0, 154_442, 160_364, 1.0, region)
    ok = bool(np.all(grid.T[0] == 0.0) and far.T[0, 0] > 0.0)
    _check(9, "contour boundary behaviour",
           ok, f"boundary T=0 at {int(np.sum(grid.T[0] == 0.0))}/{len(M_axis)} M, "
               f"far-cell T = {far.T[0, 0]:.4g}")


def test_10_boundary_calibration():
    """With the truth sitting exactly on a one-sided region boundary, repeated
    verifications at delta=0.5 should average theta_hat near 1/2."""
    region = build_fixed_region(0.9, math.inf)  # true x2 effect is 0.9
    thetas = np.empty(500)
    for rep in range(500):
        ds = synth_dataset(2000, seed=70_000 + rep)
        post = _run_pipeline(ds, region, ADConfig(M=20, epsilon=1.0, seed=rep,
                                                  mcmc=(200, 500)))
        thetas[rep] = post.theta_hat
    mean = float(thetas.mean())
    _check(10, "boundary calibration of theta_hat",
           0.4 <= mean <= 0.6, f"mean theta_hat = {mean:.4f} over 500 repeats "
                               f"(want in [0.4, 0.6])")
