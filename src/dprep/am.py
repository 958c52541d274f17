"""Comparison of two model specifications via confidence-interval overlap.

Per subset, both models are fit and the equal-tailed CIs of the shared
coefficient are compared with the length-overlap measure nu in [0, 1]
(1 = identical intervals, 0 = disjoint or a failed fit).  The subset
average nu_bar is released with Laplace(0, 1/(epsilon*M)) noise, its
posterior under that released law is computed by grid quadrature, drawing
nothing, and a posterior credible interval can be inverted into a bound on
the absolute coefficient difference under an assumption on the interval lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, stdtrit, xlogy

from .errors import ConfigError, DegenerateIntervalError
from .linmod import ConfidenceInterval, ModelSpec, fit_subsets
from .partition import PartitionPlan
from .privacy import (
    BudgetLedger,
    Laplace,
    PrivacyParams,
    Released,
    RunConfig,
    count,
    fraction,
    grid,
    integer,
    positive,
    real,
    release_run,
)
from .tabular import Dataset

Z975 = float(ndtri(0.975))  # 1.959964

# most points of a posterior grid, and most cells of a planning contour:
# about 80 MB per float64 array
MAX_GRID_POINTS = 10**7


def check_cells(what: str, cells: int, bound: int) -> None:
    """Refuse a planning contour of more than ``bound`` cells, ``what`` being
    the product that counts them, before any of its arrays is allocated."""
    if cells > bound:
        raise ConfigError(f"{what} is {cells} cells, over {bound}")


def contour_csv(corner: str, rows, columns, values) -> str:
    """A planning contour as CSV: ``corner`` and the column values, then each
    row value and its cells."""
    lines = [corner + "," + ",".join(f"{c:.10g}" for c in columns)]
    lines += [f"{r:.10g}," + ",".join(f"{v:.6g}" for v in row) for r, row in zip(rows, values)]
    return "\n".join(lines) + "\n"


def overlap_measure(i1: ConfidenceInterval, i2: ConfidenceInterval) -> float:
    """Symmetric length overlap of two intervals.

    With c the length of the intersection (zero when disjoint), returns
    (c/len(i1) + c/len(i2)) / 2.  Both intervals must have positive length.
    """
    if i1.length <= 0 or i2.length <= 0:
        raise DegenerateIntervalError("overlap requires intervals of positive length")
    return float(_overlap(i1.lower, i1.upper, i2.lower, i2.upper))


def _overlap(lower1, upper1, lower2, upper2):
    """Elementwise (c/len1 + c/len2) / 2, with c the length of the
    intersection of [lower1, upper1] and [lower2, upper2]."""
    c = np.maximum(0.0, np.minimum(upper1, upper2) - np.maximum(lower1, lower2))
    return 0.5 * (c / (upper1 - lower1) + c / (upper2 - lower2))


@dataclass(frozen=True, kw_only=True)
class AMConfig(RunConfig):
    """Knobs for one dual-model comparison run, on top of :class:`~dprep.privacy.RunConfig`."""

    level: float = 0.95
    grid_points: int = 10001

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "level", fraction(self.level, "level"))
        G = integer(self.grid_points, "grid_points")
        if not 101 <= G <= MAX_GRID_POINTS:
            raise ConfigError(f"grid_points must be an integer in 101..{MAX_GRID_POINTS}, got {G}")
        object.__setattr__(self, "grid_points", G)


@dataclass(frozen=True)
class OverlapResult:
    """Custodian-only per-subset overlaps, their mean, and the intervals:
    ``lower[m, l]`` and ``upper[m, l]`` bound model m's interval on subset l."""

    nus: np.ndarray
    nu_bar: float
    lower: np.ndarray
    upper: np.ndarray


def _has_plain_term(model: ModelSpec, coef: str) -> bool:
    return any(term.factors == ((coef, "identity"),) for term in model.terms)


def average_overlap(
    dataset: Dataset,
    model0: ModelSpec,
    model1: ModelSpec,
    coef: str,
    plan: PartitionPlan,
    level: float = 0.95,
) -> OverlapResult:
    """Fit both models on every subset and average the CI overlaps.  One
    :func:`~dprep.linmod.fit_subsets` call builds one design for both
    models and gathers its rows once.

    The coefficient of interest must appear untransformed in both models so
    that the two intervals live in the same units.  A subset fails when
    either model's fit fails (singular, too few rows, or a design cell that
    is not finite; its bounds are NaN) or either interval's width is zero
    or not finite; it gets nu_l = 0.  nu_l is still a function of subset
    l's rows alone, so the average's sensitivity stays 1/M, and whether a
    subset fails never stops the run.
    """
    for tag, model in (("model0", model0), ("model1", model1)):
        if not _has_plain_term(model, coef):
            raise ConfigError(
                f"coefficient {coef!r} must appear untransformed in {tag}"
            )
    level = fraction(level, "level")
    fits = fit_subsets(dataset, [model0, model1], plan)
    lower = np.empty((2, plan.M))
    upper = np.empty((2, plan.M))
    for m, (fit, names) in enumerate(fits):
        j = names.index(coef)
        center, se = fit.coefficients[:, j], fit.stderrs[:, j]
        # the t quantile once per distinct residual df (one per subset size)
        df, row = np.unique(fit.residual_df, return_inverse=True)
        half = stdtrit(df, (1 + level) / 2)[row] * se
        lower[m], upper[m] = center - half, center + half
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # failed subsets only
        width = upper - lower
        failed = ~np.all((width > 0) & (width < np.inf), axis=0)  # NaN compares False
        nus = np.where(failed, 0.0, _overlap(lower[0], upper[0], lower[1], upper[1]))
    return OverlapResult(nus=nus, nu_bar=float(nus.mean()), lower=lower, upper=upper)


def release_overlap(result: OverlapResult, config: AMConfig, ledger: BudgetLedger) -> Released:
    """Release nu_bar + Laplace(0, 1/(epsilon*M)).

    One changed row perturbs a single subset's overlap by at most 1, so the
    average has sensitivity 1/M.  Neighbours differ by substituting one row
    and N is public: adding or removing a row re-draws the partition, which
    the sensitivity does not cover.
    """
    return release_run(result.nu_bar, 1.0 / config.M, config, ledger, "am-release")


@dataclass(frozen=True)
class AMPosterior:
    """Grid density and CDF of the average overlap on [0, 1]; nothing is drawn."""

    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray

    def quantile(self, q) -> float | np.ndarray:
        out = np.interp(q, self.cdf, self.grid)
        return float(out) if np.ndim(q) == 0 else out

    @property
    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.density, self.grid))


def posterior_nu(released: Released) -> AMPosterior:
    """Posterior density of nu_bar, proportional to exp(-(eps/Delta)*|nu - nu_noisy|) *
    nu^(a-1) * (1-nu)^(b-1) on [0, 1], the rate eps/Delta read from the release record.

    The density is evaluated in log space on a uniform grid and normalized
    by the trapezoid rule, and the CDF is its cumulative sum.  Nothing is
    drawn, so the seed does not change the posterior.  When a < 1 or b < 1
    the endpoints are singular, so the grid is opened by one step at each end.
    """
    config = released.config
    a, b = config.prior
    G = config.grid_points
    if a < 1 or b < 1:
        grid = np.linspace(0.0, 1.0, G + 2)[1:-1]
    else:
        grid = np.linspace(0.0, 1.0, G)
    release = released.release
    logpdf = (
        Laplace(release.epsilon_spent, release.sensitivity).loglik(grid - release.value)
        + xlogy(a - 1.0, grid)
        + xlogy(b - 1.0, 1.0 - grid)
    )
    pdf = np.exp(logpdf - logpdf.max())
    norm = np.trapezoid(pdf, grid)
    density = pdf / norm
    # the cumulative trapezoid rule, in scipy's cumulative_trapezoid's arithmetic
    steps = np.diff(grid) * (density[1:] + density[:-1]) / 2.0
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    cdf /= cdf[-1]
    return AMPosterior(grid=grid, density=density, cdf=cdf)


def credible_interval(posterior: AMPosterior, mass: float) -> ConfidenceInterval:
    """Equal-tailed credible interval from the grid CDF."""
    mass = fraction(mass, "mass")
    lo, hi = posterior.quantile([(1 - mass) / 2, (1 + mass) / 2])
    return ConfidenceInterval(float(lo), float(hi), level=mass)


def error_bound(
    M: int, epsilon: float, omega: float, variance_cap: float = 0.25
) -> float:
    """Chebyshev bound on P(|noisy average overlap - its expectation| >= omega).

    Returns (variance_cap/M + Laplace(eps, 1/M).variance) / omega^2.  The
    default cap 1/4 is the worst case for a [0, 1] variable; pass 1/12 for
    a uniform overlap.  Useful for screening M before spending any budget.
    """
    M, epsilon = count(M, "M"), PrivacyParams.of(epsilon).epsilon
    omega, variance_cap = positive(omega, "omega"), positive(variance_cap, "variance_cap")
    return (variance_cap / M + Laplace(epsilon, 1.0 / M).variance) / omega**2


@dataclass(frozen=True)
class ContourGrid:
    """Mean overlap over a (relative difference, sd ratio) grid."""

    diff_axis: np.ndarray
    ratio_axis: np.ndarray
    values: np.ndarray
    corr: float

    def to_csv(self) -> str:
        return contour_csv("diff\\ratio", self.diff_axis, self.ratio_axis, self.values)


def reference_contour(
    gamma: float,
    sigma_gamma: float,
    corr: float,
    diff_grid,
    ratio_grid,
) -> ContourGrid:
    """Exact mean overlap against |gamma-beta|/|gamma| and sd ratio.

    The estimates have means (gamma, beta), standard deviations
    (sigma_gamma, ratio*sigma_gamma) and the given correlation, and 95%
    normal CIs of half-widths h = 1.959964*sd.  Their intersection length
    c = clip(min(h1 + h2 - |D|, 2*min(h1, h2)), 0) depends only on
    D = gamma_hat - beta_hat ~ N(diff*|gamma|, s^2), with s^2 = sigma_gamma^2
    + sigma_beta^2 - 2*corr*sigma_gamma*sigma_beta, so E[c] =
    E[(h1 + h2 - |D|)+] - E[(|h1 - h2| - |D|)+] in Phi and phi terms, and
    the mean overlap is (E[c]/(2*h1) + E[c]/(2*h2)) / 2.  sigma_gamma is
    the subset-scale standard error.  The correlation must be supplied by
    the analyst -- estimating it from confidential data would cost budget
    far beyond its worth (its sensitivity is bounded only by 2).  No
    budget is spent and no randomness is drawn.  A grid of more than
    MAX_GRID_POINTS cells, diff values times ratio values, is refused.
    """
    sigma_gamma = positive(sigma_gamma, "sigma_gamma")
    gamma, corr = real(gamma, "gamma"), real(corr, "corr")
    if not (math.isfinite(gamma) and gamma != 0):
        raise ConfigError("gamma must be finite and nonzero (the difference axis is relative)")
    if not -1.0 <= corr <= 1.0:
        raise ConfigError(f"corr must be in [-1, 1], got {corr}")
    diffs, ratios = grid(diff_grid, "diff"), grid(ratio_grid, "ratio")
    check_cells("diff grid x ratio grid", len(diffs) * len(ratios), MAX_GRID_POINTS)
    diff_axis = np.array([real(d, "relative difference") for d in diffs])
    ratio_axis = np.array([positive(r, "sd ratio") for r in ratios])
    if not np.all((diff_axis >= 0) & (diff_axis < np.inf)):
        raise ConfigError("relative differences must be nonnegative and finite")

    sigma_beta = ratio_axis * sigma_gamma
    # s^2 as a sum of squares: exactly 0 at corr = 1, ratio = 1, and never < 0
    s = np.hypot(sigma_gamma - corr * sigma_beta,
                 sigma_beta * math.sqrt((1.0 - corr) * (1.0 + corr)))
    h1, h2 = Z975 * sigma_gamma, Z975 * sigma_beta
    m = diff_axis[:, None] * abs(gamma)
    mean_c = _mean_tent(h1 + h2, m, s) - _mean_tent(np.abs(h1 - h2), m, s)
    values = 0.5 * (mean_c / (2 * h1) + mean_c / (2 * h2))
    return ContourGrid(diff_axis=diff_axis, ratio_axis=ratio_axis, values=values, corr=corr)


def _mean_tent(a, m, s):
    """E[(a - |D|)+] for D ~ N(m, s^2), elementwise, with a, m >= 0; s = 0
    gives (a - m)+.  It sums the integrals of (a - x) over [0, a] against
    the densities of D and -D, each written in the normal tails that keep
    it exact far from the mean."""
    safe = np.where(s > 0, s, 1.0)
    u0, up, um = m / safe, (a - m) / safe, (a + m) / safe
    phi0, phip, phim = np.exp(-0.5 * np.square([u0, up, um])) / math.sqrt(2 * math.pi)
    mean = ((a - m) * (ndtr(up) - ndtr(-u0)) + (a + m) * (ndtr(-u0) - ndtr(-um))
            + safe * (phip + phim - 2 * phi0))
    return np.where(s > 0, mean, np.maximum(a - m, 0.0))


@dataclass(frozen=True)
class InversionAssumption:
    """Assumed lengths of the two confidence intervals, wider first:
    0 < l2 <= l1 < inf."""

    l1: float
    l2: float

    def __post_init__(self):
        object.__setattr__(self, "l1", real(self.l1, "l1"))
        object.__setattr__(self, "l2", real(self.l2, "l2"))
        if not 0 < self.l2 <= self.l1 < math.inf:
            raise ConfigError(f"need 0 < l2 <= l1 < inf, got l1={self.l1}, l2={self.l2}")

    @property
    def nu_max(self) -> float:
        return 0.5 * (1.0 + self.l2 / self.l1)


def null_assumption_lengths(
    sigma_hat_o: float, n0: int, n: int, level: float = 0.95
) -> InversionAssumption:
    """Equal interval lengths from the published standard error.

    Under the null assumption both coefficients share the published
    standard error at the original sample size n0; at the subset size n the
    sd inflates by sqrt(n0/n) and each normal interval has length
    2 * z * sd with z the normal quantile at (1+level)/2.
    """
    sigma_hat_o = positive(sigma_hat_o, "sigma_hat_o")
    n0, n, level = count(n0, "n0"), count(n, "n"), fraction(level, "level")
    sd = sigma_hat_o * math.sqrt(n0 / n)
    length = 2.0 * float(ndtri((1 + level) / 2)) * sd
    return InversionAssumption(l1=length, l2=length)


def invert_overlap(nu: float, assumption: InversionAssumption) -> float:
    """Map an overlap value to the implied absolute coefficient difference.

    Piecewise linear and nonincreasing: f(0) = (l1+l2)/2, f(nu) =
    (l1+l2)/2 - 2*nu/(1/l1 + 1/l2) on the middle branch, and f(nu) =
    (l1-l2)/2 for nu at or above its maximum attainable value
    (1 + l2/l1)/2.
    """
    if not 0.0 <= (nu := real(nu, "nu")) <= 1.0:
        raise ConfigError(f"nu must be in [0, 1], got {nu}")
    l1, l2 = assumption.l1, assumption.l2
    if nu <= 0.0:
        return 0.5 * (l1 + l2)
    if nu >= assumption.nu_max:
        return 0.5 * (l1 - l2)
    return 0.5 * (l1 + l2) - 2.0 * nu / (1.0 / l1 + 1.0 / l2)


def invert_credible_interval(
    ci: ConfidenceInterval, assumption: InversionAssumption
) -> ConfidenceInterval:
    """Inverted interval for |beta - gamma|; order flips because the
    inversion is nonincreasing."""
    return ConfidenceInterval(
        lower=invert_overlap(ci.upper, assumption),
        upper=invert_overlap(ci.lower, assumption),
        level=ci.level,
    )
