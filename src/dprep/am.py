"""Comparison of two model specifications via confidence-interval overlap.

Per subset, both models are fit and the equal-tailed CIs of the shared
coefficient are compared with the length-overlap measure nu in [0, 1]
(1 = identical intervals, 0 = disjoint).  The subset average nu_bar is
released with Laplace(0, 1/(epsilon*M)) noise, its one-dimensional
posterior is computed by grid quadrature, and the posterior credible
interval can be inverted into a bound on the absolute coefficient
difference under an assumption on the two interval lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import ndtri, xlogy

from .errors import ConfigError, DegenerateIntervalError, SingularFitError
from .linmod import ConfidenceInterval, ModelSpec, confidence_interval, fit_ols
from .partition import PartitionPlan, subset_view
from .privacy import (
    BudgetLedger,
    NoisyRelease,
    PrivacyParams,
    RngStream,
    release_scalar,
)
from .tabular import Dataset

Z975 = float(ndtri(0.975))  # 1.959964

POSTERIOR_SAMPLES = 1000  # draws of nu_bar stored in a report


def overlap_measure(i1: ConfidenceInterval, i2: ConfidenceInterval) -> float:
    """Symmetric length overlap of two intervals.

    With c the length of the intersection (zero when disjoint), returns
    (c/len(i1) + c/len(i2)) / 2.  Both intervals must have positive length.
    """
    if i1.length <= 0 or i2.length <= 0:
        raise DegenerateIntervalError("overlap requires intervals of positive length")
    c = max(0.0, min(i1.upper, i2.upper) - max(i1.lower, i2.lower))
    return 0.5 * (c / i1.length + c / i2.length)


@dataclass(frozen=True)
class AMConfig:
    """Knobs for one dual-model comparison run."""

    M: int
    epsilon: PrivacyParams
    level: float = 0.95
    prior: tuple[float, float] = (1.0, 1.0)
    grid_points: int = 10001
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.epsilon, PrivacyParams):
            object.__setattr__(self, "epsilon", PrivacyParams(float(self.epsilon)))
        if self.M < 2:
            raise ConfigError(f"M must be at least 2, got {self.M}")
        if not 0 < self.level < 1:
            raise ConfigError(f"level must be in (0, 1), got {self.level}")
        a, b = self.prior
        if not (a > 0 and b > 0):
            raise ConfigError(f"prior hyperparameters must be positive, got {self.prior}")
        if self.grid_points < 101:
            raise ConfigError(f"grid_points must be at least 101, got {self.grid_points}")

    @property
    def eps(self) -> float:
        return self.epsilon.epsilon


@dataclass(frozen=True)
class OverlapResult:
    """Custodian-only per-subset overlaps and their mean."""

    nus: np.ndarray
    nu_bar: float
    ci_pairs: tuple


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
    """Fit both models on every subset and average the CI overlaps.

    The coefficient of interest must appear untransformed in both models so
    that the two intervals live in the same units.  All 2M fits must
    succeed; a singular fit aborts with the subset and model identified.
    """
    for tag, model in (("model0", model0), ("model1", model1)):
        if not _has_plain_term(model, coef):
            raise ConfigError(
                f"coefficient {coef!r} must appear untransformed in {tag}"
            )
    nus = np.empty(plan.M)
    ci_pairs = []
    for l in range(plan.M):
        subset = subset_view(dataset, plan, l)
        cis = []
        for tag, model in (("model0", model0), ("model1", model1)):
            try:
                fit = fit_ols(subset, model)
            except SingularFitError as exc:
                raise SingularFitError(
                    f"subset {l}, {tag}: {exc}", subset=l, model=tag
                ) from exc
            cis.append(confidence_interval(fit, coef, level))
        nus[l] = overlap_measure(cis[0], cis[1])
        ci_pairs.append(tuple(cis))
    return OverlapResult(nus=nus, nu_bar=float(nus.mean()), ci_pairs=tuple(ci_pairs))


@dataclass(frozen=True)
class AMReleased:
    """The noisy average overlap; unclamped, so values outside [0, 1] occur."""

    nu_bar_noisy: float
    config: AMConfig
    release: NoisyRelease


def release_overlap(
    result: OverlapResult,
    config: AMConfig,
    ledger: BudgetLedger,
    stream: RngStream | None = None,
) -> AMReleased:
    """Release nu_bar + Laplace(0, 1/(epsilon*M)).

    One changed row perturbs a single subset's overlap by at most 1, so the
    average has sensitivity 1/M.
    """
    if stream is None:
        stream = RngStream(config.seed).child("am-release")
    release = release_scalar(result.nu_bar, 1.0 / config.M, config.epsilon, ledger, stream)
    return AMReleased(nu_bar_noisy=release.value, config=config, release=release)


@dataclass(frozen=True)
class AMPosterior:
    """Grid posterior of the average overlap on [0, 1]."""

    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    samples: np.ndarray

    def quantile(self, q) -> float | np.ndarray:
        out = np.interp(q, self.cdf, self.grid)
        return float(out) if np.ndim(q) == 0 else out

    @property
    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.density, self.grid))


def posterior_nu(released: AMReleased) -> AMPosterior:
    """Posterior density of nu_bar, proportional to
    exp(-M*eps*|nu - nu_noisy|) * nu^(a-1) * (1-nu)^(b-1) on [0, 1].

    The density is evaluated in log space on a uniform grid, normalized by
    the trapezoid rule, and sampled by inverse CDF with linear
    interpolation.  The density and CDF are deterministic; only the samples
    consume randomness.  When a < 1 or b < 1 the endpoints are singular, so
    the grid is opened by one step at each end.
    """
    config = released.config
    a, b = config.prior
    G = config.grid_points
    if a < 1 or b < 1:
        grid = np.linspace(0.0, 1.0, G + 2)[1:-1]
    else:
        grid = np.linspace(0.0, 1.0, G)
    logpdf = (
        -config.M * config.eps * np.abs(grid - released.nu_bar_noisy)
        + xlogy(a - 1.0, grid)
        + xlogy(b - 1.0, 1.0 - grid)
    )
    pdf = np.exp(logpdf - logpdf.max())
    norm = np.trapezoid(pdf, grid)
    density = pdf / norm
    cdf = np.concatenate([[0.0], cumulative_trapezoid(density, grid)])
    cdf /= cdf[-1]
    rng = RngStream(config.seed).child("am-posterior").generator
    samples = np.interp(rng.random(POSTERIOR_SAMPLES), cdf, grid)
    return AMPosterior(grid=grid, density=density, cdf=cdf, samples=samples)


def credible_interval(posterior: AMPosterior, mass: float) -> ConfidenceInterval:
    """Equal-tailed credible interval from the grid CDF."""
    if not 0 < mass < 1:
        raise ConfigError(f"mass must be in (0, 1), got {mass}")
    lo, hi = posterior.quantile([(1 - mass) / 2, (1 + mass) / 2])
    return ConfidenceInterval(float(lo), float(hi), level=mass)


def error_bound(
    M: int, epsilon: float, omega: float, variance_cap: float = 0.25
) -> float:
    """Chebyshev bound on P(|noisy average overlap - its expectation| >= omega).

    Returns (variance_cap/M + 2/(M^2 eps^2)) / omega^2.  The default cap
    1/4 is the worst case for a [0, 1] variable; pass 1/12 for a uniform
    overlap.  Useful for screening M before spending any budget.
    """
    if M < 1:
        raise ConfigError(f"M must be positive, got {M}")
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if not omega > 0:
        raise ConfigError(f"omega must be positive, got {omega}")
    return (variance_cap / M + 2.0 / (M**2 * epsilon**2)) / omega**2


@dataclass(frozen=True)
class ContourGrid:
    """Mean overlap over a (relative difference, sd ratio) grid."""

    diff_axis: np.ndarray
    ratio_axis: np.ndarray
    values: np.ndarray
    corr: float
    K: int

    def to_csv(self) -> str:
        lines = ["diff\\ratio," + ",".join(f"{r:.10g}" for r in self.ratio_axis)]
        for d, row in zip(self.diff_axis, self.values):
            lines.append(f"{d:.10g}," + ",".join(f"{v:.6g}" for v in row))
        return "\n".join(lines) + "\n"


def reference_contour(
    gamma: float,
    sigma_gamma: float,
    corr: float,
    diff_grid,
    ratio_grid,
    K: int = 500,
    seed: int = 0,
) -> ContourGrid:
    """Simulated mean overlap against |gamma-beta|/|gamma| and sd ratio.

    Per cell, K coefficient pairs are drawn from the bivariate normal with
    means (gamma, beta), standard deviations (sigma_gamma,
    ratio*sigma_gamma), and the given correlation; 95% normal CIs
    (half-width 1.959964*sd) are overlapped and averaged.  sigma_gamma is
    the subset-scale standard error.  The correlation must be supplied by
    the analyst -- estimating it from confidential data would cost budget
    far beyond its worth (its sensitivity is bounded only by 2).  No
    budget is spent here.
    """
    if not sigma_gamma > 0:
        raise ConfigError(f"sigma_gamma must be positive, got {sigma_gamma}")
    if gamma == 0:
        raise ConfigError("gamma must be nonzero (the difference axis is relative)")
    if not -1.0 <= corr <= 1.0:
        raise ConfigError(f"corr must be in [-1, 1], got {corr}")
    diff_axis = np.atleast_1d(np.asarray(diff_grid, dtype=float))
    ratio_axis = np.atleast_1d(np.asarray(ratio_grid, dtype=float))
    if diff_axis.size == 0 or ratio_axis.size == 0:
        raise ConfigError("diff and ratio grids must be nonempty")
    if np.any(diff_axis < 0):
        raise ConfigError("relative differences must be nonnegative")
    if np.any(ratio_axis <= 0):
        raise ConfigError("sd ratios must be positive")
    if K < 1:
        raise ConfigError(f"K must be positive, got {K}")

    root = RngStream(seed)
    tail = math.sqrt(max(0.0, 1.0 - corr * corr))
    values = np.empty((diff_axis.size, ratio_axis.size))
    for i, diff in enumerate(diff_axis):
        beta = gamma - diff * abs(gamma)
        for j, ratio in enumerate(ratio_axis):
            sigma_beta = ratio * sigma_gamma
            stream = root.child("am-contour", i * ratio_axis.size + j)
            z = stream.generator.standard_normal((K, 2))
            gamma_hat = gamma + sigma_gamma * z[:, 0]
            beta_hat = beta + sigma_beta * (corr * z[:, 0] + tail * z[:, 1])
            hw1 = Z975 * sigma_gamma
            hw2 = Z975 * sigma_beta
            c = np.minimum(gamma_hat + hw1, beta_hat + hw2) - np.maximum(
                gamma_hat - hw1, beta_hat - hw2
            )
            c = np.clip(c, 0.0, None)
            nu = 0.5 * (c / (2 * hw1) + c / (2 * hw2))
            values[i, j] = float(nu.mean())
    return ContourGrid(
        diff_axis=diff_axis, ratio_axis=ratio_axis, values=values, corr=corr, K=K
    )


@dataclass(frozen=True)
class InversionAssumption:
    """Assumed lengths of the two confidence intervals, wider first."""

    l1: float
    l2: float

    def __post_init__(self):
        if not self.l2 > 0:
            raise ConfigError(f"interval lengths must be positive, got l2={self.l2}")
        if self.l1 < self.l2:
            raise ConfigError(f"l1 ({self.l1}) must be at least l2 ({self.l2})")

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
    if not sigma_hat_o > 0:
        raise ConfigError(f"sigma_hat_o must be positive, got {sigma_hat_o}")
    if n0 < 1 or n < 1:
        raise ConfigError("sample sizes must be positive")
    if not 0 < level < 1:
        raise ConfigError(f"level must be in (0, 1), got {level}")
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
    if not 0.0 <= nu <= 1.0:
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
