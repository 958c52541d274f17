"""Comparison of two model specifications via confidence-interval overlap.

Per subset, both models are fit and the equal-tailed CIs of the shared
coefficient are compared with the length-overlap measure nu in [0, 1]
(1 = identical intervals, 0 = disjoint or a failed fit).  The subset
average nu_bar is released with Laplace(0, 1/(epsilon*M)) noise, its
posterior under that released law is computed by grid quadrature, drawing
nothing, and a posterior credible interval can be inverted into a bound on
the absolute coefficient difference (:mod:`dprep.planning`) under an
assumption on the interval lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit, xlogy

from .errors import ConfigError
from .linmod import ModelSpec, fit_subsets
from .partition import PartitionPlan
from .planning import MAX_GRID_POINTS, ConfidenceInterval
# bench/tracing.py traces the two inversion functions by these names, so
# they stay bound here as planning's own function objects
from .planning import invert_credible_interval, null_assumption_lengths  # noqa: F401
from .privacy import (
    BudgetLedger,
    Released,
    RunConfig,
    fraction,
    integer,
    law_of,
    release_run,
)
from .tabular import Dataset


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
    nu^(a-1) * (1-nu)^(b-1) on [0, 1], the rate eps/Delta that of the record's law,
    ``privacy.law_of(released.release)``.

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
        law_of(release).loglik(grid - release.value)
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
