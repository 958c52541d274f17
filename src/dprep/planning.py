"""Planning from published numbers alone: tolerance regions, the robustness
contour for choosing M, the Chebyshev M bound, the reference overlap contour
and the inversion of an overlap interval.  Each output is post-processing,
free of privacy budget, only while it cannot depend on the confidential
table: so this module imports the standard library, numpy, ``scipy.special``,
``errors`` and, from ``privacy``, ``Laplace`` and the checked conversions,
never the pipeline, which imports from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ndtr, ndtri, xlogy

from .errors import ConfigError
from .privacy import Laplace, count, fraction, grid, positive, real

Z975 = float(ndtri(0.975))  # 1.959964

# halvings of a unit bracket: below the spacing of doubles near 1/2
QUANTILE_BISECTIONS = 60

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


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        for name, check in (("lower", real), ("upper", real), ("level", fraction)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if not self.lower <= self.upper:  # NaN compares False
            raise ConfigError(f"interval needs lower <= upper, got [{self.lower}, {self.upper}]")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


@dataclass(frozen=True)
class InflationProvenance:
    """Published quantities an inflated region is built from, checked here
    for :func:`build_inflated_region` and :func:`delta_star` alike.
    Deflation (n > n0) is refused: shrinking a region centered at the
    published estimate would amplify its bias, so choose M to make the
    subset size n close to n0 instead."""

    gamma_hat_o: float
    sigma_hat_o: float
    alpha: float
    n0: int
    n: int

    def __post_init__(self):
        for name, check in (("gamma_hat_o", real), ("sigma_hat_o", positive),
                            ("alpha", positive), ("n0", count), ("n", count)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if not self.n <= self.n0:
            raise ConfigError(
                f"sample sizes must satisfy n <= n0, got n={self.n}, n0={self.n0}; "
                "a region is never deflated -- choose M so that n is close to n0"
            )


@dataclass(frozen=True)
class ToleranceRegion:
    """Closed interval the subset coefficients are tested against.

    Membership is closed on both ends; an estimate exactly on a boundary
    counts as inside (a measure-zero event, but the rule must be
    deterministic).  A region with a provenance is inflated, one without
    is fixed.
    """

    lower: float
    upper: float
    provenance: InflationProvenance | None = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "lower", real(self.lower, "region lower bound"))
        object.__setattr__(self, "upper", real(self.upper, "region upper bound"))
        if not self.lower < self.upper:
            raise ConfigError(
                f"region lower bound {self.lower} must be below upper bound {self.upper}"
            )
        if self.provenance is not None and not (
                math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigError("inflated regions must be finite")

    @property
    def kind(self) -> str:
        return "fixed" if self.provenance is None else "inflated"

    def contains(self, x) -> np.ndarray | bool:
        return (x >= self.lower) & (x <= self.upper)


def build_fixed_region(lower: float, upper: float) -> ToleranceRegion:
    """Fixed tolerance region; bounds may be infinite (e.g. [0, +inf) for a
    sign test)."""
    return ToleranceRegion(lower, upper)


def build_inflated_region(
    gamma_hat_o: float, sigma_hat_o: float, alpha: float, n0: int, n: int
) -> ToleranceRegion:
    """Region gamma_hat_o +/- alpha*sqrt(n0/n)*sigma_hat_o.

    Inflation widens a published-uncertainty region to the subset scale,
    where estimates are noisier; :class:`InflationProvenance` refuses
    deflation (n > n0).
    """
    p = InflationProvenance(gamma_hat_o, sigma_hat_o, alpha, n0, n)
    half = p.alpha * math.sqrt(p.n0 / p.n) * p.sigma_hat_o
    return ToleranceRegion(p.gamma_hat_o - half, p.gamma_hat_o + half, provenance=p)


def delta_star(
    gamma_hat_o: float, sigma_hat_o: float, alpha: float, n0: int, n: int
) -> float:
    """Edge-case coverage of the inflated region.

    Places the true coefficient on an edge of the uninflated region
    gamma_hat_o +/- alpha*sigma_hat_o and returns the probability that a
    Normal(edge, (n0/n)*sigma_hat_o^2) draw lands in the inflated region;
    both edges give the same value by symmetry.  A conservative default
    degree of certainty is 0.9 * delta_star.
    """
    p = InflationProvenance(gamma_hat_o, sigma_hat_o, alpha, n0, n)
    s = math.sqrt(p.n0 / p.n)
    return float(ndtr(p.alpha * (1 + 1 / s)) - ndtr(p.alpha * (1 / s - 1)))


@dataclass(frozen=True)
class RobustnessGrid:
    """Distance of the noisy-count fraction from 1/2 over a (gamma, M) grid."""

    gamma_axis: np.ndarray
    M_axis: np.ndarray
    T: np.ndarray

    def to_csv(self) -> str:
        return contour_csv("gamma\\M", self.gamma_axis, self.M_axis, self.T)


def robustness_contour(
    gamma_grid,
    M_grid,
    sigma_hat_o: float,
    n0: int,
    N: int,
    epsilon,
    region: ToleranceRegion,
) -> RobustnessGrid:
    """Exact robustness of the noisy-count fraction, to guide the choice of M.

    Per cell (gamma, M), with n = floor(N/M) and sd = sigma_hat_o*sqrt(n0/n),
    S ~ Binomial(M, p) with p = Phi((hi - gamma)/sd) - Phi((lo - gamma)/sd),
    and r_obs = (S + eta)/M with eta ~ Laplace(0, 1/epsilon).  The CDF of
    r_obs, sum_s P(S = s) * F_eta(M*x - s), is bisected for q10 and q90.
    T = max(q10 - 0.5, 0.5 - q90, 0), so T > 0 marks (gamma, M) cells where
    a single verification is robust.

    Uses only published quantities: no confidential data is touched, no
    privacy budget is spent and no randomness is drawn.  A grid of more than
    MAX_GRID_POINTS cells, gamma values times (largest M + 1), is refused.
    """
    sigma_hat_o, n0, N = positive(sigma_hat_o, "sigma_hat_o"), count(n0, "n0"), count(N, "N")
    eta = Laplace(epsilon, 1.0)
    gammas, Ms = grid(gamma_grid, "gamma"), [count(M, "M") for M in grid(M_grid, "M")]
    if max(Ms) > N:
        raise ConfigError(f"every M must satisfy 1 <= M <= N = {N}, got {max(Ms)}")
    check_cells("gamma grid x (largest M + 1)", len(gammas) * (max(Ms) + 1), MAX_GRID_POINTS)
    gamma_axis, M_axis = grid(np.array([real(g, "gamma") for g in gammas]), "gamma"), np.array(Ms)

    q = np.array([0.1, 0.9])
    T = np.empty((gamma_axis.size, M_axis.size))
    for j, M in enumerate(Ms):
        sd = sigma_hat_o * math.sqrt(n0 / (N // M))
        p = ndtr((gamma_axis - region.lower) / sd) - ndtr((gamma_axis - region.upper) / sd)
        s = np.arange(M + 1)
        pmf = np.exp(gammaln(M + 1) - gammaln(s + 1) - gammaln(M - s + 1)
                     + xlogy(s, p[:, None]) + xlogy(M - s, 1.0 - p[:, None]))
        # S lies in [0, M], so each quantile lies in [eta_q/M, 1 + eta_q/M], eta_q eta's own
        lo = np.broadcast_to(eta.quantile(q) / M, (gamma_axis.size, 2))
        hi = lo + 1.0
        for _ in range(QUANTILE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            cdf = np.einsum("gs,gqs->gq", pmf, eta.cdf(M * mid[..., None] - s))
            below = cdf < q
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        q10, q90 = (0.5 * (lo + hi)).T
        T[:, j] = np.maximum(np.maximum(q10 - 0.5, 0.5 - q90), 0.0)
    return RobustnessGrid(gamma_axis=gamma_axis, M_axis=M_axis, T=T)


def error_bound(
    M: int, epsilon: float, omega: float, variance_cap: float = 0.25
) -> float:
    """Chebyshev bound on P(|noisy average overlap - its expectation| >= omega).

    Returns (variance_cap/M + Laplace(eps, 1/M).variance) / omega^2.  The
    default cap 1/4 is the worst case for a [0, 1] variable; pass 1/12 for
    a uniform overlap.  Useful for screening M before spending any budget.
    """
    M, epsilon = count(M, "M"), positive(epsilon, "epsilon")
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
    diff_axis = grid(np.array([real(d, "relative difference") for d in diffs]), "diff")
    ratio_axis = np.array([positive(r, "sd ratio") for r in ratios])
    if not np.all(diff_axis >= 0):
        raise ConfigError("relative differences must be nonnegative")

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
