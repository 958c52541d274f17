"""Verification against alternative data: tolerance regions, noised indicator
counts, and the exact posterior for the fraction of in-region subsets.

The pipeline is: partition the confidential data, fit the published model on
each subset, count how many subset coefficients land in the tolerance region
(S, custodian-only; a subset whose fit fails counts 0), release
S + Laplace(0, 1/epsilon), and draw (r, S) exactly from their posterior
given the noisy count under the release's own law, ``privacy.Laplace``;
the ``burn_in`` of ``ADConfig.mcmc`` is unused.  Only the noisy count and
posterior summaries ever cross the privacy boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammaln, ndtr, xlogy

from .am import MAX_GRID_POINTS, check_cells, contour_csv
from .errors import ConfigError
from .linmod import ModelSpec, coef_position, fit_subsets
from .partition import PartitionPlan
from .privacy import (
    BudgetLedger,
    Laplace,
    PrivacyParams,
    Released,
    RngStream,
    RunConfig,
    count,
    fraction,
    grid,
    integer,
    pair,
    positive,
    real,
    release_run,
)
from .tabular import Dataset

# halvings of a unit bracket: below the spacing of doubles near 1/2
QUANTILE_BISECTIONS = 60

# most posterior draws a run keeps: every draw is written into the report
MAX_DRAWS = 10**6


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


@dataclass(frozen=True, kw_only=True)
class ADConfig(RunConfig):
    """Knobs for one verification run, on top of :class:`~dprep.privacy.RunConfig`.

    delta=None resolves to 0.5 for fixed regions and to 0.9 * delta_star
    for inflated ones at verification time; set it explicitly to override.
    mcmc=(burn_in, keep): keep, at most MAX_DRAWS, is the number of
    posterior draws; burn_in is validated and echoed in the report but
    unused, since the draws are exact and independent.
    """

    delta: float | None = None
    mcmc: tuple[int, int] = (500, 1000)

    def __post_init__(self):
        super().__post_init__()
        if self.delta is not None:
            object.__setattr__(self, "delta", fraction(self.delta, "delta"))
        burn_in, keep = pair(self.mcmc, "mcmc", integer)
        if burn_in < 0 or not 1 <= keep <= MAX_DRAWS:
            raise ConfigError(f"mcmc=(burn_in, keep) invalid: {self.mcmc}; "
                              f"keep must be an integer in 1..{MAX_DRAWS}")
        object.__setattr__(self, "mcmc", (burn_in, keep))


@dataclass(frozen=True)
class IndicatorCount:
    """Custodian-only: per-subset indicators, their sum, and the subset
    coefficient estimates.  Never crosses the release boundary."""

    W: np.ndarray
    S: int
    estimates: np.ndarray


def compute_indicator_count(
    dataset: Dataset,
    model: ModelSpec,
    coef,
    region: ToleranceRegion,
    plan: PartitionPlan,
) -> IndicatorCount:
    """Fit the model on every subset (:func:`~dprep.linmod.fit_subsets`) and
    count coefficients in the region.

    A subset whose fit fails (singular, too few rows, or a design cell that
    is not finite) gets W_l = 0 and a NaN estimate.  W_l is still a
    function of subset l's rows alone, so the count's sensitivity stays 1,
    and whether a subset fails never stops the run.
    """
    [(fit, names)] = fit_subsets(dataset, [model], plan)
    estimates = fit.coefficients[:, coef_position(names, coef)]
    W = (region.contains(estimates) & ~fit.singular).astype(np.intp)
    return IndicatorCount(W=W, S=int(W.sum()), estimates=estimates)


def release_count(S: int, config: ADConfig, ledger: BudgetLedger) -> Released:
    """Release S + Laplace(0, 1/epsilon); the count's global sensitivity is 1
    because one changed row can flip at most one subset's indicator.

    Neighbours differ by substituting one row and N is public: adding or
    removing a row re-draws the partition, which the sensitivity does not
    cover."""
    return release_run(float(S), 1.0, config, ledger, "ad-release")


@dataclass(frozen=True)
class ADPosterior:
    """Joint posterior samples of (r, S) given the noisy count."""

    r_samples: np.ndarray
    s_samples: np.ndarray
    delta: float
    theta_hat: float = field(init=False)

    def __post_init__(self):
        if self.r_samples.shape != self.s_samples.shape:
            raise ConfigError("sample vectors must have equal length")
        object.__setattr__(self, "theta_hat", theta_hat(self.r_samples, self.delta))


def theta_hat(r_samples: np.ndarray, delta: float) -> float:
    """Empirical posterior probability that r >= delta."""
    return float(np.mean(np.asarray(r_samples) >= fraction(delta, "delta")))


def s_marginal_logweights(
    s_noisy: float, M: int, mechanism: Laplace, a: float, b: float
) -> np.ndarray:
    """Unnormalized log p(S = s | s_noisy) for s in 0..M, with r integrated out.

    The weight of s is exp(mechanism.loglik(s_noisy - s)) * C(M, s) * B(s + a, M - s + b):
    the noise likelihood times the Beta-Binomial prior of the count.
    """
    s_grid = np.arange(M + 1)
    log_binom = gammaln(M + 1) - gammaln(s_grid + 1) - gammaln(M - s_grid + 1)
    return (mechanism.loglik(s_noisy - s_grid) + log_binom
            + betaln(s_grid + a, M - s_grid + b))


def gibbs_posterior(released: Released, delta: float | None = None) -> ADPosterior:
    """Exact i.i.d. draws of (r, S) given the noisy count.

    S takes only the values 0..M, so r integrates out in closed form: each
    pair is S drawn from its marginal (``s_marginal_logweights``, normalized
    by direct summation), then r | S ~ Beta(S + a, M - S + b).  There is no
    chain to mix.  The noise law is the release record's; M, the prior and the
    seed come from ``released.config``, and ``keep`` of ``config.mcmc`` is the number of draws.
    """
    config = released.config
    if delta is None:
        delta = config.delta if config.delta is not None else 0.5

    M = config.M
    a, b = config.prior
    _, keep = config.mcmc
    mechanism = Laplace(released.release.epsilon_spent, released.release.sensitivity)
    logw = s_marginal_logweights(released.release.value, M, mechanism, a, b)
    weights = np.exp(logw - logw.max())
    rng = RngStream(config.seed).child("ad-gibbs").generator
    s_samples = rng.choice(M + 1, size=keep, p=weights / weights.sum())
    r_samples = beta_conditional(rng, s_samples, M, a, b)
    return ADPosterior(r_samples=r_samples, s_samples=s_samples, delta=delta)


def beta_conditional(
    rng: np.random.Generator, S, M: int, a: float, b: float, size=None
):
    """Draw r | S from its exact Beta(S + a, M - S + b) conditional, elementwise in S."""
    return rng.beta(S + a, M - S + b, size=size)


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
    eta = Laplace(PrivacyParams.of(epsilon).epsilon, 1.0)
    gammas, Ms = grid(gamma_grid, "gamma"), [count(M, "M") for M in grid(M_grid, "M")]
    if max(Ms) > N:
        raise ConfigError(f"every M must satisfy 1 <= M <= N = {N}, got {max(Ms)}")
    check_cells("gamma grid x (largest M + 1)", len(gammas) * (max(Ms) + 1), MAX_GRID_POINTS)
    gamma_axis, M_axis = np.array([real(g, "gamma") for g in gammas]), np.array(Ms)
    if not np.all(np.isfinite(gamma_axis)):
        raise ConfigError("gamma grid values must be finite")

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
