"""Verification against alternative data: tolerance regions, noised indicator
counts, and the exact Gibbs posterior for the fraction of in-region subsets.

The pipeline is: partition the confidential data, fit the published model on
each subset, count how many subset coefficients land in the tolerance region
(S, custodian-only), release S + Laplace(0, 1/epsilon), and sample the joint
posterior of (r, S) given the noisy count.  Only the noisy count and
posterior summaries ever cross the privacy boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ndtr, xlogy

from .errors import ConfigError, SingularFitError
from .linmod import ModelSpec, fit_ols
from .partition import PartitionPlan, subset_view
from .privacy import (
    BudgetLedger,
    NoisyRelease,
    PrivacyParams,
    RngStream,
    laplace_sample,
    release_scalar,
)
from .tabular import Dataset


@dataclass(frozen=True)
class InflationProvenance:
    """Published quantities an inflated region was built from."""

    gamma_hat_o: float
    sigma_hat_o: float
    alpha: float
    n0: int
    n: int


@dataclass(frozen=True)
class ToleranceRegion:
    """Closed interval the subset coefficients are tested against.

    Membership is closed on both ends; an estimate exactly on a boundary
    counts as inside (a measure-zero event, but the rule must be
    deterministic).
    """

    lower: float
    upper: float
    kind: str = "fixed"
    provenance: InflationProvenance | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "inflated"):
            raise ConfigError(f"unknown region kind {self.kind!r}")
        if not self.lower < self.upper:
            raise ConfigError(
                f"region lower bound {self.lower} must be below upper bound {self.upper}"
            )
        if self.kind == "inflated":
            if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
                raise ConfigError("inflated regions must be finite")
            if self.provenance is None:
                raise ConfigError("inflated regions must carry their provenance")

    def contains(self, x) -> np.ndarray | bool:
        return (x >= self.lower) & (x <= self.upper)


def build_fixed_region(lower: float, upper: float) -> ToleranceRegion:
    """Fixed tolerance region; bounds may be infinite (e.g. [0, +inf) for a
    sign test)."""
    return ToleranceRegion(lower=float(lower), upper=float(upper), kind="fixed")


def build_inflated_region(
    gamma_hat_o: float, sigma_hat_o: float, alpha: float, n0: int, n: int
) -> ToleranceRegion:
    """Region gamma_hat_o +/- alpha*sqrt(n0/n)*sigma_hat_o.

    Inflation widens a published-uncertainty region to the subset scale,
    where estimates are noisier.  Deflation (n > n0) is refused: shrinking
    a region centered at the published estimate would amplify its bias, so
    choose M to make the subset size n close to n0 instead.
    """
    if not sigma_hat_o > 0:
        raise ConfigError(f"sigma_hat_o must be positive, got {sigma_hat_o}")
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if n0 < 1 or n < 1:
        raise ConfigError("sample sizes must be positive")
    if n > n0:
        raise ConfigError(
            f"subset size n={n} exceeds the original sample size n0={n0}; "
            "refusing to deflate the region -- choose M so that n is close to n0"
        )
    half = alpha * math.sqrt(n0 / n) * sigma_hat_o
    return ToleranceRegion(
        lower=gamma_hat_o - half,
        upper=gamma_hat_o + half,
        kind="inflated",
        provenance=InflationProvenance(gamma_hat_o, sigma_hat_o, alpha, n0, n),
    )


@dataclass(frozen=True)
class ADConfig:
    """Knobs for one verification run.

    delta=None resolves to 0.5 for fixed regions and to 0.9 * delta_star
    for inflated ones at verification time; set it explicitly to override.
    """

    M: int
    epsilon: PrivacyParams
    delta: float | None = None
    prior: tuple[float, float] = (1.0, 1.0)
    mcmc: tuple[int, int] = (500, 1000)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.epsilon, PrivacyParams):
            object.__setattr__(self, "epsilon", PrivacyParams(float(self.epsilon)))
        if self.M < 2:
            raise ConfigError(f"M must be at least 2, got {self.M}")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        a, b = self.prior
        if not (a > 0 and b > 0):
            raise ConfigError(f"prior hyperparameters must be positive, got {self.prior}")
        burn_in, keep = self.mcmc
        if burn_in < 0 or keep < 1:
            raise ConfigError(f"mcmc=(burn_in, keep) invalid: {self.mcmc}")

    @property
    def eps(self) -> float:
        return self.epsilon.epsilon


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
    """Fit the model on every subset and count coefficients in the region.

    A singular subset fit aborts the whole run (naming the subset) rather
    than imputing W_l = 0: the count's sensitivity argument assumes all M
    subsets produced an indicator.
    """
    estimates = np.empty(plan.M)
    for l in range(plan.M):
        try:
            fit = fit_ols(subset_view(dataset, plan, l), model)
        except SingularFitError as exc:
            raise SingularFitError(f"subset {l}: {exc}", subset=l) from exc
        estimates[l] = fit.coef(coef)
    W = region.contains(estimates).astype(np.intp)
    return IndicatorCount(W=W, S=int(W.sum()), estimates=estimates)


@dataclass(frozen=True)
class ADReleased:
    """The noisy count, the only data-derived field that leaves custody."""

    s_noisy: float
    config: ADConfig
    release: NoisyRelease


def release_count(
    S: int, config: ADConfig, ledger: BudgetLedger, stream: RngStream | None = None
) -> ADReleased:
    """Release S + Laplace(0, 1/epsilon); the count's global sensitivity is 1
    because one changed row can flip at most one subset's indicator."""
    if stream is None:
        stream = RngStream(config.seed).child("ad-release")
    release = release_scalar(float(S), 1.0, config.epsilon, ledger, stream)
    return ADReleased(s_noisy=release.value, config=config, release=release)


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
    if not 0 < delta < 1:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    return float(np.mean(np.asarray(r_samples) >= delta))


def _r_free_logweights(s_noisy: float, M: int, eps: float) -> np.ndarray:
    """-eps*|s_noisy - s| + log C(M, s) for s in 0..M: the S-conditional without r."""
    s_grid = np.arange(M + 1)
    log_binom = gammaln(M + 1) - gammaln(s_grid + 1) - gammaln(M - s_grid + 1)
    return -eps * np.abs(s_noisy - s_grid) + log_binom


def s_conditional_logweights(
    s_noisy: float, M: int, eps: float, r: float, r_free: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized log-weights of the count's conditional on s in 0..M.

    The weight of s is exp(-eps*|s_noisy - s|) * C(M, s) * r^s (1-r)^(M-s);
    xlogy keeps the endpoints r = 0, 1 finite.  A sampler passes in
    ``r_free = _r_free_logweights(...)`` so that part is computed once.
    """
    if r_free is None:
        r_free = _r_free_logweights(s_noisy, M, eps)
    s_grid = np.arange(M + 1)
    return r_free + xlogy(s_grid, r) + xlogy(M - s_grid, 1.0 - r)


def gibbs_posterior(released: ADReleased, delta: float | None = None) -> ADPosterior:
    """Exact two-block Gibbs sampler for (r, S) given the noisy count.

    Both full conditionals are available in closed form, so no proposal
    tuning is needed:

    * r | S is Beta(S + a, M - S + b);
    * S | r, s_noisy is the discrete distribution over 0..M with weight
      proportional to exp(-eps*|s_noisy - s|) * C(M, s) * r^s (1-r)^(M-s),
      normalized by direct summation.

    M, epsilon, the prior, the chain lengths and the seed all come from
    ``released.config``.  The chain starts from S = round(clamp(s_noisy,
    0, M)), discards the burn-in, and keeps the configured number of draws.
    """
    config = released.config
    if delta is None:
        delta = config.delta if config.delta is not None else 0.5

    M = config.M
    eps = config.eps
    a, b = config.prior
    burn_in, keep = config.mcmc
    s_noisy = released.s_noisy

    r_free = _r_free_logweights(s_noisy, M, eps)
    rng = RngStream(config.seed).child("ad-gibbs").generator
    S = int(round(min(max(s_noisy, 0.0), float(M))))

    r_samples = np.empty(keep)
    s_samples = np.empty(keep, dtype=np.intp)
    for t in range(burn_in + keep):
        r = beta_conditional(rng, S, M, a, b)
        logw = s_conditional_logweights(s_noisy, M, eps, r, r_free)
        logw -= logw.max()
        cdf = np.cumsum(np.exp(logw))
        S = int(np.searchsorted(cdf, rng.random() * cdf[-1]))
        if t >= burn_in:
            r_samples[t - burn_in] = r
            s_samples[t - burn_in] = S
    return ADPosterior(r_samples=r_samples, s_samples=s_samples, delta=delta)


def beta_conditional(
    rng: np.random.Generator, S: int, M: int, a: float, b: float, size=None
):
    """Draw r | S from its exact Beta(S + a, M - S + b) conditional."""
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
    if not sigma_hat_o > 0:
        raise ConfigError(f"sigma_hat_o must be positive, got {sigma_hat_o}")
    if not alpha > 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if n > n0:
        raise ConfigError(
            f"subset size n={n} exceeds the original sample size n0={n0}; "
            "refusing to deflate -- choose M so that n is close to n0"
        )
    s = math.sqrt(n0 / n)
    return float(ndtr(alpha * (1 + 1 / s)) - ndtr(alpha * (1 / s - 1)))


@dataclass(frozen=True)
class RobustnessGrid:
    """Distance of the noisy-count fraction from 1/2 over a (gamma, M) grid."""

    gamma_axis: np.ndarray
    M_axis: np.ndarray
    T: np.ndarray
    K: int

    def to_csv(self) -> str:
        lines = ["gamma\\M," + ",".join(str(int(m)) for m in self.M_axis)]
        for g, row in zip(self.gamma_axis, self.T):
            lines.append(f"{g:.10g}," + ",".join(f"{v:.6g}" for v in row))
        return "\n".join(lines) + "\n"


def robustness_contour(
    gamma_grid,
    M_grid,
    sigma_hat_o: float,
    n0: int,
    N: int,
    epsilon,
    region: ToleranceRegion,
    K: int = 750,
    seed: int = 0,
) -> RobustnessGrid:
    """Simulate the noisy-count fraction to guide the choice of M.

    Per cell (gamma, M): draw M coefficients from Normal(gamma,
    (n0/n)*sigma_hat_o^2) with n = floor(N/M), count the in-region ones,
    add Laplace(0, 1/epsilon), and form r_obs = (S + eta)/M; repeat K
    times.  T is zero when 0.5 sits inside the empirical [q10, q90] of
    r_obs and the distance from 0.5 to that interval otherwise, so T > 0
    marks (gamma, M) cells where a single verification is robust.

    Uses only published quantities: no confidential data is touched and no
    privacy budget is spent.  Cells draw from independent streams keyed by
    their index, so parallel and serial evaluation give identical grids.
    """
    gamma_axis = np.atleast_1d(np.asarray(gamma_grid, dtype=float))
    M_axis = np.atleast_1d(np.asarray(M_grid, dtype=int))
    if gamma_axis.size == 0 or M_axis.size == 0:
        raise ConfigError("gamma and M grids must be nonempty")
    if K < 100:
        raise ConfigError(f"K must be at least 100, got {K}")
    if not sigma_hat_o > 0:
        raise ConfigError(f"sigma_hat_o must be positive, got {sigma_hat_o}")
    eps = epsilon.epsilon if isinstance(epsilon, PrivacyParams) else float(epsilon)
    if not eps > 0:
        raise ConfigError(f"epsilon must be positive, got {eps}")
    if np.any(M_axis < 1) or np.any(M_axis > N):
        raise ConfigError("every M must satisfy 1 <= M <= N")

    root = RngStream(seed)
    T = np.empty((gamma_axis.size, M_axis.size))
    for i, gamma in enumerate(gamma_axis):
        for j, M in enumerate(M_axis):
            M = int(M)
            n = N // M
            sd = sigma_hat_o * math.sqrt(n0 / n)
            stream = root.child("ad-contour", i * M_axis.size + j)
            coefs = stream.generator.normal(gamma, sd, size=(K, M))
            S = region.contains(coefs).sum(axis=1)
            eta = laplace_sample(stream, 1.0 / eps, size=K)
            r_obs = (S + eta) / M
            q10, q90 = np.quantile(r_obs, [0.1, 0.9])
            if q10 <= 0.5 <= q90:
                T[i, j] = 0.0
            else:
                T[i, j] = q10 - 0.5 if q10 > 0.5 else 0.5 - q90
    return RobustnessGrid(gamma_axis=gamma_axis, M_axis=M_axis, T=T, K=K)
