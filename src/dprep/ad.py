"""Verification against alternative data: noised indicator counts and the
exact posterior for the fraction of in-region subsets.  Tolerance regions,
delta_star and the robustness contour take published numbers only and live
in :mod:`dprep.planning`.

The pipeline is: partition the confidential data, fit the published model on
each subset, count how many subset coefficients land in the tolerance region
(S, custodian-only; a subset whose fit fails counts 0), release
S + Laplace(0, 1/epsilon), and draw (r, S) exactly from their posterior
given the noisy count under the release's own law, ``privacy.Laplace``;
the ``burn_in`` of ``ADConfig.mcmc`` is unused.  Only the noisy count and
posterior summaries ever cross the privacy boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammaln

from .errors import ConfigError
from .linmod import ModelSpec, coef_position, fit_subsets
from .partition import PartitionPlan
from .planning import ToleranceRegion
from .privacy import (
    BudgetLedger,
    Laplace,
    Released,
    RngStream,
    RunConfig,
    fraction,
    integer,
    law_of,
    pair,
    release_run,
)
from .tabular import Dataset

# most posterior draws a run keeps: every draw is written into the report
MAX_DRAWS = 10**6


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
    chain to mix.  The noise law is the release record's, read back by
    ``privacy.law_of``; M, the prior and the seed come from ``released.config``,
    and ``keep`` of ``config.mcmc`` is the number of draws.
    """
    config = released.config
    if delta is None:
        delta = config.delta if config.delta is not None else 0.5

    M = config.M
    a, b = config.prior
    _, keep = config.mcmc
    logw = s_marginal_logweights(released.release.value, M, law_of(released.release), a, b)
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
