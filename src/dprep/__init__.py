"""Differentially private replication analysis for linear-regression effect sizes.

Two verification pipelines over confidential tabular data:

* alternative data (``ad``): does the published coefficient replicate on new
  data?  Released as a noised count of in-region subset estimates plus its
  Beta-Binomial-Laplace posterior.
* alternative model (``am``): do two model specifications agree?  Released
  as a noised average confidence-interval overlap plus its posterior,
  optionally inverted into a bound on the coefficient difference.
* planning (``planning``): regions, contours and the inversion, computed
  from published numbers alone; it imports no part of the pipeline and
  spends no budget.

Only Laplace-noised releases recorded in a budget ledger ever cross the
privacy boundary; everything else stays with the data custodian.
"""

__version__ = "0.1.0"

from .ad import (
    ADConfig,
    ADPosterior,
    compute_indicator_count,
    gibbs_posterior,
    release_count,
    theta_hat,
)
from .am import (
    AMConfig,
    AMPosterior,
    OverlapResult,
    average_overlap,
    credible_interval,
    posterior_nu,
    release_overlap,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DegenerateIntervalError,
    DprepError,
    IngestionError,
    InsufficientDataError,
    LedgerCorruptError,
    SingularFitError,
    TransformDomainError,
)
from .linmod import (
    FitResult,
    ModelSpec,
    Term,
    confidence_interval,
    fit_ols,
    parse_formula,
    t_quantile,
)
from .partition import PartitionPlan, make_partition
from .planning import (
    ConfidenceInterval,
    ContourGrid,
    InversionAssumption,
    RobustnessGrid,
    ToleranceRegion,
    build_fixed_region,
    build_inflated_region,
    delta_star,
    error_bound,
    invert_credible_interval,
    invert_overlap,
    null_assumption_lengths,
    reference_contour,
    robustness_contour,
)
from .privacy import (
    BudgetLedger,
    Laplace,
    NoisyRelease,
    PrivacyParams,
    Released,
    RngStream,
    UncappedBudgetWarning,
    release_scalar,
)
from .tabular import Dataset, encode_categoricals, read_schema, read_table
from .verify import ad_verify, am_verify, fit_summary

__all__ = [
    # ad
    "ADConfig", "ADPosterior", "compute_indicator_count", "gibbs_posterior", "release_count",
    "theta_hat",
    # am
    "AMConfig", "AMPosterior", "OverlapResult", "average_overlap", "credible_interval",
    "posterior_nu", "release_overlap",
    # errors
    "BudgetExceededError", "ConfigError", "DegenerateIntervalError", "DprepError",
    "IngestionError", "InsufficientDataError", "LedgerCorruptError", "SingularFitError",
    "TransformDomainError",
    # linmod
    "FitResult", "ModelSpec", "Term", "confidence_interval", "fit_ols", "parse_formula",
    "t_quantile",
    # partition
    "PartitionPlan", "make_partition",
    # planning
    "ConfidenceInterval", "ContourGrid", "InversionAssumption", "RobustnessGrid",
    "ToleranceRegion", "build_fixed_region", "build_inflated_region", "delta_star",
    "error_bound", "invert_credible_interval", "invert_overlap", "null_assumption_lengths",
    "reference_contour", "robustness_contour",
    # privacy
    "BudgetLedger", "Laplace", "NoisyRelease", "PrivacyParams", "Released", "RngStream",
    "UncappedBudgetWarning", "release_scalar",
    # tabular
    "Dataset", "encode_categoricals", "read_schema", "read_table",
    # verify
    "ad_verify", "am_verify", "fit_summary",
]
