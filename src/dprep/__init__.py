"""Differentially private replication analysis for linear-regression effect sizes.

Two verification pipelines over confidential tabular data:

* alternative data (``ad``): does the published coefficient replicate on new
  data?  Released as a noised count of in-region subset estimates plus its
  Beta-Binomial-Laplace posterior.
* alternative model (``am``): do two model specifications agree?  Released
  as a noised average confidence-interval overlap plus its posterior,
  optionally inverted into a bound on the coefficient difference.

Only Laplace-noised releases recorded in a budget ledger ever cross the
privacy boundary; everything else stays with the data custodian.
"""

__version__ = "0.1.0"

from .ad import (
    ADConfig,
    ADPosterior,
    RobustnessGrid,
    ToleranceRegion,
    build_fixed_region,
    build_inflated_region,
    compute_indicator_count,
    delta_star,
    gibbs_posterior,
    release_count,
    robustness_contour,
    theta_hat,
)
from .am import (
    AMConfig,
    AMPosterior,
    ContourGrid,
    InversionAssumption,
    OverlapResult,
    average_overlap,
    credible_interval,
    error_bound,
    invert_credible_interval,
    invert_overlap,
    null_assumption_lengths,
    overlap_measure,
    posterior_nu,
    reference_contour,
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
    ConfidenceInterval,
    FitResult,
    ModelSpec,
    Term,
    confidence_interval,
    fit_ols,
    parse_formula,
    t_quantile,
)
from .partition import PartitionPlan, make_partition
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
