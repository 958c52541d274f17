"""Linear-model specification, OLS fitting, and equal-tailed confidence intervals.

Deterministic throughout: fitting the same data twice gives identical
results, and fitting it with permuted rows gives results equal to rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg
from scipy.special import stdtrit

from .errors import (
    ConfigError,
    DegenerateIntervalError,
    InsufficientDataError,
    SingularFitError,
    TransformDomainError,
)
from .partition import PartitionPlan
from .tabular import Dataset

TRANSFORMS = ("identity", "log", "square")

# pivot threshold relative to the largest |R| diagonal entry of the pivoted QR
RANK_TOL = 1e-10
# a fit skips the pivoted rank check only when its unpivoted R bounds the
# pivoted diagonal ratio above RANK_TOL by at least this factor
CERTIFICATE_MARGIN = 1e3

RANK_DEFICIENT = "design matrix is rank deficient (collinear columns or subset too small)"
ZERO_SE = "coefficient {!r} has zero standard error; its interval would be a single point"


@dataclass(frozen=True)
class Term:
    """One design column: a product of transformed data columns.

    A single factor is an ordinary regressor; two or more factors denote a
    product interaction.
    """

    factors: tuple[tuple[str, str], ...]

    def __post_init__(self):
        factors = tuple((str(col), str(tr)) for col, tr in self.factors)
        if not factors:
            raise ConfigError("a term needs at least one factor")
        for _, transform in factors:
            if transform not in TRANSFORMS:
                raise ConfigError(
                    f"unknown transform {transform!r}; expected one of {TRANSFORMS}"
                )
        object.__setattr__(self, "factors", factors)

    @property
    def name(self) -> str:
        parts = []
        for col, transform in self.factors:
            if transform == "identity":
                parts.append(col)
            elif transform == "log":
                parts.append(f"log({col})")
            else:
                parts.append(f"sq({col})")
        return ":".join(parts)

    @property
    def column_ids(self) -> tuple[str, ...]:
        return tuple(col for col, _ in self.factors)

    @classmethod
    def plain(cls, column: str) -> "Term":
        return cls(((column, "identity"),))


@dataclass(frozen=True)
class ModelSpec:
    """Response column plus an ordered list of terms.

    An empty term list with the intercept on is the intercept-only model.
    """

    response: str
    terms: tuple[Term, ...]
    intercept: bool = True

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms and not self.intercept:
            raise ConfigError("model needs at least one term or an intercept")
        seen = set()
        for term in terms:
            if term.factors in seen:
                raise ConfigError(f"duplicate term {term.name!r}")
            seen.add(term.factors)
            if self.response in term.column_ids:
                raise ConfigError(
                    f"response {self.response!r} may not appear among the terms"
                )
        object.__setattr__(self, "terms", terms)

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(term.name for term in self.terms)


_FACTOR_RE = re.compile(r"^(?:(log|sq)\(\s*([^()\s]+)\s*\)|([^()\s:]+))$")


def _parse_factor(text: str) -> tuple[str, str]:
    m = _FACTOR_RE.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse factor {text!r}")
    if m.group(3) is not None:
        return m.group(3), "identity"
    return m.group(2), {"log": "log", "sq": "square"}[m.group(1)]


def parse_formula(formula: str, intercept: bool = True) -> ModelSpec:
    """Parse ``response ~ term + term`` into a ModelSpec.

    A term is ``col``, ``log(col)``, ``sq(col)``, or a ``:``-joined product
    of such factors; variables are dropped simply by omitting them.
    """
    if formula.count("~") != 1:
        raise ConfigError(f"formula needs exactly one '~': {formula!r}")
    lhs, rhs = (side.strip() for side in formula.split("~"))
    if not lhs:
        raise ConfigError("formula has an empty response")
    chunks = [chunk.strip() for chunk in rhs.split("+")]
    if chunks == ["1"]:
        # intercept-only model
        return ModelSpec(response=lhs, terms=(), intercept=True)
    terms = []
    for chunk in chunks:
        if not chunk:
            raise ConfigError(f"empty term in formula {formula!r}")
        if chunk == "1":
            raise ConfigError("'1' is only valid as the sole right-hand side")
        terms.append(Term(tuple(_parse_factor(f) for f in chunk.split(":"))))
    return ModelSpec(response=lhs, terms=tuple(terms), intercept=intercept)


def _transform_column(values: np.ndarray, column: str, transform: str) -> np.ndarray:
    if transform == "identity":
        return values
    if transform == "square":
        return values * values
    if np.any(values <= 0):
        raise TransformDomainError(
            f"log({column}) requires strictly positive values"
        )
    return np.log(values)


def design_with_response(dataset: Dataset, model: ModelSpec) -> tuple[np.ndarray, list[str]]:
    """Design matrix with the response appended as its last column (the
    layout :func:`fit_stack` takes), and the names of the design columns:
    the all-ones ``intercept`` column first iff the intercept is on, then
    term columns in specification order."""
    n = dataset.n_rows
    cols: list[np.ndarray] = []
    names: list[str] = []
    if model.intercept:
        cols.append(np.ones(n))
        names.append("intercept")
    for term in model.terms:
        col = np.ones(n)
        for column, transform in term.factors:
            col = col * _transform_column(dataset.column(column), column, transform)
        cols.append(col)
        names.append(term.name)
    cols.append(dataset.column(model.response))
    return np.column_stack(cols), names


@dataclass(frozen=True)
class FitResult:
    """OLS output: coefficients, standard errors, and residual variance."""

    coefficients: np.ndarray
    stderrs: np.ndarray
    residual_df: int
    sigma2_hat: float
    coef_index: dict[str, int]

    def __post_init__(self):
        if self.coefficients.shape != self.stderrs.shape:
            raise ConfigError("coefficient and stderr lengths disagree")
        if self.residual_df < 1:
            raise ConfigError("residual_df must be at least 1")

    def coef(self, which) -> float:
        return float(self.coefficients[self._index(which)])

    def stderr(self, which) -> float:
        return float(self.stderrs[self._index(which)])

    def _index(self, which) -> int:
        return coef_position(self.coef_index, which)


def coef_position(names, which) -> int:
    """Column of coefficient ``which``: an int index or a name in ``names``."""
    if isinstance(which, (int, np.integer)):
        return int(which)
    try:
        return list(names).index(which)
    except ValueError:
        raise ConfigError(f"no coefficient {which!r}; have {tuple(names)}") from None


def fit_ols(dataset: Dataset, model: ModelSpec) -> FitResult:
    """Fit the model on the whole dataset: a stack of one, see :func:`fit_stack`.

    Raises InsufficientDataError when there are fewer rows than k + 1 and
    SingularFitError when the design is rank deficient.
    """
    Xy, names = design_with_response(dataset, model)
    fit = fit_stack(Xy[None])
    if fit.singular[0]:
        short = fit.residual_df[0] < 1
        raise (InsufficientDataError if short else SingularFitError)(subset_failure(fit, 0))
    return FitResult(
        coefficients=fit.coefficients[0],
        stderrs=fit.stderrs[0],
        residual_df=int(fit.residual_df[0]),
        sigma2_hat=float(fit.sigma2_hat[0]),
        coef_index={name: i for i, name in enumerate(names)},
    )


@dataclass(frozen=True)
class StackFit:
    """OLS fits of B blocks; row b of each array belongs to block b.  The
    numbers of a ``singular`` block mean nothing."""

    coefficients: np.ndarray
    stderrs: np.ndarray
    residual_df: np.ndarray
    sigma2_hat: np.ndarray
    singular: np.ndarray


def _pivoted_rank_deficient(X: np.ndarray) -> bool:
    """The rank rule: with column pivoting, the smallest |R| diagonal entry
    is at most RANK_TOL times the largest."""
    R, _ = scipy.linalg.qr(X, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    return bool(diag.min() <= RANK_TOL * diag.max())


def fit_stack(Xy: np.ndarray) -> StackFit:
    """Fit y on the design X by ordinary least squares for every block of a
    stack Xy of shape (B, n, k + 1): block b is X = Xy[b, :, :k] and
    y = Xy[b, :, k].

    One batched, unpivoted QR of the blocks [X | y] gives R (the first k
    columns) and Q^T y (the last), so Q is never formed; the estimates and
    standard errors follow from R^-1.  When n < k + 1 every block is
    flagged singular and its numbers are NaN.  Otherwise a block is flagged
    singular exactly when the pivoted rank rule refuses it.  That rule runs
    only on blocks whose R does not certify acceptance: the |r_ii| of any
    triangular factor of X lie in [sigma_min, sigma_max], so the pivoted
    ratio min|r_ii| / max|r_ii| is at least 1 / (||R||_F ||R^-1||_F).  A
    zero on the diagonal flags the block singular at once: X is then
    singular to working precision, which the pivoted rule refuses as well.
    """
    B, n, k = Xy.shape[0], Xy.shape[1], Xy.shape[2] - 1
    residual_df = np.full(B, n - k)
    if n < k + 1:
        nan = np.full((B, k), np.nan)
        return StackFit(nan, nan, residual_df, np.full(B, np.nan), np.ones(B, dtype=bool))
    X, y = Xy[..., :k], Xy[..., k]
    R_aug = np.linalg.qr(Xy, mode="r")
    R = R_aug[:, :k, :k].copy()
    zero_diag = np.any(np.diagonal(R, axis1=1, axis2=2) == 0, axis=1)
    R[zero_diag] = np.eye(k)  # keeps inv from failing on the whole stack
    R_inv = np.linalg.inv(R)
    cond_bound = np.linalg.norm(R, axis=(1, 2)) * np.linalg.norm(R_inv, axis=(1, 2))
    certified = cond_bound * (RANK_TOL * CERTIFICATE_MARGIN) < 1  # False on nan
    singular = zero_diag.copy()
    for b in np.flatnonzero(~(certified | zero_diag)):
        singular[b] = _pivoted_rank_deficient(X[b])

    beta = (R_inv @ R_aug[:, :k, k:])[..., 0]
    residuals = y - (X @ beta[..., None])[..., 0]
    sigma2_hat = np.einsum("bn,bn->b", residuals, residuals) / (n - k)
    diag_xtx_inv = np.einsum("bij,bij->bi", R_inv, R_inv)
    return StackFit(
        coefficients=beta,
        stderrs=np.sqrt(sigma2_hat[:, None] * diag_xtx_inv),
        residual_df=residual_df,
        sigma2_hat=sigma2_hat,
        singular=singular,
    )


def fit_subsets(
    dataset: Dataset, model: ModelSpec, plan: PartitionPlan
) -> tuple[StackFit, list[str]]:
    """Fit the model on each of the plan's M subsets: row l of the result
    is subset l.  The design is built once and cut by ``plan.split``; each
    stack goes through :func:`fit_stack`.  Also returns the design's column
    names."""
    Xy, names = design_with_response(dataset, model)
    stacks = plan.split(Xy)
    del Xy  # the stacks hold a sorted copy; free this one before fitting
    fits = [fit_stack(stack) for stack in stacks]
    return StackFit(*(np.concatenate([getattr(fit, f.name) for fit in fits])
                      for f in fields(StackFit))), names


def subset_failure(fit: StackFit, l: int) -> str:
    """Why row l of a fit is singular: too few rows, or rank deficiency."""
    df, k = int(fit.residual_df[l]), fit.coefficients.shape[1]
    if df < 1:
        return f"need at least {k + 1} rows to fit {k} coefficients, have {df + k}"
    return RANK_DEFICIENT


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not 0 < self.level < 1:
            raise ConfigError(f"level must be in (0, 1), got {self.level}")
        if self.lower > self.upper:
            raise ConfigError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def t_quantile(df: int, p: float) -> float:
    """Student-t quantile; strictly increasing in p with t(df, 0.5) = 0."""
    if df < 1:
        raise ConfigError(f"df must be a positive integer, got {df}")
    if not 0 < p < 1:
        raise ConfigError(f"p must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    return float(stdtrit(df, p))


def confidence_interval(
    fit: FitResult, which, level: float, degenerate: str = "error"
) -> ConfidenceInterval:
    """Equal-tailed t confidence interval for one coefficient.

    A zero standard error makes the interval degenerate; by default that is
    an error because downstream overlap measures divide by interval length.
    Pass ``degenerate="point"`` to map it to a point interval instead.
    """
    if not 0 < level < 1:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    center = fit.coef(which)
    se = fit.stderr(which)
    if se == 0.0:
        if degenerate == "point":
            return ConfidenceInterval(center, center, level)
        raise DegenerateIntervalError(ZERO_SE.format(which))
    half = t_quantile(fit.residual_df, (1 + level) / 2) * se
    return ConfidenceInterval(center - half, center + half, level)
