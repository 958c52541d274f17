"""Linear-model specification, OLS fitting, and equal-tailed confidence intervals.

Deterministic throughout: fitting the same data twice, or the same data
with permuted rows, gives identical results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.stats

from .errors import (
    ConfigError,
    DegenerateIntervalError,
    InsufficientDataError,
    SingularFitError,
    TransformDomainError,
)
from .tabular import Dataset

TRANSFORMS = ("identity", "log", "square")

# pivot threshold relative to the largest |R| diagonal entry of the QR
RANK_TOL = 1e-10


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


def design_columns(dataset: Dataset, model: ModelSpec) -> tuple[np.ndarray, list[str]]:
    """Design matrix and its column names: the all-ones ``intercept`` column
    first iff the intercept is on, then term columns in specification order."""
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
        if isinstance(which, (int, np.integer)):
            return int(which)
        try:
            return self.coef_index[which]
        except KeyError:
            raise ConfigError(
                f"no coefficient {which!r}; have {tuple(self.coef_index)}"
            ) from None


def fit_ols(dataset: Dataset, model: ModelSpec) -> FitResult:
    """Fit by ordinary least squares via pivoted QR.

    Raises InsufficientDataError when fewer than p + 2 rows are available
    and SingularFitError when the design is rank deficient (pivot threshold
    RANK_TOL relative to the largest |R| diagonal).
    """
    X, names = design_columns(dataset, model)
    y = dataset.column(model.response)
    n, k = X.shape
    if n < k + 1:
        raise InsufficientDataError(
            f"need at least {k + 1} rows to fit {k} coefficients, have {n}"
        )
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.min() <= RANK_TOL * diag.max():
        raise SingularFitError(
            "design matrix is rank deficient (collinear columns or subset too small)"
        )
    beta_piv = scipy.linalg.solve_triangular(R, Q.T @ y)
    beta = np.empty(k)
    beta[piv] = beta_piv

    residuals = y - X @ beta
    rss = float(residuals @ residuals)
    residual_df = n - k
    sigma2_hat = rss / residual_df

    r_inv = scipy.linalg.solve_triangular(R, np.eye(k))
    diag_xtx_inv_piv = np.sum(r_inv * r_inv, axis=1)
    diag_xtx_inv = np.empty(k)
    diag_xtx_inv[piv] = diag_xtx_inv_piv
    stderrs = np.sqrt(sigma2_hat * diag_xtx_inv)

    return FitResult(
        coefficients=beta,
        stderrs=stderrs,
        residual_df=residual_df,
        sigma2_hat=sigma2_hat,
        coef_index={name: i for i, name in enumerate(names)},
    )


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
    return float(scipy.stats.t.ppf(p, df))


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
        raise DegenerateIntervalError(
            f"coefficient {which!r} has zero standard error; "
            "its interval would be a single point"
        )
    half = t_quantile(fit.residual_df, (1 + level) / 2) * se
    return ConfidenceInterval(center - half, center + half, level)
