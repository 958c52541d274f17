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
# fit_subsets hands fit_stack whole blocks of at most about this many rows
# in all, so the copies a fit makes (column gather, the QR's own) stay small
FIT_CHUNK_ROWS = 1 << 16

RANK_DEFICIENT = "design matrix is rank deficient (collinear columns or subset too small)"


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


def _transform_column(values: np.ndarray, transform: str) -> np.ndarray:
    if transform == "identity":
        return values
    if transform == "square":
        return values * values
    return np.log(values)


def _design_buffer(
    dataset: Dataset, models
) -> tuple[np.ndarray, list[list[int]], list[list[str]]]:
    """One float64 array holding each distinct column the models need once,
    in order of first use: the intercept, then every model's terms and its
    response (a response is the same column as the plain term of its name).
    Also returns, per model, the buffer columns of its design with the
    response last (the layout :func:`fit_stack` takes), and its design
    names.  A cell outside a transform's domain (log of a value <= 0) or
    past the float range is left NaN or infinite."""
    keys: dict = {"intercept": 0} if any(model.intercept for model in models) else {}
    layouts, names = [], []
    for model in models:
        cols = [0] if model.intercept else []
        for term in model.terms + (Term.plain(model.response),):
            cols.append(keys.setdefault(term.factors, len(keys)))
        layouts.append(cols)
        names.append((["intercept"] if model.intercept else []) + list(model.term_names))
    buffer = np.empty((dataset.n_rows, len(keys)))
    for key, c in keys.items():
        if key == "intercept":
            buffer[:, c] = 1.0
            continue
        # a term is the product of its transformed factors, in factor order
        for i, (column, transform) in enumerate(key):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                values = _transform_column(dataset.column(column), transform)
                if i == 0:
                    buffer[:, c] = values
                else:
                    buffer[:, c] *= values
    return buffer, layouts, names


def design_with_response(dataset: Dataset, model: ModelSpec) -> tuple[np.ndarray, list[str]]:
    """Design matrix with the response appended as its last column (the
    layout :func:`fit_stack` takes), and the names of the design columns:
    the all-ones ``intercept`` column first iff the intercept is on, then
    term columns in specification order.

    Raises TransformDomainError when a design cell is not finite."""
    buffer, _, names = _design_buffer(dataset, [model])
    finite = np.isfinite(buffer).all(axis=0)
    if not finite.all():
        name = names[0][int(np.argmin(finite))]
        raise TransformDomainError(
            f"design column {name!r} is not finite: log of a value <= 0, or overflow"
        )
    return buffer, names[0]


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

    Raises TransformDomainError when a design cell is not finite,
    InsufficientDataError when there are fewer rows than k + 1 and
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
    numbers of a ``singular`` block are NaN."""

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


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """U = R^-1 for upper-triangular R with a nonzero diagonal, blocks along
    the last axis (shape (k, k, B)), by back substitution over the rows:
    U[i] = (e_i - sum_{m>i} r_im U[m]) / r_ii, where U[m] is zero left of m."""
    k = R.shape[0]
    U = np.zeros_like(R)
    # a tiny pivot may overflow; the rank rule, not a warning, judges the block
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k - 1, -1, -1):
            row = U[i]
            row[i] = 1.0
            for m in range(i + 1, k):
                row[m:] -= R[i, m] * U[m, m:]
            row[i:] /= R[i, i]
    return U


def fit_stack(Xy: np.ndarray) -> StackFit:
    """Fit y on the design X by ordinary least squares for every block of a
    stack Xy of shape (B, n, k + 1): block b is X = Xy[b, :, :k] and
    y = Xy[b, :, k].

    One batched, unpivoted QR of the blocks [X | y] gives everything: its
    leading k x k block is R, the rest of its last column is Q^T y, and its
    last diagonal entry is the norm of the residual vector, so neither Q nor
    the residuals are formed.  R^-1 comes by back substitution; the
    estimates are R^-1 Q^T y, the squared standard errors are sigma2_hat
    times the row sums of (R^-1)^2, and sigma2_hat = r_{k+1,k+1}^2 / (n - k).
    Past the QR every step is elementwise over the blocks, so a block's
    numbers do not depend on the stack it is fitted in.

    A singular block's numbers are NaN.  When n < k + 1 every block is
    flagged singular.  Otherwise a block is flagged singular when its R is
    not finite (the block holds a NaN or infinite cell) or when the pivoted
    rank rule refuses it.  That rule runs only on blocks whose R does not
    certify acceptance: the |r_ii| of any triangular factor of X lie in
    [sigma_min, sigma_max], so the pivoted ratio min|r_ii| / max|r_ii| is
    at least 1 / (||R||_F ||R^-1||_F).  A zero on the diagonal flags the
    block singular at once: X is then singular to working precision, which
    the pivoted rule refuses as well.
    """
    B, n, k = Xy.shape[0], Xy.shape[1], Xy.shape[2] - 1
    residual_df = np.full(B, n - k)
    if n < k + 1:
        nan = np.full((B, k), np.nan)
        return StackFit(nan, nan, residual_df, np.full(B, np.nan), np.ones(B, dtype=bool))
    # blocks along the last axis from here on
    R_aug = np.ascontiguousarray(np.moveaxis(np.linalg.qr(Xy, mode="r"), 0, -1))
    R, qty = R_aug[:k, :k], R_aug[:k, k]
    singular = ~np.isfinite(R_aug).all(axis=(0, 1)) | np.any(np.diagonal(R) == 0, axis=1)
    if singular.any():
        R_aug[..., singular] = np.eye(k + 1)[..., None]  # keeps what follows finite
    R_inv = _triangular_inverse(R)
    beta = np.zeros((k, B))
    diag_xtx_inv = np.zeros((k, B))
    # cells near the float limit may overflow a square below; the rank rule,
    # and a caller's check of the interval width, judge the block, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k):
            beta += R_inv[:, j] * qty[j]
            diag_xtx_inv += R_inv[:, j] * R_inv[:, j]
        cond_bound = np.sqrt(np.sum(R * R, axis=(0, 1)) * diag_xtx_inv.sum(axis=0))
        sigma2_hat = R_aug[k, k] ** 2 / (n - k)
        stderrs = np.sqrt(sigma2_hat * diag_xtx_inv)
    certified = cond_bound * (RANK_TOL * CERTIFICATE_MARGIN) < 1  # False on nan
    for b in np.flatnonzero(~(certified | singular)):
        singular[b] = _pivoted_rank_deficient(Xy[b, :, :k])
    if singular.any():
        beta[:, singular] = stderrs[:, singular] = sigma2_hat[singular] = np.nan
    return StackFit(
        coefficients=beta.T,
        stderrs=stderrs.T,
        residual_df=residual_df,
        sigma2_hat=sigma2_hat,
        singular=singular,
    )


def fit_subsets(
    dataset: Dataset, models, plan: PartitionPlan
) -> list[tuple[StackFit, list[str]]]:
    """Fit each model on each of the plan's M subsets: row l of a model's
    fit is subset l.  Returns one (fit, design column names) per model.

    All models share one design buffer (each distinct column once), which
    ``plan.split`` gathers into subset order once.  A model's stacks are its
    columns of the sorted buffer, as views when they are a contiguous run
    of it.  They go through :func:`fit_stack` about ``FIT_CHUNK_ROWS``
    rows at a time; a block's fit does not depend on the blocks fitted
    with it."""
    buffer, layouts, names = _design_buffer(dataset, models)
    stacks = plan.split(buffer)
    del buffer  # the stacks hold a sorted copy; free this one before fitting
    out = []
    for cols, model_names in zip(layouts, names):
        if cols == list(range(cols[0], cols[0] + len(cols))):
            columns = slice(cols[0], cols[-1] + 1)
        else:
            columns = cols
        fits = []
        for stack in stacks:
            step = max(1, FIT_CHUNK_ROWS // stack.shape[1])
            fits += [fit_stack(stack[start:start + step, :, columns])
                     for start in range(0, len(stack), step)]
        out.append((StackFit(*(np.concatenate([getattr(fit, f.name) for fit in fits])
                               for f in fields(StackFit))), model_names))
    return out


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
        raise DegenerateIntervalError(
            f"coefficient {which!r} has zero standard error; its interval would be a single point")
    half = t_quantile(fit.residual_df, (1 + level) / 2) * se
    return ConfidenceInterval(center - half, center + half, level)
