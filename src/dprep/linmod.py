"""Linear-model specification, OLS fitting, and equal-tailed confidence intervals.

Deterministic throughout: fitting the same data twice gives identical
results, and fitting it with permuted rows gives results equal to rounding.
"""

from __future__ import annotations

import os
import queue
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .errors import (
    ConfigError,
    DegenerateIntervalError,
    InsufficientDataError,
    SingularFitError,
    TransformDomainError,
)
from .partition import PartitionPlan
from .planning import ConfidenceInterval
from .privacy import count, fraction
from .tabular import Dataset

TRANSFORMS = ("identity", "log", "square")

# pivot threshold relative to the largest |R| diagonal entry of the pivoted QR
RANK_TOL = 1e-10
# a fit skips the pivoted rank check only when its unpivoted R bounds the
# pivoted diagonal ratio above RANK_TOL by at least this factor
CERTIFICATE_MARGIN = 1e3
# fit_subsets factors a stack of up to this many rows as one chunk on the
# calling thread, a taller one in chunks of a quarter of it on one thread
# per core
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


def _transform(values: np.ndarray, transform: str) -> None:
    """Apply a factor's transform to ``values`` in place."""
    if transform == "square":
        np.multiply(values, values, out=values)
    elif transform == "log":
        np.log(values, out=values)


def _design_layout(models) -> tuple[dict, list[list[int]], list[list[str]]]:
    """The design columns the models need, each distinct one once, in order
    of first use: the intercept, then every model's terms and its response
    (a response is the same column as the plain term of its name), as a
    dict from a column's key to its position.  Also returns, per model, the
    positions of its design with the response last (the layout
    :func:`fit_stack` takes), and its design names."""
    keys: dict = {"intercept": 0} if any(model.intercept for model in models) else {}
    layouts, names = [], []
    for model in models:
        cols = [0] if model.intercept else []
        for term in model.terms + (Term.plain(model.response),):
            cols.append(keys.setdefault(term.factors, len(keys)))
        layouts.append(cols)
        names.append((["intercept"] if model.intercept else []) + list(model.term_names))
    return keys, layouts, names


def _write_design(out: np.ndarray, keys: dict, gather) -> None:
    """Write design column c of :func:`_design_layout`'s ``keys`` into
    out[c]; ``gather(name, into)`` writes a data column's values on out's
    rows into ``into``.  A term is the product of its transformed factors,
    in factor order.  A cell outside a transform's domain (log of a value
    <= 0) or past the float range is left NaN or infinite, without a
    warning; the np.errstate is set here, as a pool thread does not see its
    caller's."""
    factor = None  # a later factor of a product, built apart
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for key, c in keys.items():
            if key == "intercept":
                out[c] = 1.0
                continue
            for i, (name, transform) in enumerate(key):
                if i and factor is None:
                    factor = np.empty_like(out[c])
                into = factor if i else out[c]
                gather(name, into)
                _transform(into, transform)
                if i:
                    out[c] *= factor


def design_with_response(dataset: Dataset, model: ModelSpec) -> tuple[np.ndarray, list[str]]:
    """Design matrix with the response appended as its last column (the
    layout :func:`fit_stack` takes), and the names of the design columns:
    the all-ones ``intercept`` column first iff the intercept is on, then
    term columns in specification order.

    Raises TransformDomainError when a design cell is not finite."""
    keys, _, [names] = _design_layout([model])
    design = np.empty((len(keys), dataset.n_rows))
    _write_design(design, keys, lambda name, into: np.copyto(into, dataset.column(name)))
    finite = np.isfinite(design).all(axis=1)
    if not finite.all():
        name = names[int(np.argmin(finite))]
        raise TransformDomainError(
            f"design column {name!r} is not finite: log of a value <= 0, or overflow"
        )
    return design.T, names


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


def _pivoted_rank_deficient(R: np.ndarray) -> bool:
    """The rank rule: with column pivoting, the smallest |R| diagonal entry
    is at most RANK_TOL times the largest.  Pivoted QR depends on a block X
    only through X^T X = R^T R, so X's R stands in for X."""
    import scipy.linalg  # only blocks the certificate leaves open get here
    R, _ = scipy.linalg.qr(R, mode="r", pivoting=True)
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
    """OLS fits of the blocks X = Xy[b, :, :k], y = Xy[b, :, k] of a stack Xy
    (B, n, k + 1): one batched, unpivoted QR, then :func:`fit_from_r`."""
    B, n, D = Xy.shape
    R_aug = np.zeros((B, D, D))  # zero rows pad R when n < k + 1
    R_aug[:, :n] = np.linalg.qr(Xy, mode="r")
    return fit_from_r(R_aug, n)


def fit_from_r(R_aug: np.ndarray, n) -> StackFit:
    """OLS fits of B blocks [X | y] of n rows (an int, or one per block) from
    R_aug (B, k + 1, k + 1), the R of a QR of each (any QR: negating its rows
    changes nothing here), zero rows padding it when n < k + 1.  R is its
    leading k x k block, Q^T y the rest of its last column and r_{k+1,k+1}
    the residual norm: R^-1 comes by back substitution, the estimates are
    R^-1 Q^T y, the squared SEs sigma2_hat times the row sums of (R^-1)^2,
    and sigma2_hat = r_{k+1,k+1}^2 / (n - k), elementwise over the blocks.

    A block is singular (its numbers NaN) when n < k + 1, when R_aug is not
    finite (a NaN or infinite cell), when R has a zero on its diagonal, or
    when the pivoted rank rule refuses it.  The rule runs only where R does
    not certify acceptance: the |r_ii| of any triangular factor of X lie in
    [sigma_min, sigma_max], so the pivoted ratio is >= 1 / (||R||_F ||R^-1||_F)."""
    B, k = R_aug.shape[0], R_aug.shape[1] - 1
    residual_df = np.broadcast_to(n, (B,)) - k
    # blocks along the last axis from here on, in a copy of the caller's R_aug
    Rt = np.moveaxis(R_aug, 0, -1).copy()
    R, qty = Rt[:k, :k], Rt[:k, k]
    singular = ((residual_df < 1) | ~np.isfinite(Rt).all(axis=(0, 1))
                | np.any(np.diagonal(R) == 0, axis=1))
    if singular.any():
        Rt[..., singular] = np.eye(k + 1)[..., None]  # keeps what follows finite
    R_inv = _triangular_inverse(R)
    beta = np.zeros((k, B))
    diag_xtx_inv = np.zeros((k, B))
    # a cell near the float limit may overflow a square, a short block has a
    # residual df <= 0: the singular mask and the caller judge, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(k):
            beta += R_inv[:, j] * qty[j]
            diag_xtx_inv += R_inv[:, j] * R_inv[:, j]
        cond_bound = np.sqrt(np.sum(R * R, axis=(0, 1)) * diag_xtx_inv.sum(axis=0))
        sigma2_hat = Rt[k, k] ** 2 / residual_df
        stderrs = np.sqrt(sigma2_hat * diag_xtx_inv)
    certified = cond_bound * (RANK_TOL * CERTIFICATE_MARGIN) < 1  # False on nan
    for b in np.flatnonzero(~(certified | singular)):
        singular[b] = _pivoted_rank_deficient(R_aug[b, :k, :k])
    if singular.any():
        beta[:, singular] = stderrs[:, singular] = sigma2_hat[singular] = np.nan
    return StackFit(beta.T, stderrs.T, residual_df, sigma2_hat, singular)


def _available_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _factor_in_chunks(dataset: Dataset, keys: dict, blocks: np.ndarray,
                      R_U: np.ndarray) -> None:
    """Fill R_U (M, D, D) with the R of the design of each block of rows
    blocks[l], the D columns of :func:`_design_layout`'s ``keys``, one chunk
    at a time: all M blocks when they hold at most ``FIT_CHUNK_ROWS`` rows,
    else ``FIT_CHUNK_ROWS // 4`` rows (at least one block).  Each chunk
    gathers its rows of the data columns and writes its own design
    (:func:`_write_design`), a pad row (index N) all zeros, which leaves a
    block's R as it is; so no array of the N rows is built.  One thread per
    core builds and factors the chunks, as take, the column arithmetic and
    the batched QR release the GIL; a block's R is the same bit for bit in
    any chunk and on any thread."""
    M, n = blocks.shape
    N, D = dataset.n_rows, R_U.shape[1]
    # looked up here, so that a missing column is raised before any chunk runs
    columns = {name: dataset.column(name)
               for key in keys if key != "intercept" for name, _ in key}
    step = M if M * n <= FIT_CHUNK_ROWS else max(1, FIT_CHUNK_ROWS // 4 // n)
    starts = range(0, M, step)
    workers = min(_available_cores(), len(starts))
    # one design buffer per running chunk, allocated here so that the
    # calling thread can reuse the memory once the pool is gone
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(np.empty((D, step, n)))

    def factor(start):
        out, index = free.get(), blocks[start:start + step]
        try:
            chunk = out[:, :len(index)]
            # "clip" reads the last row for a pad, which is zeroed below;
            # "raise" would gather into a temporary
            _write_design(chunk, keys, lambda name, into: np.take(
                columns[name], index, out=into, mode="clip"))
            chunk[:, index == N] = 0.0
            R_U[start:start + step, :n] = np.linalg.qr(chunk.transpose(1, 2, 0), mode="r")
        finally:
            free.put(out)  # also after an exception, or a running chunk would wait forever

    if workers == 1:
        for start in starts:
            factor(start)
        return
    # the pool lives for this call only; a chunk's exception is raised
    # here, after the chunks not yet started are cancelled
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(factor, starts))


def fit_subsets(
    dataset: Dataset, models, plan: PartitionPlan
) -> list[tuple[StackFit, list[str]]]:
    """Fit each model on each of the plan's M subsets: row l of a model's
    fit is subset l.  Returns one (fit, design column names) per model.

    The models share one design U, the distinct columns they need, of
    which each of the plan's blocks is built and factored once, into R_U,
    by :func:`_factor_in_chunks`.  A model's [X | y] is Q_U times its
    columns of R_U, whose QR is thus its R_aug; columns that lead both it
    and U are triangular in R_U already.  A model that is all of U is
    fitted bit for bit as alone, any other to rounding, except that a
    non-finite cell makes its column and every later one of its subset's
    R_U non-finite: a model using a later column is singular there too.  A
    plan for other rows is a ConfigError."""
    if plan.n_rows != dataset.n_rows:
        raise ConfigError(f"plan covers {plan.n_rows} rows but the data has {dataset.n_rows}")
    keys, layouts, names = _design_layout(models)
    D = len(keys)
    R_U = np.zeros((plan.M, D, D))  # zero rows pad R when a block has fewer than D rows
    _factor_in_chunks(dataset, keys, plan.blocks, R_U)
    out = []
    for cols, model_names in zip(layouts, names):
        p = next((i for i, c in enumerate(cols) if c != i), len(cols))
        R_aug = R_U[:, :len(cols), cols]
        if p < len(cols):
            R_aug[:, p:, p:] = np.linalg.qr(R_U[:, p:, cols[p:]], mode="r")
        out.append((fit_from_r(R_aug, plan.sizes), model_names))
    return out


def subset_failure(fit: StackFit, l: int) -> str:
    """Why row l of a fit is singular: too few rows, or rank deficiency."""
    df, k = int(fit.residual_df[l]), fit.coefficients.shape[1]
    if df < 1:
        return f"need at least {k + 1} rows to fit {k} coefficients, have {df + k}"
    return RANK_DEFICIENT


def t_quantile(df: int, p: float) -> float:
    """Student-t quantile; strictly increasing in p with t(df, 0.5) = 0."""
    df, p = count(df, "df"), fraction(p, "p")
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
    level = fraction(level, "level")
    center = fit.coef(which)
    se = fit.stderr(which)
    if se == 0.0:
        if degenerate == "point":
            return ConfidenceInterval(center, center, level)
        raise DegenerateIntervalError(
            f"coefficient {which!r} has zero standard error; its interval would be a single point")
    half = t_quantile(fit.residual_df, (1 + level) / 2) * se
    return ConfidenceInterval(center - half, center + half, level)
