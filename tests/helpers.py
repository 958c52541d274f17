"""Shared test fixtures: synthetic regression data and small utilities."""

from __future__ import annotations

import io
import json
import os
from dataclasses import fields

import numpy as np
from scipy.special import gammaln, xlogy

from dprep import (
    ConfigError,
    Dataset,
    DegenerateIntervalError,
    LedgerCorruptError,
    NoisyRelease,
    RngStream,
    SingularFitError,
    TransformDomainError,
    am,
    linmod,
)
from dprep.planning import Z975


def synth_dataset(
    n: int,
    seed: int,
    x2_coef: float = 0.9,
    noise_sd: float = 3.0,
    x2_on_x1: float = 0.0,
) -> Dataset:
    """Three-predictor generator used throughout the simulation tests.

    x1 ~ U[0, 10], x2 ~ N(5, 1) (optionally leaning on x1), x3 ~ Bern(0.5),
    y ~ N(2*x1 + x2_coef*x2 + 3*x3, noise_sd^2).
    """
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 10.0, n)
    x2 = rng.normal(5.0, 1.0, n) + x2_on_x1 * x1
    x3 = (rng.uniform(size=n) < 0.5).astype(float)
    y = 2.0 * x1 + x2_coef * x2 + 3.0 * x3 + rng.normal(0.0, noise_sd, n)
    return Dataset({"x1": x1, "x2": x2, "x3": x3, "y": y})


def load_json(path) -> dict:
    with open(os.fspath(path), encoding="utf-8") as fh:
        return json.load(fh)


def overlap_measure(i1, i2) -> float:
    """Reference for the per-subset overlap of ``am.average_overlap``, in
    plain Python floats: (c/len(i1) + c/len(i2)) / 2 for two intervals of
    positive length, c the length of their intersection (zero when
    disjoint)."""
    if i1.length <= 0 or i2.length <= 0:
        raise DegenerateIntervalError("overlap requires intervals of positive length")
    c = max(0.0, min(i1.upper, i2.upper) - max(i1.lower, i2.lower))
    return 0.5 * (c / i1.length + c / i2.length)


def am_overlap(i1, i2) -> float:
    """dprep's own overlap arithmetic, ``am._overlap``, on two intervals of
    positive length; it must equal ``overlap_measure`` exactly."""
    nu = float(am._overlap(i1.lower, i1.upper, i2.lower, i2.upper))
    assert nu == overlap_measure(i1, i2)
    return nu


def laplace_sample_reference(stream: RngStream, scale: float, size=None):
    """Reference Laplace(0, scale) draws: the inverse-CDF arithmetic dprep's
    sampler was first written with, on the stream's open uniforms; a float
    when ``size`` is omitted."""
    t = stream.uniform_open(size) - 0.5
    out = -scale * np.sign(t) * np.log1p(-2.0 * np.abs(t))
    return float(out) if size is None else out


def replace_row(dataset: Dataset, row: int, values: dict[str, float]) -> Dataset:
    """New Dataset with one row's cells replaced."""
    columns = {}
    for name, col in dataset.columns.items():
        new = col.copy()
        if name in values:
            new[row] = values[name]
        columns[name] = new
    return Dataset(columns)


def subset_oracle(dataset: Dataset, plan, fn) -> list:
    """Reference for the per-subset values of AD and AM: ``fn`` applied to
    a fresh Dataset of each subset's rows, in subset order, with None for a
    subset where it raises what the frameworks impute: a singular or short
    fit (SingularFitError, InsufficientDataError included), a zero-width
    interval (DegenerateIntervalError) or a design cell that is not finite
    (TransformDomainError)."""
    out = []
    for l in range(plan.M):
        rows = np.flatnonzero(plan.assignment == l)
        try:
            out.append(fn(Dataset({k: v[rows] for k, v in dataset.columns.items()})))
        except (SingularFitError, DegenerateIntervalError, TransformDomainError):
            out.append(None)
    return out


LEDGER_RECORD = NoisyRelease(value=3.0, epsilon_spent=0.5, sensitivity=1.0).to_record()
# ledger lines that are not valid release records
BAD_LEDGER_RECORDS = {
    "torn": LEDGER_RECORD[:25],
    "missing-key": json.dumps({k: v for k, v in json.loads(LEDGER_RECORD).items()
                               if k != "value"}),
    "invalid-epsilon": LEDGER_RECORD.replace('"epsilon": 0.5', '"epsilon": 0.0'),
    "infinite-epsilon": LEDGER_RECORD.replace('"epsilon": 0.5', '"epsilon": Infinity'),
    "not-an-object": "[0.5]",
    "value-not-a-number": LEDGER_RECORD.replace('"value": 3.0', '"value": "abc"'),
    "mechanism-not-a-string": LEDGER_RECORD.replace('"mechanism": "laplace"',
                                                    '"mechanism": 5'),
    # finite as a Python int, too large for a float
    "huge-int-epsilon": LEDGER_RECORD.replace('"epsilon": 0.5', '"epsilon": 1' + "0" * 400),
    "huge-int-value": LEDGER_RECORD.replace('"value": 3.0', '"value": 1' + "0" * 400),
    "bool-epsilon": LEDGER_RECORD.replace('"epsilon": 0.5', '"epsilon": true'),
    "bool-sensitivity": LEDGER_RECORD.replace('"sensitivity": 1.0', '"sensitivity": true'),
    "negative-sensitivity": LEDGER_RECORD.replace('"sensitivity": 1.0', '"sensitivity": -1.0'),
    "null-timestamp": LEDGER_RECORD.replace('"timestamp": ""', '"timestamp": null'),
}
# a record torn inside a timestamp holding bytes that are not UTF-8
TORN_NON_UTF8 = b'{"timestamp": "\xff\xfe'


def parse_records_oracle(data, path: str, first_line: int) -> tuple[list, int]:
    """Reference ledger parser: the per-line loop dprep used before the bulk
    pass.  Returns the NoisyRelease of every record in ``data`` and the
    number of lines they span, or raises LedgerCorruptError naming
    ``path:line``.
    """
    entries = []
    lineno = first_line - 1
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace")
    for lineno, line in enumerate(text, start=first_line):
        if not line.strip():
            continue
        try:
            if "\ufffd" in line:
                raise ValueError("bytes that are not UTF-8")
            entries.append(NoisyRelease.from_record(line))
        except (ValueError, KeyError, TypeError, RecursionError, ConfigError) as exc:
            raise LedgerCorruptError(
                f"{path}:{lineno}: unreadable ledger record ({exc!r})"
            ) from exc
    return entries, lineno - first_line + 1


def s_conditional_logweights(s_noisy: float, M: int, eps: float, r: float) -> np.ndarray:
    """Unnormalized log-weights of S | r, s_noisy over 0..M:
    exp(-eps*|s_noisy - s|) * C(M, s) * r^s (1-r)^(M-s); xlogy keeps the
    endpoints r = 0, 1 finite."""
    s_grid = np.arange(M + 1)
    log_binom = gammaln(M + 1) - gammaln(s_grid + 1) - gammaln(M - s_grid + 1)
    return (-eps * np.abs(s_noisy - s_grid) + log_binom
            + xlogy(s_grid, r) + xlogy(M - s_grid, 1.0 - r))


def gibbs_oracle(released, burn_in: int, keep: int, thin: int = 1):
    """Reference two-block Gibbs sampler for (r, S) given the noisy count.

    Alternates r | S ~ Beta(S + a, M - S + b) with S | r drawn from
    ``s_conditional_logweights``, starting from S = round(clamp(s_noisy, 0,
    M)).  With thin=1 it reproduces the draws of the Gibbs sampler dprep
    used before the collapsed one; thin keeps every thin-th sweep after the
    burn-in.  Returns (r_samples, s_samples).
    """
    config = released.config
    M, eps, (a, b) = config.M, config.epsilon, config.prior
    s_noisy = released.release.value
    rng = RngStream(config.seed).child("ad-gibbs").generator
    S = int(round(min(max(s_noisy, 0.0), float(M))))

    r_samples = np.empty(keep)
    s_samples = np.empty(keep, dtype=np.intp)
    for t in range(burn_in + keep * thin):
        r = rng.beta(S + a, M - S + b)
        logw = s_conditional_logweights(s_noisy, M, eps, r)
        logw -= logw.max()
        cdf = np.cumsum(np.exp(logw))
        S = int(np.searchsorted(cdf, rng.random() * cdf[-1]))
        kept, rest = divmod(t - burn_in, thin)
        if t >= burn_in and rest == 0:
            r_samples[kept] = r
            s_samples[kept] = S
    return r_samples, s_samples


def reference_fit_stack(Xy: np.ndarray) -> linmod.StackFit:
    """Reference fit core: the one dprep used before the triangular inverse.

    The same batched QR of [X | y] and the same rank decisions as
    ``linmod.fit_stack``, but R^-1 comes from an LU ``np.linalg.inv``,
    sigma2_hat from an explicit pass over the residuals y - X beta, and the
    pivoted rank rule sees the raw block X rather than its R.
    """
    B, n, k = Xy.shape[0], Xy.shape[1], Xy.shape[2] - 1
    residual_df = np.full(B, n - k)
    if n < k + 1:
        nan = np.full((B, k), np.nan)
        return linmod.StackFit(nan, nan, residual_df, np.full(B, np.nan),
                               np.ones(B, dtype=bool))
    X, y = Xy[..., :k], Xy[..., k]
    R_aug = np.linalg.qr(Xy, mode="r")
    R = R_aug[:, :k, :k].copy()
    zero_diag = np.any(np.diagonal(R, axis1=1, axis2=2) == 0, axis=1)
    R[zero_diag] = np.eye(k)  # keeps inv from failing on the whole stack
    R_inv = np.linalg.inv(R)
    cond_bound = np.linalg.norm(R, axis=(1, 2)) * np.linalg.norm(R_inv, axis=(1, 2))
    certified = cond_bound * (linmod.RANK_TOL * linmod.CERTIFICATE_MARGIN) < 1
    singular = zero_diag.copy()
    for b in np.flatnonzero(~(certified | zero_diag)):
        singular[b] = linmod._pivoted_rank_deficient(X[b])

    beta = (R_inv @ R_aug[:, :k, k:])[..., 0]
    residuals = y - (X @ beta[..., None])[..., 0]
    sigma2_hat = np.einsum("bn,bn->b", residuals, residuals) / (n - k)
    diag_xtx_inv = np.einsum("bij,bij->bi", R_inv, R_inv)
    return linmod.StackFit(
        coefficients=beta,
        stderrs=np.sqrt(sigma2_hat[:, None] * diag_xtx_inv),
        residual_df=residual_df,
        sigma2_hat=sigma2_hat,
        singular=singular,
    )


def split(plan, values) -> list[np.ndarray]:
    """``values`` (indexed by row along its first axis) cut into the plan's
    subset blocks, stacked by block size: the N mod M blocks of ceil(N/M)
    rows, then the rest.  Each block keeps the original row order.  Oracle
    input for ``linmod.fit_stack``: no block holds a pad row."""
    sizes = plan.sizes
    return [np.take(values, plan.blocks[sizes == size, :size], axis=0)
            for size in np.unique(sizes)[::-1]]


def shared_design(dataset: Dataset, models) -> tuple[np.ndarray, list, list]:
    """The models' shared design on all N rows, (N, D), written by
    ``linmod``'s one design writer in the column order ``fit_subsets``
    factors, unchecked (a cell outside a transform's domain is left NaN);
    also each model's layout of it and its design names."""
    keys, layouts, names = linmod._design_layout(models)
    design = np.empty((len(keys), dataset.n_rows))
    linmod._write_design(design, keys,
                         lambda name, into: np.copyto(into, dataset.column(name)))
    return design.T, layouts, names


def reference_fit_subsets(dataset: Dataset, models, plan) -> list:
    """Reference for ``linmod.fit_subsets``: the path dprep took before the
    models shared one QR per subset.  Each model's own design is gathered
    into subset order and fitted by one ``linmod.fit_stack`` per stack of
    equally sized blocks.  Returns one (fit, design column names) per
    model."""
    out = []
    for model in models:
        Xy, _, [names] = shared_design(dataset, [model])
        fits = [linmod.fit_stack(stack) for stack in split(plan, Xy)]
        out.append((linmod.StackFit(*(np.concatenate([getattr(fit, f.name) for fit in fits])
                                      for f in fields(linmod.StackFit))), names))
    return out


def robustness_cell_oracle(gamma, M, sigma_hat_o, n0, N, eps, region, K, stream,
                           chunk=50_000):
    """Reference simulation of one robustness-contour cell: the Monte Carlo
    dprep ran before the exact CDF.  Returns K draws of r_obs = (S + eta)/M,
    S counting in-region draws among M Normal(gamma, (n0/n)*sigma_hat_o^2)
    coefficients with n = floor(N/M), eta ~ Laplace(0, 1/eps).  Draws come
    ``chunk`` replicates at a time to bound memory."""
    sd = sigma_hat_o * np.sqrt(n0 / (N // M))
    r_obs = np.empty(K)
    for start in range(0, K, chunk):
        k = min(chunk, K - start)
        coefs = stream.generator.normal(gamma, sd, size=(k, M))
        S = region.contains(coefs).sum(axis=1)
        r_obs[start:start + k] = (S + laplace_sample_reference(stream, 1.0 / eps, size=k)) / M
    return r_obs


def reference_cell_oracle(gamma, sigma_gamma, corr, diff, ratio, K, stream):
    """Reference simulation of one reference-contour cell: the Monte Carlo
    dprep ran before the closed form.  Returns K overlaps of the 95% normal
    CIs of (gamma_hat, beta_hat) drawn from the bivariate normal with means
    (gamma, gamma - diff*|gamma|), sds (sigma_gamma, ratio*sigma_gamma)
    and the given correlation."""
    beta = gamma - diff * abs(gamma)
    sigma_beta = ratio * sigma_gamma
    tail = np.sqrt(max(0.0, 1.0 - corr * corr))
    z = stream.generator.standard_normal((K, 2))
    gamma_hat = gamma + sigma_gamma * z[:, 0]
    beta_hat = beta + sigma_beta * (corr * z[:, 0] + tail * z[:, 1])
    hw1, hw2 = Z975 * sigma_gamma, Z975 * sigma_beta
    c = np.minimum(gamma_hat + hw1, beta_hat + hw2) - np.maximum(gamma_hat - hw1,
                                                                 beta_hat - hw2)
    c = np.clip(c, 0.0, None)
    return 0.5 * (c / (2 * hw1) + c / (2 * hw2))
