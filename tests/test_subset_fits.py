"""The subset fits of AD and AM equal whole-model fits on each subset's rows,
and the batched fit core agrees with the per-block pivoted-QR fit."""

import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from helpers import (overlap_measure, reference_fit_stack, reference_fit_subsets, replace_row,
                     shared_design, split, subset_oracle, synth_dataset)

from dprep import (
    ConfigError,
    Dataset,
    DegenerateIntervalError,
    SingularFitError,
    average_overlap,
    build_fixed_region,
    compute_indicator_count,
    confidence_interval,
    fit_ols,
    make_partition,
    parse_formula,
)
from dprep import linmod
from dprep.linmod import (
    RANK_DEFICIENT,
    RANK_TOL,
    design_with_response,
    fit_stack,
    fit_subsets,
    subset_failure,
)


def _subset_fits(ds, model, plan):
    """Oracle: fit_ols on a fresh Dataset of each subset's rows."""
    fits = []
    for l in range(plan.M):
        rows = np.flatnonzero(plan.assignment == l)
        fits.append(fit_ols(Dataset({k: v[rows] for k, v in ds.columns.items()}),
                            model))
    return fits


def _expected_estimates(ds, model, coef, plan):
    """Oracle: fit_ols's estimate of coef on each subset alone, NaN where
    that fit fails."""
    estimates = subset_oracle(ds, plan, lambda sub: fit_ols(sub, model).coef(coef))
    return np.array([np.nan if e is None else e for e in estimates])


def _rtol(kappa):
    """rtol 1e-10, or 10 kappa eps where a design's condition number kappa
    makes that larger: the precision two QR-based fits of one block share
    (see _assert_fits_close)."""
    return np.maximum(1e-10, 10 * kappa * np.finfo(float).eps)


def _expected_intervals(ds, models, coef, plan, level=0.95):
    """Oracle: per subset, each model's interval of coef from fit_ols on the
    subset alone with the _rtol of its design; None where a fit fails or an
    interval has zero width."""
    def intervals(sub):
        return [(confidence_interval(fit_ols(sub, model), coef, level),
                 _rtol(np.linalg.cond(design_with_response(sub, model)[0][:, :-1])))
                for model in models]
    return subset_oracle(ds, plan, intervals)


def _assert_overlaps_close(res, expected):
    """average_overlap's result against _expected_intervals: nu_l = 0
    exactly where the oracle fails.  Elsewhere a model's coefficient and SE
    each within its rtol, so each bound within delta = rtol * max(|lower|,
    |upper|) of the oracle's; moves that small shift an overlap by at most
    4 max(delta) / min(length)."""
    for l, cis in enumerate(expected):
        if cis is None:
            assert res.nus[l] == 0.0
            continue
        deltas = [rtol * max(abs(ci.lower), abs(ci.upper)) for ci, rtol in cis]
        for m, ((ci, _), delta) in enumerate(zip(cis, deltas)):
            assert abs(res.lower[m, l] - ci.lower) <= delta
            assert abs(res.upper[m, l] - ci.upper) <= delta
        nu = overlap_measure(*(ci for ci, _ in cis))
        assert abs(res.nus[l] - nu) <= 4 * max(deltas) / min(ci.length for ci, _ in cis)


def _expected_overlaps(ds, models, coef, plan, level=0.95):
    """Oracle: overlap_measure of the two models' intervals on each subset
    alone, 0 where a fit fails or an interval has zero width."""
    nus = subset_oracle(ds, plan, lambda sub: overlap_measure(
        *(confidence_interval(fit_ols(sub, model), coef, level) for model in models)))
    return [0.0 if nu is None else nu for nu in nus]


def _dataset():
    ds = synth_dataset(203, seed=21)  # 203 rows: not divisible by M
    cols = dict(ds.columns)
    cols["z"] = cols["x1"] + 0.5 * cols["y"] + np.random.default_rng(3).normal(size=203)
    return Dataset(cols)


MODELS = [
    "y ~ x1 + log(x2) + sq(x1) + x1:x3",
    "y ~ x2 + sq(x2) + x1:x3 + log(x1):x2",
]


@pytest.mark.parametrize("formula", MODELS)
@pytest.mark.parametrize("M", [2, 7, 10])
def test_indicator_count_equals_per_subset_fit_ols(formula, M):
    ds = _dataset()
    plan = make_partition(ds.n_rows, M, seed=M)
    model = parse_formula(formula)
    coef = model.term_names[1]
    region = build_fixed_region(0.0, math.inf)
    ind = compute_indicator_count(ds, model, coef, region, plan)
    expected = np.array([fit.coef(coef) for fit in _subset_fits(ds, model, plan)])
    assert np.array_equal(ind.estimates, expected)
    assert ind.W.tolist() == (expected >= 0).astype(int).tolist()


@pytest.mark.parametrize("M", [2, 7, 10])
def test_average_overlap_equals_per_subset_fit_ols(M):
    ds = _dataset()
    plan = make_partition(ds.n_rows, M, seed=100 + M)
    # the two models have different responses
    m0 = parse_formula("y ~ x1 + log(x2) + x1:x3")
    m1 = parse_formula("z ~ x1 + sq(x2)")
    res = average_overlap(ds, m0, m1, "x1", plan, level=0.9)
    expected = _expected_intervals(ds, (m0, m1), "x1", plan, level=0.9)
    assert None not in expected
    _assert_overlaps_close(res, expected)


def test_plan_for_other_rows_is_refused():
    ds = _dataset()
    plan = make_partition(ds.n_rows - 1, 5, seed=1)
    model = parse_formula("y ~ x1 + x2")
    with pytest.raises(ConfigError, match="plan covers"):
        compute_indicator_count(ds, model, "x1", build_fixed_region(0.0, 1.0), plan)
    with pytest.raises(ConfigError, match="plan covers"):
        average_overlap(ds, model, model, "x1", plan)


def test_design_is_built_before_any_fit():
    # subset 0 is singular, and a row of subset 1 breaks log's domain: the
    # design is built on all rows first, with NaN where log's domain fails,
    # so that row fails only its own subset's fit of the model that logs z,
    # and both subsets are imputed
    plan = make_partition(12, 2, seed=1)
    x = np.arange(12.0)
    x[plan.assignment == 0] = 5.0
    z = np.ones(12)
    z[np.flatnonzero(plan.assignment == 1)[0]] = -1.0
    ds = Dataset({"x": x, "z": z, "y": np.arange(12.0)})
    model = parse_formula("y ~ x + log(z)")
    ind = compute_indicator_count(ds, model, "x", build_fixed_region(0.0, 1.0), plan)
    assert subset_oracle(ds, plan, lambda sub: fit_ols(sub, model)) == [None, None]
    assert ind.W.tolist() == [0, 0] and np.all(np.isnan(ind.estimates))
    res = average_overlap(ds, parse_formula("y ~ x"), model, "x", plan)
    assert res.nus.tolist() == [0.0, 0.0]
    assert np.isfinite(res.lower[0, 1]) and np.isnan(res.lower[1, 1])


def test_nonfinite_cell_fails_every_later_column_of_its_subset():
    # test_design_is_built_before_any_fit's data with the model order
    # swapped: log(z) now precedes y in the shared design, so subset 1's
    # R_U is not finite from that column on, and y ~ x, which does not use
    # log(z), is flagged singular there too.  nu_l is 0 either way.
    plan = make_partition(12, 2, seed=1)
    x = np.arange(12.0)
    x[plan.assignment == 0] = 5.0
    z = np.ones(12)
    z[np.flatnonzero(plan.assignment == 1)[0]] = -1.0
    ds = Dataset({"x": x, "z": z, "y": np.arange(12.0)})
    models = [parse_formula("y ~ x + log(z)"), parse_formula("y ~ x")]
    assert [fit.singular.tolist() for fit, _ in fit_subsets(ds, models, plan)] == [
        [True, True], [True, True]]
    alone, _ = fit_subsets(ds, models[1:], plan)[0]
    assert alone.singular.tolist() == [True, False]
    res = average_overlap(ds, *models, "x", plan)
    assert res.nus.tolist() == [0.0, 0.0]
    assert np.isnan(res.lower[:, 1]).all()


# ------------------------------------------------- fit_subsets' contract

@pytest.mark.parametrize("formula", MODELS)
@pytest.mark.parametrize("M", [2, 7, 10])
def test_fit_subsets_row_l_is_the_fit_of_subset_l(formula, M):
    ds = _dataset()
    plan = make_partition(ds.n_rows, M, seed=M)
    model = parse_formula(formula)
    fit, names = fit_subsets(ds, [model], plan)[0]
    Xy, expected_names = design_with_response(ds, model)
    assert names == expected_names
    k = len(names)
    assert fit.coefficients.shape == fit.stderrs.shape == (M, k)
    for l in range(M):
        rows = np.flatnonzero(plan.assignment == l)
        alone = fit_stack(Xy[rows][None])
        assert np.array_equal(fit.coefficients[l], alone.coefficients[0])
        assert np.array_equal(fit.stderrs[l], alone.stderrs[0])
        assert fit.sigma2_hat[l] == alone.sigma2_hat[0]
        assert fit.residual_df[l] == len(rows) - k
        assert not fit.singular[l]


@pytest.mark.parametrize("specs", [
    [(MODELS[0], True), (MODELS[1], True)],
    [("y ~ x1 + log(x2) + x1:x3", True), ("z ~ x1 + sq(x2)", True)],
    [("y ~ x1 + z", True), ("z ~ x1 + y", False)],  # each response a term of the other
    [("y ~ x1 + x2", False), ("y ~ x2 + x1", True), ("y ~ x1 + x2", True)],
])
def test_one_design_for_several_models_fits_each_as_alone(specs):
    ds = _dataset()
    plan = make_partition(ds.n_rows, 7, seed=3)
    models = [parse_formula(formula, intercept=intercept) for formula, intercept in specs]
    for model, (fit, names) in zip(models, fit_subsets(ds, models, plan)):
        alone, alone_names = fit_subsets(ds, [model], plan)[0]
        assert names == alone_names
        _assert_fits_close(fit, alone, _design_stacks(ds, model, plan))


def test_fit_subsets_marks_short_subsets_singular():
    # 203 rows in 10 subsets: three of 21 rows, then seven of 20; the model
    # has 20 coefficients, so only the smaller subsets lack a residual df
    rng = np.random.default_rng(9)
    ds = Dataset({f"c{i}": rng.normal(size=203) for i in range(20)})
    model = parse_formula("c19 ~ " + " + ".join(f"c{i}" for i in range(19)))
    plan = make_partition(ds.n_rows, 10, seed=4)
    fit, _ = fit_subsets(ds, [model], plan)[0]
    assert fit.singular.tolist() == [False] * 3 + [True] * 7
    assert fit.residual_df.tolist() == [1] * 3 + [0] * 7
    assert np.all(np.isnan(fit.coefficients[3:])) and np.all(np.isnan(fit.stderrs[3:]))
    assert np.all(np.isfinite(fit.coefficients[:3]))
    for l in range(3, 10):
        assert subset_failure(fit, l) == "need at least 21 rows to fit 20 coefficients, have 20"
    # the short subsets are imputed: W_l = 0 and a NaN estimate
    ind = compute_indicator_count(ds, model, "c0", build_fixed_region(0.0, 1.0), plan)
    expected = _expected_estimates(ds, model, "c0", plan)
    assert np.array_equal(ind.estimates, expected, equal_nan=True)
    assert np.isnan(expected).tolist() == fit.singular.tolist()
    assert ind.W.tolist() == ((expected >= 0) & (expected <= 1)).astype(int).tolist()


def test_subset_failure_words_a_rank_deficient_subset():
    plan = make_partition(40, 4, seed=2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=40)
    x[plan.assignment == 2] = 1.5  # collinear with the intercept on subset 2
    fit, _ = fit_subsets(Dataset({"x": x, "y": rng.normal(size=40)}),
                         [parse_formula("y ~ x")], plan)[0]
    assert fit.singular.tolist() == [False, False, True, False]
    assert subset_failure(fit, 2) == RANK_DEFICIENT


# ------------------------------------------------ the per-block pivoted fit

def _pivoted_fit(X, y):
    """Reference: one block fitted alone by pivoted QR, the rank rule on its
    diagonal.  Returns None for a refused block, else (beta, stderrs)."""
    n, k = X.shape
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.min() <= RANK_TOL * diag.max():
        return None
    beta = np.empty(k)
    beta[piv] = scipy.linalg.solve_triangular(R, Q.T @ y)
    residuals = y - X @ beta
    r_inv = scipy.linalg.solve_triangular(R, np.eye(k))
    diag_xtx_inv = np.empty(k)
    diag_xtx_inv[piv] = np.sum(r_inv * r_inv, axis=1)
    return beta, np.sqrt(residuals @ residuals / (n - k) * diag_xtx_inv)


def _assert_matches_pivoted_fits(Xy, plan):
    for stack in split(plan, Xy):
        fit = fit_stack(stack)
        for b, block in enumerate(stack):
            ref = _pivoted_fit(block[:, :-1], block[:, -1])
            assert fit.singular[b] == (ref is None)
            if ref is not None:
                np.testing.assert_allclose(fit.coefficients[b], ref[0], rtol=1e-10, atol=0)
                np.testing.assert_allclose(fit.stderrs[b], ref[1], rtol=1e-10, atol=0)


@pytest.mark.parametrize("formula", MODELS + ["z ~ x1 + sq(x2)"])
@pytest.mark.parametrize("M", [2, 7, 10])
def test_stack_fits_match_pivoted_fits(formula, M):
    ds = _dataset()
    model = parse_formula(formula)
    Xy, _ = design_with_response(ds, model)
    _assert_matches_pivoted_fits(Xy, make_partition(ds.n_rows, M, seed=M))


@pytest.fixture(scope="module")
def paper_scale():
    return synth_dataset(160_000, seed=5)


@pytest.mark.parametrize("formula", ["y ~ x1 + x2 + x3",
                                     "y ~ x1 + sq(x2) + x1:x3 + log(x1)"])
@pytest.mark.parametrize("M", [25, 1000, 5000])
def test_stack_fits_match_pivoted_fits_at_paper_scale(paper_scale, formula, M):
    model = parse_formula(formula)
    Xy, _ = design_with_response(paper_scale, model)
    _assert_matches_pivoted_fits(Xy, make_partition(paper_scale.n_rows, M, seed=M + 3))


def test_rank_decisions_match_pivoted_rule_across_conditioning():
    # blocks of 3-row binary designs, many of them singular, and blocks whose
    # third column leans on the first by 10^-e, e from 0 to 16
    rng = np.random.default_rng(8)
    binary = np.concatenate([np.ones((400, 3, 1)),
                             rng.integers(0, 2, (400, 3, 2)).astype(float)], axis=2)
    binary = np.concatenate([binary, rng.normal(size=(400, 1, 3))], axis=1)
    x = rng.normal(size=(65, 30, 2))
    lean = 10.0 ** -np.linspace(0, 16, 65)[:, None, None]
    ladder = np.concatenate([x, x[:, :, :1] + lean * rng.normal(size=(65, 30, 1))], axis=2)
    for X in (binary, ladder):
        y = rng.normal(size=X.shape[:2])
        fit = fit_stack(np.concatenate([X, y[..., None]], axis=2))
        expected = [_pivoted_fit(X[b], y[b]) is None for b in range(len(X))]
        assert fit.singular.tolist() == expected
        assert 0 < sum(expected) < len(X)


# ----------------------------------------- the fit core against its reference

def _conditioning_stacks():
    """The binary and ladder stacks of
    test_rank_decisions_match_pivoted_rule_across_conditioning, each with
    its response appended, drawn in the same order from the same seed."""
    rng = np.random.default_rng(8)
    binary = np.concatenate([np.ones((400, 3, 1)),
                             rng.integers(0, 2, (400, 3, 2)).astype(float)], axis=2)
    binary = np.concatenate([binary, rng.normal(size=(400, 1, 3))], axis=1)
    x = rng.normal(size=(65, 30, 2))
    lean = 10.0 ** -np.linspace(0, 16, 65)[:, None, None]
    ladder = np.concatenate([x, x[:, :, :1] + lean * rng.normal(size=(65, 30, 1))], axis=2)
    return [np.concatenate([X, rng.normal(size=X.shape[:2])[..., None]], axis=2)
            for X in (binary, ladder)]


def _assert_fits_close(fit, ref, designs, other_qr=False):
    """fit against ref, two fits of the same blocks whose designs X are the
    stacks ``designs``, in block order: the same rank decisions and residual
    df, and the same numbers to the _rtol of each fitted block's condition
    number kappa.  Where 10 kappa eps exceeds 1e-10, the residual pass and
    r_{k+1,k+1} are both only that accurate (against a 60-digit
    evaluation), so they differ by up to ~2e-8 at kappa = 7e8.

    With ``other_qr`` the two fits come from different QRs of each block,
    and least squares' own sensitivity adds 10 eps kappa^2 tan(theta)
    ||beta|| to each coefficient's tolerance, tan(theta) = ||r|| / ||X beta||
    (Golub & Van Loan, Matrix Computations, Thm 5.3.1), which only an
    ill-conditioned block makes large."""
    assert np.array_equal(fit.singular, ref.singular)
    assert np.array_equal(fit.residual_df, ref.residual_df)
    ok = ~fit.singular
    kappa, fitted_norm, first = [], [], 0
    for X in designs:
        rows = slice(first, first + len(X))
        first += len(X)
        X = X[ok[rows]]
        kappa.append(np.linalg.cond(X))
        beta = ref.coefficients[rows][ok[rows]]
        fitted_norm.append(np.linalg.norm(np.einsum("bnk,bk->bn", X, beta), axis=1))
    kappa = np.concatenate(kappa)
    rtol = _rtol(kappa)
    for name in ("coefficients", "stderrs", "sigma2_hat"):
        got, want = getattr(fit, name)[ok], getattr(ref, name)[ok]
        tol = rtol.reshape(-1, *[1] * (want.ndim - 1)) * np.abs(want)
        if other_qr and name == "coefficients":
            tan = np.sqrt(ref.sigma2_hat[ok] * ref.residual_df[ok]) / np.concatenate(fitted_norm)
            tol += (10 * np.finfo(float).eps * kappa ** 2 * tan
                    * np.linalg.norm(want, axis=1))[:, None]
        assert np.all(np.abs(got - want) <= tol), name


def _assert_matches_reference(stack):
    """The fit core against the LU reference on the same stack."""
    _assert_fits_close(fit_stack(stack), reference_fit_stack(stack), [stack[..., :-1]])


@pytest.mark.parametrize("formula", MODELS + ["z ~ x1 + sq(x2)"])
@pytest.mark.parametrize("M", [2, 7, 10])
def test_fit_core_matches_lu_reference(formula, M):
    ds = _dataset()
    Xy, _ = design_with_response(ds, parse_formula(formula))
    for stack in split(make_partition(ds.n_rows, M, seed=M), Xy):
        _assert_matches_reference(stack)


@pytest.mark.parametrize("M", [25, 1000, 5000])
def test_fit_core_matches_lu_reference_at_paper_scale(paper_scale, M):
    model = parse_formula("y ~ x1 + sq(x2) + x1:x3 + log(x1)")
    Xy, _ = design_with_response(paper_scale, model)
    for stack in split(make_partition(paper_scale.n_rows, M, seed=M + 3), Xy):
        _assert_matches_reference(stack)


@pytest.mark.parametrize("M", [25, 5000])
def test_fit_subsets_in_chunks_equals_whole_stack_fits(paper_scale, M):
    # fit_subsets hands fit_stack a few blocks at a time; the fits are the
    # ones of the whole stacks, bit for bit
    model = parse_formula("y ~ x1 + sq(x2) + x1:x3 + log(x1)")
    plan = make_partition(paper_scale.n_rows, M, seed=M)
    fit, _ = fit_subsets(paper_scale, [model], plan)[0]
    assert paper_scale.n_rows > linmod.FIT_CHUNK_ROWS  # more than one chunk
    Xy, _ = design_with_response(paper_scale, model)
    whole = [fit_stack(stack) for stack in split(plan, Xy)]
    for name in ("coefficients", "stderrs", "sigma2_hat", "singular"):
        assert np.array_equal(getattr(fit, name),
                              np.concatenate([getattr(w, name) for w in whole]))


def test_fit_core_matches_lu_reference_across_conditioning():
    for stack in _conditioning_stacks():
        _assert_matches_reference(stack)


# ------------------------------------- one QR per subset, shared by the models

def _design_stacks(ds, model, plan):
    """The model's own design X on each subset, as split stacks it."""
    Xy, _, _ = shared_design(ds, [model])
    return [stack[..., :-1] for stack in split(plan, Xy)]


def _assert_matches_reference_fits(ds, models, plan, other_qr=False):
    """fit_subsets against reference_fit_subsets, model by model, by the
    rule of _assert_fits_close; returns both."""
    fits, refs = fit_subsets(ds, models, plan), reference_fit_subsets(ds, models, plan)
    for model, (fit, names), (ref, ref_names) in zip(models, fits, refs):
        assert names == ref_names
        _assert_fits_close(fit, ref, _design_stacks(ds, model, plan), other_qr)
    return fits, refs


@pytest.fixture(scope="module")
def paper_scale_z(paper_scale):
    cols = dict(paper_scale.columns)
    cols["z"] = (cols["x1"] + 0.5 * cols["y"]
                 + np.random.default_rng(3).normal(size=paper_scale.n_rows))
    return Dataset(cols)


@pytest.mark.parametrize("formulas", [
    ("y ~ x1 + x2 + x3", "y ~ x1 + x2"),  # the am-subsets pair
    ("y ~ x1 + log(x2) + x1:x3", "z ~ x1 + sq(x2)"),
])
@pytest.mark.parametrize("M", [25, 1000, 5000])
def test_shared_qr_fits_match_reference_at_paper_scale(paper_scale_z, formulas, M):
    models = [parse_formula(formula) for formula in formulas]
    plan = make_partition(paper_scale_z.n_rows, M, seed=M + 1)
    fits, refs = _assert_matches_reference_fits(paper_scale_z, models, plan)
    if formulas[0] == "y ~ x1 + x2 + x3":
        # model0 is the whole shared design in order: fitted from R_U itself
        for name in ("coefficients", "stderrs", "sigma2_hat"):
            assert np.array_equal(getattr(fits[0][0], name), getattr(refs[0][0], name))


def _blocks_dataset(stack, names):
    """A Dataset of the columns ``names`` and a plan whose subset l is
    stack[l], rows in order."""
    B, n = stack.shape[:2]
    plan = make_partition(B * n, B, seed=0)
    rows = np.empty((B * n, stack.shape[2]))
    rows[plan.blocks] = stack
    return Dataset(dict(zip(names, rows.T))), plan


def test_shared_qr_rank_decisions_match_reference_across_conditioning():
    # a partner model listed first puts the model's columns out of order in
    # the shared design, so its fit comes from the QR of its columns of R_U;
    # the binary blocks have 4 rows for 5 shared columns, so R_U is padded
    binary, ladder = _conditioning_stacks()
    w = np.random.default_rng(11)
    cases = [(binary, ["one", "a", "b", "y"], "y ~ a + b", True),
             (ladder, ["a", "b", "c", "y"], "y ~ a + b + c", False)]
    for stack, names, formula, intercept in cases:
        ds, plan = _blocks_dataset(stack, names)
        ds = Dataset(dict(ds.columns, w=w.normal(size=ds.n_rows)))
        model = parse_formula(formula, intercept=intercept)
        partner = parse_formula(f"w ~ {names[-2]}", intercept=intercept)
        # other_qr: at kappa = 2.5e8 a ladder coefficient differs by 2.4e-6
        # relative, 4.2 times 10 kappa eps
        fits, _ = _assert_matches_reference_fits(ds, [partner, model], plan, other_qr=True)
        assert 0 < fits[1][0].singular.sum() < plan.M


# --------------------------------------- the chunks, on one thread per core

def _chunk_dataset():
    """1015 rows: a plan of 35 subsets gives blocks of 29 rows, a width no
    model's QR of R_U columns has."""
    ds = synth_dataset(1015, seed=22)
    cols = dict(ds.columns)
    cols["z"] = cols["x1"] + 0.5 * cols["y"] + np.random.default_rng(4).normal(size=1015)
    return Dataset(cols)


def _record_chunk_qrs(monkeypatch, width):
    """Patch np.linalg.qr to record, per call on a stack of ``width``-row
    blocks (a chunk of blocks), the stack and the thread it ran on."""
    qr, calls = np.linalg.qr, []

    def recorded(a, mode="reduced"):
        if a.shape[1] == width:
            calls.append((a.copy(), threading.get_ident()))  # list.append is atomic
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    return calls


@pytest.mark.parametrize("n_models", [1, 2, 3])
def test_each_chunk_of_blocks_is_factored_once(monkeypatch, n_models):
    ds = _chunk_dataset()
    plan = make_partition(ds.n_rows, 35, seed=3)  # 35 subsets of 29 rows
    models = [parse_formula(formula) for formula in MODELS + ["z ~ x1 + sq(x2)"]][:n_models]
    design, _, _ = shared_design(ds, models)
    expected = sorted(block.tobytes() for block in design[plan.blocks])
    # the whole stack on this thread; chunks of three blocks (87 rows) on
    # this thread, or on a pool of three threads
    for chunk_rows, cores in [(1015, 3), (4 * 87, 1), (4 * 87, 3)]:
        monkeypatch.setattr(linmod, "FIT_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(linmod, "_available_cores", lambda: cores)
        calls = _record_chunk_qrs(monkeypatch, 29)
        fit_subsets(ds, models, plan)
        # the calls come from the pool threads in any order: every block
        # is one chunk's exactly once, whatever the order of the chunks
        assert sorted(b.tobytes() for chunk, _ in calls for b in chunk) == expected
        sizes = sorted(len(chunk) for chunk, _ in calls)
        threads = {thread for _, thread in calls}
        if chunk_rows >= plan.M * 29:
            assert sizes == [35] and threads == {threading.get_ident()}
        else:
            assert sizes == [2] + [3] * 11
            assert (threads == {threading.get_ident()}) == (cores == 1)
        monkeypatch.undo()


def _assert_fits_identical(fits, others):
    for (fit, names), (other, other_names) in zip(fits, others, strict=True):
        assert names == other_names
        for name in ("coefficients", "stderrs", "residual_df", "sigma2_hat", "singular"):
            assert np.array_equal(getattr(fit, name), getattr(other, name), equal_nan=True)


def _fits_on(monkeypatch, cores, ds, models, plan):
    monkeypatch.setattr(linmod, "_available_cores", lambda: cores)
    return fit_subsets(ds, models, plan)


@pytest.mark.parametrize("M", [1000, 5000])
def test_fits_are_bit_identical_on_one_thread_and_on_every_core(monkeypatch, paper_scale_z, M):
    # at least two workers, so the pool runs even where one core is allowed
    models = [parse_formula("y ~ x1 + x2 + x3"), parse_formula("z ~ x1 + sq(x2)")]
    plan = make_partition(paper_scale_z.n_rows, M, seed=M + 2)
    assert plan.M * plan.blocks.shape[1] > linmod.FIT_CHUNK_ROWS  # the pool's path
    one = _fits_on(monkeypatch, 1, paper_scale_z, models, plan)
    every = _fits_on(monkeypatch, max(2, linmod._available_cores()), paper_scale_z, models, plan)
    _assert_fits_identical(one, every)


def test_fits_are_bit_identical_in_any_chunking_at_small_scale(monkeypatch):
    ds = _chunk_dataset()
    plan = make_partition(ds.n_rows, 35, seed=4)
    models = [parse_formula(formula) for formula in MODELS + ["z ~ x1 + sq(x2)"]]
    whole = fit_subsets(ds, models, plan)  # one chunk on this thread
    for chunk_rows in (4, 4 * 58, 1014):  # chunks of 1, 2 and 8 blocks
        monkeypatch.setattr(linmod, "FIT_CHUNK_ROWS", chunk_rows)
        for cores in (1, 2, 3):
            _assert_fits_identical(whole, _fits_on(monkeypatch, cores, ds, models, plan))


def test_more_threads_than_cores_and_a_short_switch_interval_change_no_fit(monkeypatch):
    # the pool threads share the gather buffers and R_U: a buffer handed to
    # two chunks at once, or a lost write, would change a block's fit
    ds = _chunk_dataset()
    plan = make_partition(ds.n_rows, 35, seed=5)
    models = [parse_formula(formula) for formula in MODELS + ["z ~ x1 + sq(x2)"]]
    whole = fit_subsets(ds, models, plan)
    monkeypatch.setattr(linmod, "FIT_CHUNK_ROWS", 4 * 29)  # 35 chunks of one block
    workers = 2 * linmod._available_cores() + 5
    monkeypatch.setattr(linmod, "_available_cores", lambda: workers)
    runs = []

    def run():
        for _ in range(20):
            runs.append(fit_subsets(ds, models, plan))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and len(runs) == 20
    for fits in runs:
        _assert_fits_identical(whole, fits)


@pytest.mark.parametrize("fails", [lambda call: call == 5, lambda call: True],
                         ids=["one-chunk", "every-chunk"])
def test_an_exception_in_a_chunk_propagates_from_the_pool(monkeypatch, fails):
    ds = _chunk_dataset()
    plan = make_partition(ds.n_rows, 35, seed=3)
    monkeypatch.setattr(linmod, "FIT_CHUNK_ROWS", 4 * 29)  # 35 chunks of one block
    monkeypatch.setattr(linmod, "_available_cores", lambda: 3)
    qr, calls = np.linalg.qr, itertools.count()

    def failing(a, mode="reduced"):
        if a.shape[1] == 29 and fails(next(calls)):  # next() is atomic
            raise RuntimeError("a chunk failed")
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", failing)
    before, raised = threading.active_count(), []

    def run():
        try:
            fit_subsets(ds, [parse_formula("y ~ x1 + x2")], plan)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()  # no hang
    assert [str(exc) for exc in raised] == ["a chunk failed"]
    assert threading.active_count() == before  # the pool is shut down


def test_a_cell_outside_a_transform_warns_on_no_pool_thread(monkeypatch):
    # each chunk writes its design on a pool thread, which does not see the
    # caller's np.errstate: a log of a value <= 0 in subset 3 and a square
    # past the float range in subset 60, each in its own chunk of 23
    # blocks, raise no warning there and make only those subsets singular
    ds = synth_dataset(70_003, seed=8)  # 3 subsets of 701 rows, the rest padded
    plan = make_partition(ds.n_rows, 100, seed=9)
    assert plan.M * plan.blocks.shape[1] > linmod.FIT_CHUNK_ROWS  # the pool's path
    ds = replace_row(ds, int(plan.blocks[3, 0]), {"x2": -1.0})
    ds = replace_row(ds, int(plan.blocks[60, 5]), {"x3": 1e200})
    models = [parse_formula("y ~ x1 + log(x2) + sq(x3)")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning on any thread is raised
        pool = _fits_on(monkeypatch, max(2, linmod._available_cores()), ds, models, plan)
        one = _fits_on(monkeypatch, 1, ds, models, plan)
    assert np.flatnonzero(pool[0][0].singular).tolist() == [3, 60]
    _assert_fits_identical(one, pool)


def test_the_fit_stage_peak_allocation_is_flat_in_n(monkeypatch):
    # each chunk writes its own design, so nothing of the N rows is built:
    # the peak is the chunks' buffers, R_U and the fits, whatever N is
    monkeypatch.setattr(linmod, "_available_cores", lambda: 2)
    models = [parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + sq(x2)")]
    peaks = []
    for N in (250_000, 1_000_000):
        ds, plan = synth_dataset(N, seed=6), make_partition(N, 1000, seed=7)
        tracemalloc.start()
        try:
            fit_subsets(ds, models, plan)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.25 * min(peaks) and max(peaks) < 8 * 2**20, peaks


def test_a_stack_of_at_most_fit_chunk_rows_starts_no_thread(monkeypatch):
    ds = _chunk_dataset()
    plan = make_partition(ds.n_rows, 35, seed=3)  # 1015 rows
    pools = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(linmod, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(linmod, "_available_cores", lambda: 4)
    models = [parse_formula("y ~ x1 + x2")]
    calls = _record_chunk_qrs(monkeypatch, 29)
    for chunk_rows in (10**6, 1015):
        monkeypatch.setattr(linmod, "FIT_CHUNK_ROWS", chunk_rows)
        fit_subsets(ds, models, plan)
    assert pools == []
    assert [(len(chunk), thread) for chunk, thread in calls] == [(35, threading.get_ident())] * 2
    monkeypatch.setattr(linmod, "FIT_CHUNK_ROWS", 1014)  # one row more: chunks of 8 blocks
    fit_subsets(ds, models, plan)
    assert pools == [4]


# ------------------------------------------- the certificate and its limits

def _block(rho, rng, n=40):
    """A 3-column block whose pivoted QR has diagonal ratio about rho: its
    third column is the first plus rho times a direction orthogonal to both."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, 3)))
    return Q @ np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, rho]])


def _pivoted_ratio(X):
    R, _ = scipy.linalg.qr(X, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    return diag.min() / diag.max()


def test_ill_conditioned_full_rank_block_goes_to_the_pivoted_rule(monkeypatch):
    rng = np.random.default_rng(4)
    X = np.stack([_block(1.0, rng), _block(1e-8, rng)])
    assert 1e-9 < _pivoted_ratio(X[1]) < 1e-7
    calls = []
    rule = linmod._pivoted_rank_deficient

    def counted(block):
        calls.append(block)
        return rule(block)

    monkeypatch.setattr(linmod, "_pivoted_rank_deficient", counted)
    Xy = np.concatenate([X, rng.normal(size=(2, 40, 1))], axis=2)
    fit = fit_stack(Xy)
    assert fit.singular.tolist() == [False, False]
    # the rule sees block 1's R, and decides it as it decides the block
    assert len(calls) == 1 and np.array_equal(calls[0], np.linalg.qr(Xy, mode="r")[1, :3, :3])
    assert rule(calls[0]) == rule(X[1])


def test_rank_deficient_blocks_refused_without_linalg_error():
    rng = np.random.default_rng(6)
    under = _block(0.9 * RANK_TOL, rng)
    assert 0.5 * RANK_TOL < _pivoted_ratio(under) < RANK_TOL
    constant = np.column_stack([np.ones(40), rng.normal(size=40), np.full(40, 2.0)])
    zero = np.column_stack([np.ones(40), rng.normal(size=40), np.zeros(40)])
    X = np.stack([_block(1.0, rng), under, constant, zero])
    fit = fit_stack(np.concatenate([X, rng.normal(size=(4, 40, 1))], axis=2))  # no LinAlgError
    assert fit.singular.tolist() == [False, True, True, True]
    assert np.all(np.isfinite(fit.coefficients[0]))


# ------------------------------------------ failed subsets are imputed

def _fits_succeed(ds, models, plan):
    """Oracle: per subset, whether fit_ols fits every model on its rows
    alone (a failure is a SingularFitError, InsufficientDataError included)."""
    return [fits is not None for fits in
            subset_oracle(ds, plan, lambda sub: [fit_ols(sub, m) for m in models])]


_FAILING_SUBSET_CASES = [
    ({"u": [2, 3], "v": [1, 3]}, "y ~ x + v"),  # both stacks, both models
    ({"u": [2, 3], "v": [3]}, "y ~ x + v"),     # subset 2, model0
    ({"u": [3], "v": [3]}, "y ~ x + v"),        # only in the smaller stack
    ({"u": [], "v": [0, 2]}, "y ~ x + v"),      # subset 0, model1
    # model1 needs 6 rows and the smaller stack's subsets have 5
    ({"u": [3], "v": []}, "y ~ x + v + w + z"),
    ({"u": [], "v": []}, "y ~ x + v + w + z"),
]


@pytest.mark.parametrize("constant, formula1", _FAILING_SUBSET_CASES)
def test_first_failing_subset_is_named_in_subset_then_model_order(constant, formula1):
    plan = make_partition(23, 4, seed=7)  # subsets of 6, 6, 6 and 5 rows
    rng = np.random.default_rng(2)
    cols = {name: rng.normal(size=23) for name in ("x", "u", "v", "w", "z", "y")}
    for name, subsets in constant.items():
        cols[name][np.isin(plan.assignment, subsets)] = 1.5
    ds = Dataset(cols)
    models = (parse_formula("y ~ x + u"), parse_formula(formula1))
    assert not all(_fits_succeed(ds, models, plan))
    # every subset where either fit fails gets nu = 0, and NaN bounds for
    # the model that failed; the others are the overlaps of their own fits
    res = average_overlap(ds, *models, "x", plan)
    if (constant, formula1) in _FAILING_SUBSET_CASES[3:]:
        # model1 skips u, so its fit is the QR of its columns of the shared
        # R_U (see fit_subsets); here that moves a nu_l in its last bits
        _assert_overlaps_close(res, _expected_intervals(ds, models, "x", plan))
    else:
        assert res.nus.tolist() == _expected_overlaps(ds, models, "x", plan)
    region = build_fixed_region(0.0, 1.0)
    for m, model in enumerate(models):
        ok = _fits_succeed(ds, (model,), plan)
        assert np.isnan(res.lower[m]).tolist() == [not fine for fine in ok]
        ind = compute_indicator_count(ds, model, "x", region, plan)
        expected = _expected_estimates(ds, model, "x", plan)
        assert np.array_equal(ind.estimates, expected, equal_nan=True)
        assert ind.W.tolist() == (region.contains(expected) & ok).astype(int).tolist()


@pytest.mark.parametrize("zero_y, constant_u, error", [
    (1, 2, DegenerateIntervalError),  # the zero-width interval comes first
    (2, 1, SingularFitError),
])
def test_zero_width_interval_and_singular_fit_in_subset_order(zero_y, constant_u, error):
    # a zero-width interval and a singular fit are both imputed as nu = 0,
    # in either subset order; ``error`` is what the per-subset oracle meets
    # on the first of the two subsets
    plan = make_partition(23, 4, seed=7)
    rng = np.random.default_rng(5)
    cols = {name: rng.normal(size=23) for name in ("x", "u", "y")}
    cols["y"][plan.assignment == zero_y] = 0.0  # fitted exactly: zero stderr
    cols["u"][plan.assignment == constant_u] = 1.5
    ds = Dataset(cols)
    models = (parse_formula("y ~ x"), parse_formula("y ~ x + u"))
    res = average_overlap(ds, *models, "x", plan)
    # neither model is fitted from its own QR (see fit_subsets): to rounding
    _assert_overlaps_close(res, _expected_intervals(ds, models, "x", plan))
    assert res.nus[zero_y] == res.nus[constant_u] == 0.0
    assert np.count_nonzero(res.nus) == 2
    first = min(zero_y, constant_u)
    sub = Dataset({k: v[plan.assignment == first] for k, v in cols.items()})
    with pytest.raises(error):
        [confidence_interval(fit_ols(sub, model), "x", 0.95) for model in models]
