"""The subset fits of AD and AM equal whole-model fits on each subset's rows."""

import math

import numpy as np
import pytest

from helpers import synth_dataset

from dprep import (
    ConfigError,
    Dataset,
    TransformDomainError,
    average_overlap,
    build_fixed_region,
    compute_indicator_count,
    confidence_interval,
    fit_ols,
    make_partition,
    parse_formula,
)


def _subset_fits(ds, model, plan):
    """Oracle: fit_ols on a fresh Dataset of each subset's rows."""
    fits = []
    for l in range(plan.M):
        rows = np.flatnonzero(plan.assignment == l)
        fits.append(fit_ols(Dataset({k: v[rows] for k, v in ds.columns.items()}),
                            model))
    return fits


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
    for l, (f0, f1) in enumerate(zip(_subset_fits(ds, m0, plan),
                                     _subset_fits(ds, m1, plan))):
        ci0 = confidence_interval(f0, "x1", 0.9)
        ci1 = confidence_interval(f1, "x1", 0.9)
        assert res.ci_pairs[l] == (ci0, ci1)
        c = max(0.0, min(ci0.upper, ci1.upper) - max(ci0.lower, ci1.lower))
        assert res.nus[l] == 0.5 * (c / ci0.length + c / ci1.length)


def test_plan_for_other_rows_is_refused():
    ds = _dataset()
    plan = make_partition(ds.n_rows - 1, 5, seed=1)
    model = parse_formula("y ~ x1 + x2")
    with pytest.raises(ConfigError, match="plan covers"):
        compute_indicator_count(ds, model, "x1", build_fixed_region(0.0, 1.0), plan)
    with pytest.raises(ConfigError, match="plan covers"):
        average_overlap(ds, model, model, "x1", plan)


def test_design_is_built_before_any_fit():
    # subset 0 is singular, and a later subset breaks log's domain: the
    # design is built on all rows first, so the domain error is the one raised
    plan = make_partition(12, 2, seed=1)
    x = np.arange(12.0)
    x[plan.assignment == 0] = 5.0
    z = np.ones(12)
    z[np.flatnonzero(plan.assignment == 1)[0]] = -1.0
    ds = Dataset({"x": x, "z": z, "y": np.arange(12.0)})
    model = parse_formula("y ~ x + log(z)")
    with pytest.raises(TransformDomainError):
        compute_indicator_count(ds, model, "x", build_fixed_region(0.0, 1.0), plan)
    with pytest.raises(TransformDomainError):
        average_overlap(ds, parse_formula("y ~ x"), model, "x", plan)
