from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc

from dprep import (
    ConfigError,
    Dataset,
    DegenerateIntervalError,
    InsufficientDataError,
    ModelSpec,
    SingularFitError,
    Term,
    TransformDomainError,
    confidence_interval,
    fit_ols,
    parse_formula,
    t_quantile,
)
from dprep.linmod import design_columns


# ---------------------------------------------------------------- formulas

def test_parse_formula_terms_and_names():
    m = parse_formula("y ~ x1 + log(x2) + x1:x3 + sq(x2)")
    assert m.response == "y"
    assert m.term_names == ("x1", "log(x2)", "x1:x3", "sq(x2)")
    assert m.intercept
    assert m.terms[2].factors == (("x1", "identity"), ("x3", "identity"))


def test_parse_formula_intercept_only():
    m = parse_formula("y ~ 1")
    assert m.terms == ()
    assert m.intercept


@pytest.mark.parametrize(
    "bad",
    ["y ~ x ~ z", " ~ x", "y ~ ", "y ~ x + ", "y ~ lg(x)", "y ~ 1 + x", "y ~ x + x"],
)
def test_parse_formula_rejects(bad):
    with pytest.raises(ConfigError):
        parse_formula(bad)


def test_model_spec_invariants():
    with pytest.raises(ConfigError, match="response"):
        ModelSpec(response="y", terms=(Term.plain("y"),))
    with pytest.raises(ConfigError, match="duplicate"):
        ModelSpec(response="y", terms=(Term.plain("x"), Term.plain("x")))
    with pytest.raises(ConfigError):
        ModelSpec(response="y", terms=(), intercept=False)


# ---------------------------------------------------------- design matrix

def test_design_matrix_layout():
    ds = Dataset({"x": np.array([1.0, 2.0, 3.0]), "y": np.zeros(3)})
    m = parse_formula("y ~ x + sq(x)")
    X, names = design_columns(ds, m)
    assert names == ["intercept", "x", "sq(x)"]
    assert np.array_equal(X[:, 0], np.ones(3))
    assert np.array_equal(X[:, 1], [1, 2, 3])
    assert np.array_equal(X[:, 2], [1, 4, 9])
    X2, names2 = design_columns(ds, ModelSpec("y", (Term.plain("x"),), intercept=False))
    assert X2.shape == (3, 1)
    assert names2 == ["x"]


def test_log_transform_domain():
    ds = Dataset({"x": np.array([1.0, 0.0, 3.0]), "y": np.zeros(3)})
    with pytest.raises(TransformDomainError, match="log"):
        design_columns(ds, parse_formula("y ~ log(x)"))


# -------------------------------------------------------------------- OLS

def test_exact_linear_data():
    x = np.arange(10.0)
    ds = Dataset({"x": x, "y": 3.0 + 2.0 * x})
    fit = fit_ols(ds, parse_formula("y ~ x"))
    assert abs(fit.coef("intercept") - 3.0) < 1e-8
    assert abs(fit.coef("x") - 2.0) < 1e-8
    assert fit.sigma2_hat <= 1e-16


def test_intercept_only_mean_and_variance():
    ds = Dataset({"y": np.array([1.0, 2.0, 3.0])})
    fit = fit_ols(ds, parse_formula("y ~ 1"))
    assert fit.coef("intercept") == pytest.approx(2.0)
    assert fit.sigma2_hat == pytest.approx(1.0)
    assert fit.residual_df == 2


def _solve_normal_equations_exact(x1, x2, y):
    """Independent oracle: solve (X'X) b = X'y by Gaussian elimination over
    exact rationals."""
    X = [[Fraction(1), Fraction(a), Fraction(b)] for a, b in zip(x1, x2)]
    yv = [Fraction(v) for v in y]
    k = 3
    XtX = [[sum(r[i] * r[j] for r in X) for j in range(k)] for i in range(k)]
    Xty = [sum(X[r][i] * yv[r] for r in range(len(X))) for i in range(k)]
    A = [XtX[i][:] + [Xty[i]] for i in range(k)]
    for c in range(k):
        for r in range(c + 1, k):
            f = A[r][c] / A[c][c]
            A[r] = [A[r][j] - f * A[c][j] for j in range(k + 1)]
    out = [Fraction(0)] * k
    for r in reversed(range(k)):
        s = A[r][k] - sum(A[r][j] * out[j] for j in range(r + 1, k))
        out[r] = s / A[r][r]
    return out


def test_five_row_fixture_matches_hand_solved_normal_equations():
    x1 = [1, 2, 3, 4, 5]
    x2 = [2, 1, 4, 3, 5]
    y = [3, 5, 9, 8, 13]
    oracle = _solve_normal_equations_exact(x1, x2, y)
    # frozen from the exact elimination: b = (1/10, 3/2, 1)
    assert [float(v) for v in oracle] == pytest.approx([0.1, 1.5, 1.0], abs=0)

    ds = Dataset({"x1": np.array(x1, float), "x2": np.array(x2, float),
                  "y": np.array(y, float)})
    fit = fit_ols(ds, parse_formula("y ~ x1 + x2"))
    assert fit.coefficients == pytest.approx([0.1, 1.5, 1.0], abs=1e-10)
    assert fit.sigma2_hat == pytest.approx(1.35, abs=1e-10)  # RSS 27/10, df 2
    assert fit.residual_df == 2
    # exact (X'X)^-1 diagonal: (6/5, 5/18, 5/18)
    expected_se = np.sqrt(1.35 * np.array([6 / 5, 5 / 18, 5 / 18]))
    assert fit.stderrs == pytest.approx(expected_se, abs=1e-10)


def test_residual_orthogonality_and_permutation_invariance():
    rng = np.random.default_rng(11)
    for trial in range(5):
        n = 60
        ds = Dataset({
            "a": rng.normal(size=n),
            "b": rng.uniform(1, 2, size=n),
            "y": rng.normal(size=n),
        })
        m = parse_formula("y ~ a + b + a:b")
        fit = fit_ols(ds, m)
        X, _ = design_columns(ds, m)
        y = ds.column("y")
        resid = y - X @ fit.coefficients
        assert np.linalg.norm(X.T @ resid) <= 1e-8 * np.linalg.norm(X.T @ y)

        perm = rng.permutation(n)
        fit_p = fit_ols(ds.subset(perm), m)
        assert fit_p.coefficients == pytest.approx(fit.coefficients, rel=1e-12)


def test_singular_and_insufficient_fits():
    x = np.arange(6.0)
    ds = Dataset({"x": x, "x2": 2.0 * x, "y": x + 1.0})
    with pytest.raises(SingularFitError):
        fit_ols(ds, parse_formula("y ~ x + x2"))
    tiny = Dataset({"x": np.array([1.0, 2.0]), "y": np.array([0.0, 1.0])})
    with pytest.raises(InsufficientDataError):
        fit_ols(tiny, parse_formula("y ~ x"))


# ---------------------------------------------------- confidence intervals

def _t_cdf_via_incomplete_beta(x, df):
    if x == 0:
        return 0.5
    tail = 0.5 * betainc(df / 2.0, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0 else tail


def _t_quantile_bisect(p, df):
    lo, hi = -1e3, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_cdf_via_incomplete_beta(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exact_fit(n=20, se_target=1.0):
    rng = np.random.default_rng(5)
    x = rng.normal(size=n)
    ds = Dataset({"x": x, "y": 1.0 + x + rng.normal(size=n)})
    return fit_ols(ds, parse_formula("y ~ x"))


def test_half_width_normal_limit():
    # large df: half-width per unit stderr approaches the normal quantile
    q = t_quantile(10**6, 0.975)
    assert q == pytest.approx(1.959964, abs=1e-4)


def test_half_width_df10_matches_bisection_oracle():
    oracle = _t_quantile_bisect(0.975, 10)
    assert oracle == pytest.approx(2.2281, abs=1e-3)  # frozen: 2.228139
    assert t_quantile(10, 0.975) == pytest.approx(oracle, abs=1e-9)


def test_interval_centering_and_degenerate():
    fit = _exact_fit()
    ci = confidence_interval(fit, "x", 0.95)
    assert ci.lower <= fit.coef("x") <= ci.upper
    assert ci.lower + ci.upper == pytest.approx(2 * fit.coef("x"), rel=1e-12)

    from dprep import FitResult

    exact = FitResult(coefficients=np.array([2.0]), stderrs=np.array([0.0]),
                      residual_df=3, sigma2_hat=0.0, coef_index={"x": 0})
    with pytest.raises(DegenerateIntervalError):
        confidence_interval(exact, "x", 0.95)
    point = confidence_interval(exact, "x", 0.95, degenerate="point")
    assert point.lower == point.upper == pytest.approx(2.0)


def test_t_quantile_contract():
    assert t_quantile(7, 0.5) == 0.0
    ps = np.linspace(0.01, 0.99, 25)
    qs = [t_quantile(7, p) for p in ps]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigError):
            t_quantile(7, bad)
    with pytest.raises(ConfigError):
        t_quantile(0, 0.5)
    with pytest.raises(ConfigError):
        confidence_interval(_exact_fit(), "x", 1.5)


def test_unknown_coefficient_name():
    with pytest.raises(ConfigError, match="no coefficient"):
        _exact_fit().coef("zzz")
