"""Every published number a function or type takes goes through one of the
checked conversions of ``dprep.privacy``: ``fraction`` (0 < x < 1),
``positive`` (0 < x < inf), ``count`` (an int >= 1 within the doubles),
``integer`` or ``real``; a pair setting goes through ``pair`` and a
planning grid through ``grid``, then each of its values through one of
them.  A bad value is a ConfigError before any work; a NumPy scalar is
accepted and stored as a Python number."""

import dataclasses
import math
import sys
from operator import attrgetter

import numpy as np
import pytest

from helpers import synth_dataset

import dprep.ad
import dprep.am
import dprep.linmod
import dprep.planning
import dprep.verify
from dprep import (
    ADConfig,
    AMConfig,
    AMPosterior,
    BudgetLedger,
    ConfidenceInterval,
    ConfigError,
    FitResult,
    InversionAssumption,
    Laplace,
    NoisyRelease,
    PartitionPlan,
    PrivacyParams,
    RngStream,
    ToleranceRegion,
    am_verify,
    average_overlap,
    build_fixed_region,
    build_inflated_region,
    confidence_interval,
    credible_interval,
    delta_star,
    error_bound,
    invert_overlap,
    make_partition,
    null_assumption_lengths,
    parse_formula,
    reference_contour,
    release_scalar,
    robustness_contour,
    t_quantile,
    theta_hat,
)
from dprep.planning import InflationProvenance
from dprep.privacy import RngStream, RunConfig, count, fraction, positive, seed

DATA = synth_dataset(120, seed=3)
MODEL0, MODEL1 = parse_formula("y ~ x1 + x2"), parse_formula("y ~ x1")
SIGN = build_fixed_region(0.0, math.inf)
FIT = FitResult(np.array([1.0]), np.array([0.5]), 10, 1.0, {"x": 0})
POSTERIOR = AMPosterior(grid=np.linspace(0, 1, 101), density=np.ones(101),
                        cdf=np.linspace(0, 1, 101))

# site -> (rule, call(value), the stored value of the result, or None)
SITES = {
    "ADConfig.delta": ("fraction", lambda v: ADConfig(M=10, epsilon=1.0, delta=v),
                       attrgetter("delta")),
    "theta_hat.delta": ("fraction", lambda v: theta_hat(np.array([0.2, 0.8]), v), None),
    "AMConfig.level": ("fraction", lambda v: AMConfig(M=10, epsilon=1.0, level=v),
                       attrgetter("level")),
    "average_overlap.level": (
        "fraction", lambda v: average_overlap(DATA, MODEL0, MODEL1, "x1",
                                              make_partition(120, 4, 0), v), None),
    "credible_interval.mass": ("fraction", lambda v: credible_interval(POSTERIOR, v),
                               attrgetter("level")),
    "null_assumption_lengths.level": (
        "fraction", lambda v: null_assumption_lengths(1.0, 100, 10, v), None),
    "am_verify.invert_mass": (
        "fraction", lambda v: am_verify(DATA, MODEL0, MODEL1, "x1", AMConfig(M=4, epsilon=1.0),
                                        BudgetLedger(cap=1.0), InversionAssumption(2.0, 1.0),
                                        invert_mass=v)[0]["inversion"]["mass"], lambda r: r),
    "ConfidenceInterval.level": ("fraction", lambda v: ConfidenceInterval(0.0, 1.0, v),
                                 attrgetter("level")),
    "confidence_interval.level": ("fraction", lambda v: confidence_interval(FIT, "x", v),
                                  attrgetter("level")),
    "t_quantile.p": ("fraction", lambda v: t_quantile(7, v), None),
    "PrivacyParams.epsilon": ("positive", PrivacyParams, attrgetter("epsilon")),
    "RunConfig.prior[0]": ("positive", lambda v: RunConfig(M=10, epsilon=1.0, prior=(v, 1.0)),
                           lambda c: c.prior[0]),
    "RunConfig.prior[1]": ("positive", lambda v: RunConfig(M=10, epsilon=1.0, prior=(1.0, v)),
                           lambda c: c.prior[1]),
    "BudgetLedger.cap": ("positive", lambda v: BudgetLedger(cap=v), attrgetter("cap")),
    "Laplace.epsilon": ("positive", lambda v: Laplace(v, 1.0), attrgetter("epsilon")),
    "Laplace.sensitivity": ("positive", lambda v: Laplace(1.0, v), attrgetter("sensitivity")),
    "release_scalar.sensitivity": (
        "positive", lambda v: release_scalar(0.0, v, PrivacyParams(1.0), BudgetLedger(cap=1.0),
                                             RngStream(0)), attrgetter("sensitivity")),
    "InflationProvenance.sigma_hat_o": (
        "positive", lambda v: InflationProvenance(0.0, v, 2.0, 100, 10),
        attrgetter("sigma_hat_o")),
    "InflationProvenance.alpha": ("positive", lambda v: InflationProvenance(0.0, 1.0, v, 100, 10),
                                  attrgetter("alpha")),
    "robustness_contour.sigma_hat_o": (
        "positive", lambda v: robustness_contour([0.0], [5], v, 100, 100, 1.0, SIGN), None),
    "reference_contour.sigma_gamma": (
        "positive", lambda v: reference_contour(1.0, v, 0.5, [0.0], [1.0]), None),
    "null_assumption_lengths.sigma_hat_o": (
        "positive", lambda v: null_assumption_lengths(v, 100, 10), None),
    "error_bound.omega": ("positive", lambda v: error_bound(25, 1.0, v), None),
    "InflationProvenance.n0": ("count", lambda v: InflationProvenance(0.0, 1.0, 2.0, v, 1),
                               attrgetter("n0")),
    "InflationProvenance.n": ("count", lambda v: InflationProvenance(0.0, 1.0, 2.0, 100, v),
                              attrgetter("n")),
    "delta_star.n0": ("count", lambda v: delta_star(0.0, 1.0, 2.0, v, 1), None),
    "robustness_contour.n0": (
        "count", lambda v: robustness_contour([0.0], [1], 1.0, v, 100, 1.0, SIGN), None),
    "robustness_contour.N": (
        "count", lambda v: robustness_contour([0.0], [1], 1.0, 100, v, 1.0, SIGN), None),
    "null_assumption_lengths.n0": ("count", lambda v: null_assumption_lengths(1.0, v, 1), None),
    "null_assumption_lengths.n": ("count", lambda v: null_assumption_lengths(1.0, 100, v), None),
    "error_bound.M": ("count", lambda v: error_bound(v, 1.0, 0.2), None),
    "t_quantile.df": ("count", lambda v: t_quantile(v, 0.975), None),
    "PartitionPlan.M": ("count", lambda v: PartitionPlan(10, v, 0), attrgetter("M")),
    "build_fixed_region.lower": ("real", lambda v: build_fixed_region(v, 2.0),
                                 attrgetter("lower")),
    "build_fixed_region.upper": ("real", lambda v: build_fixed_region(-1.0, v),
                                 attrgetter("upper")),
    "ConfidenceInterval.lower": ("real", lambda v: ConfidenceInterval(v, 2.0, 0.9),
                                 attrgetter("lower")),
    "ConfidenceInterval.upper": ("real", lambda v: ConfidenceInterval(-1.0, v, 0.9),
                                 attrgetter("upper")),
    "NoisyRelease.value": ("finite", lambda v: NoisyRelease(v, 1.0, 1.0), attrgetter("value")),
    "NoisyRelease.epsilon_spent": ("positive", lambda v: NoisyRelease(0.0, v, 1.0),
                                   attrgetter("epsilon_spent")),
    "NoisyRelease.sensitivity": ("positive", lambda v: NoisyRelease(0.0, 1.0, v),
                                 attrgetter("sensitivity")),
    # each grid value is checked, not only the first, and a scalar is a grid
    "robustness_contour.gamma_grid": (
        "finite", lambda v: robustness_contour([0.0, v], [5], 1.0, 100, 100, 1.0, SIGN), None),
    "robustness_contour.gamma_grid-scalar": (
        "finite", lambda v: robustness_contour(v, [5], 1.0, 100, 100, 1.0, SIGN), None),
    "robustness_contour.M_grid": (
        "count", lambda v: robustness_contour([0.0], [5, v], 1.0, 100, 100, 1.0, SIGN), None),
    "robustness_contour.M_grid-array": (
        "count", lambda v: robustness_contour([0.0], np.array([5, v], dtype=object), 1.0, 100,
                                              100, 1.0, SIGN), None),
    "reference_contour.gamma": ("finite", lambda v: reference_contour(v, 1.0, 0.5, [0.0], [1.0]),
                                None),
    "reference_contour.corr": ("finite", lambda v: reference_contour(1.0, 1.0, v, [0.0], [1.0]),
                               attrgetter("corr")),
    "reference_contour.diff_grid": (
        "finite", lambda v: reference_contour(1.0, 1.0, 0.5, [0.0, v], [1.0]), None),
    "reference_contour.ratio_grid": (
        "positive", lambda v: reference_contour(1.0, 1.0, 0.5, [0.0], [1.0, v]), None),
    "error_bound.variance_cap": ("positive", lambda v: error_bound(25, 1.0, 0.2, v), None),
    "invert_overlap.nu": ("finite", lambda v: invert_overlap(v, InversionAssumption(2.0, 1.0)),
                          None),
    "RunConfig.prior": ("pair", lambda v: RunConfig(M=10, epsilon=1.0, prior=v),
                        attrgetter("prior")),
    "ADConfig.mcmc": ("pair", lambda v: ADConfig(M=10, epsilon=1.0, mcmc=v), attrgetter("mcmc")),
    "ADConfig.mcmc[0]": ("integer", lambda v: ADConfig(M=10, epsilon=1.0, mcmc=(v, 10)),
                         lambda c: c.mcmc[0]),
    "ADConfig.mcmc[1]": ("count", lambda v: ADConfig(M=10, epsilon=1.0, mcmc=(0, v)),
                         lambda c: c.mcmc[1]),
}

BAD = {
    "fraction": [math.nan, math.inf, -math.inf, True, "0.5", 0.0, 1.0],
    "positive": [math.nan, math.inf, -math.inf, True, "1", 0.0, -1.0],
    "count": [math.nan, math.inf, -math.inf, True, "3", 2.5, 0, np.float64(3.0)],
    "real": [math.nan, True, "1"],
    "finite": [math.nan, math.inf, -math.inf, True, "0.5"],
    "integer": [math.nan, math.inf, -math.inf, True, "3", 2.5, np.float64(3.0)],
    "pair": [math.nan, math.inf, -math.inf, True, "12", 5, (1, 2, 3), (1,)],
}
# a NumPy scalar each rule accepts, and the Python type it is stored as
GOOD = {"fraction": (np.float32(0.25), float), "positive": (np.float32(2.0), float),
        "count": (np.int64(3), int), "real": (np.float32(0.5), float),
        "finite": (np.float32(0.5), float), "integer": (np.int64(3), int),
        "pair": ((np.int64(3), np.int64(4)), tuple)}


@pytest.fixture()
def no_work(monkeypatch):
    """Make every step past the checks fail the test: a subset fit, a
    partition, a draw, a ledger append and the contours' special functions."""
    def work(*args, **kwargs):
        raise AssertionError("work started before the settings were checked")
    for module, name in ((dprep.ad, "fit_subsets"), (dprep.am, "fit_subsets"),
                         (dprep.verify, "make_partition"), (dprep.planning, "ndtr"),
                         (dprep.planning, "ndtri"), (dprep.am, "stdtrit"),
                         (dprep.linmod, "stdtrit"), (RngStream, "uniform_open"),
                         (BudgetLedger, "append"), (AMPosterior, "quantile")):
        monkeypatch.setattr(module, name, work)


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{value!r}")
    for site, (rule, _, _) in SITES.items() for value in BAD[rule]])
def test_bad_value_is_refused_before_any_work(no_work, site, value):
    _, call, _ = SITES[site]
    with pytest.raises(ConfigError):
        call(value)


@pytest.mark.parametrize("site", sorted(SITES))
def test_numpy_scalar_is_accepted_as_a_python_number(site):
    rule, call, stored = SITES[site]
    value, kind = GOOD[rule]
    result = call(value)
    if stored is not None:
        assert type(stored(result)) is kind and stored(result) == value


INVERSION = InversionAssumption(2.0, 1.0)
LET_THROUGH = {
    "contour-n0-nan": lambda: robustness_contour([0.0], [5], 1.0, math.nan, 100, 1.0, SIGN),
    "delta_star-n0-100.5": lambda: delta_star(0.0, 1.0, 2.0, 100.5, 10),
    "error_bound-M-2.5": lambda: error_bound(2.5, 1.0, 0.2),
    "region-strings": lambda: build_fixed_region("1", "2"),
    "region-bool": lambda: build_fixed_region(True, 2),
    "cap-bool": lambda: BudgetLedger(cap=True),
    # these ran as M = 2 and M = 1, or raised OverflowError or TypeError
    "contour-M-2.5": lambda: robustness_contour([0.0], [2.5], 1.0, 100, 100, 1.0, SIGN),
    "contour-M-bool": lambda: robustness_contour([0.0], [True], 1.0, 100, 100, 1.0, SIGN),
    "contour-M-1e20": lambda: robustness_contour([0.0], [1e20], 1.0, 100, 100, 1.0, SIGN),
    "contour-gamma-string": lambda: robustness_contour(["1"], [5], 1.0, 100, 100, 1.0, SIGN),
    "contour-gamma-bool": lambda: robustness_contour([True], [5], 1.0, 100, 100, 1.0, SIGN),
    "reference-gamma-string": lambda: reference_contour("1", 1.0, 0.5, [0.0], [1.0]),
    "reference-corr-string": lambda: reference_contour(1.0, 1.0, "0.5", [0.0], [1.0]),
    "reference-gamma-bool": lambda: reference_contour(True, 1.0, 0.5, [0.0], [1.0]),
    "reference-corr-bool": lambda: reference_contour(1.0, 1.0, True, [0.0], [1.0]),
    "reference-diff-bool": lambda: reference_contour(1.0, 1.0, 0.5, [True], [1.0]),
    "reference-diff-string": lambda: reference_contour(1.0, 1.0, 0.5, ["0.1"], [1.0]),
    "error_bound-variance_cap-negative": lambda: error_bound(10, 1.0, 0.1, variance_cap=-1.0),
    "error_bound-variance_cap-nan": lambda: error_bound(10, 1.0, 0.1, variance_cap=math.nan),
    "invert-nu-bool": lambda: invert_overlap(True, INVERSION),
    "invert-nu-string": lambda: invert_overlap("0.5", INVERSION),
    "prior-triple": lambda: RunConfig(M=10, epsilon=1.0, prior=(1, 2, 3)),
    "prior-scalar": lambda: RunConfig(M=10, epsilon=1.0, prior=1.0),
    "mcmc-triple": lambda: ADConfig(M=10, epsilon=1.0, mcmc=(1, 2, 3)),
    "mcmc-scalar": lambda: ADConfig(M=10, epsilon=1.0, mcmc=5),
}


@pytest.mark.parametrize("case", LET_THROUGH)
def test_inputs_a_hand_written_copy_let_through_are_refused(case):
    # each of these used to return a number or an object (an all-zero T,
    # 0.905, 42.0, a region, a cap of True, a contour, -8.0, 0.5) or to
    # raise something other than a ConfigError
    with pytest.raises(ConfigError):
        LET_THROUGH[case]()


PAST_THE_DOUBLES = 10**400 - 1  # 400 nines: n0 / n raised OverflowError
N0_SITES = {
    "build_inflated_region": lambda n0: build_inflated_region(0.0, 1.0, 1.96, n0, 10),
    "delta_star": lambda n0: delta_star(0.0, 1.0, 1.96, n0, 10),
    "robustness_contour": lambda n0: robustness_contour([0.0], [5], 1.0, n0, 100, 1.0, SIGN),
    "null_assumption_lengths": lambda n0: null_assumption_lengths(1.0, n0, 10),
}


@pytest.mark.parametrize("site", N0_SITES)
def test_an_n0_past_the_doubles_is_refused_and_the_largest_double_is_not(site):
    with pytest.raises(ConfigError, match="^n0 must be at most the largest double, "
                                          "got an integer of 1329 bits$"):
        N0_SITES[site](PAST_THE_DOUBLES)
    N0_SITES[site](int(sys.float_info.max))


HUGE = 10**5000  # past the 4,300 digits an int may print with
HUGE_INTS = {
    "count": lambda ledger: count(-HUGE, "M"),
    "RunConfig.M": lambda ledger: RunConfig(M=-HUGE, epsilon=1.0),
    "AMConfig.grid_points": lambda ledger: AMConfig(M=4, epsilon=1.0, grid_points=HUGE),
    "ADConfig.mcmc[1]": lambda ledger: ADConfig(M=4, epsilon=1.0, mcmc=(0, HUGE)),
    "ADConfig.mcmc[0]": lambda ledger: ADConfig(M=4, epsilon=1.0, mcmc=(-HUGE, 5)),
    "t_quantile.df": lambda ledger: t_quantile(-HUGE, 0.9),
    "ad_verify.seed": lambda ledger: dprep.verify.ad_verify(
        DATA, MODEL0, "x1", SIGN, ADConfig(M=4, epsilon=1.0, seed=HUGE), ledger),
}


@pytest.mark.parametrize("site", HUGE_INTS)
def test_an_int_too_long_to_print_is_a_config_error_before_any_release(site):
    # each raised ValueError (int-to-str's digit limit) from its own message;
    # ad_verify spent epsilon = 1 first, then raised writing the report
    ledger = BudgetLedger(cap=1.0)
    with pytest.raises(ConfigError, match=" must be at (most|least minus) the largest double, "
                                          "got an integer of 16610 bits$"):
        HUGE_INTS[site](ledger)
    assert (len(ledger), ledger.spent) == (0, 0.0)


def test_a_numpy_float_release_value_is_a_release():
    # the value used to be refused while epsilon_spent took the same number
    assert NoisyRelease(np.float32(1.0), 1.0, 1.0) == NoisyRelease(1.0, np.float32(1.0), 1.0)


def test_helpers_keep_their_messages_and_types():
    assert type(fraction(np.float16(0.5), "x")) is float
    assert type(positive(np.int8(3), "x")) is float
    assert type(count(np.uint16(3), "x")) is int
    with pytest.raises(ConfigError, match=r"^level must be in \(0, 1\), got 1.5$"):
        fraction(1.5, "level")
    with pytest.raises(ConfigError, match="^epsilon must be positive and finite, got inf$"):
        positive(10**400, "epsilon")
    with pytest.raises(ConfigError, match="^M must be at least 1, got 0$"):
        count(0, "M")
    for helper in (fraction, positive, count):
        with pytest.raises(ConfigError, match="^x must be "):
            helper(False, "x")


# each was once reduced to its low 64 bits: 5 and 5 + 2**64 drew one
# partition and one noise, and so did -1 and 2**64 - 1
SEED_SITES = {
    "seed": lambda value: seed(value, "seed"),
    "RunConfig.seed": lambda value: RunConfig(M=4, epsilon=1.0, seed=value),
    "PartitionPlan.seed": lambda value: make_partition(10, 2, value),
    "RngStream.root_seed": lambda value: RngStream(value),
}


@pytest.mark.parametrize("site", SEED_SITES)
def test_a_seed_outside_64_bits_is_a_config_error(site):
    for value in (-1, 2**64, 5 + 2**64):
        with pytest.raises(ConfigError, match=rf"seed must be in \[0, 2\*\*64\), got {value}$"):
            SEED_SITES[site](value)
    for value in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        SEED_SITES[site](value)
    assert type(seed(np.uint64(7), "seed")) is int
    with pytest.raises(ConfigError, match="seed must be an integer, got 5.0$"):
        SEED_SITES[site](5.0)


def test_region_kind_follows_its_provenance():
    fixed = build_fixed_region(0.0, 1.0)
    inflated = build_inflated_region(0.0, 1.0, 2.0, 100, 10)
    assert (fixed.kind, inflated.kind) == ("fixed", "inflated")
    assert ToleranceRegion(-1.0, 1.0, provenance=inflated.provenance).kind == "inflated"
    with pytest.raises(TypeError):
        ToleranceRegion(0.0, 1.0, kind="inflated")
    with pytest.raises(TypeError):  # the provenance is keyword-only
        ToleranceRegion(0.0, 1.0, inflated.provenance)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fixed.kind = "inflated"
    with pytest.raises(ConfigError, match="finite"):
        ToleranceRegion(-math.inf, 1.0, provenance=inflated.provenance)


def test_interval_bounds_must_be_ordered():
    assert ConfidenceInterval(1.0, 1.0, 0.9).length == 0.0
    assert ConfidenceInterval(-math.inf, math.inf, 0.9).length == math.inf
    for lower, upper in ((2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ConfigError):
            ConfidenceInterval(lower, upper, 0.9)


@pytest.mark.parametrize("grids, refused", [
    (dict(diff_grid=[0.0, 1.0, 2.0], ratio_grid=[1.0, 2.0, 3.0, 4.0]), False),
    (dict(diff_grid=[0.0, 1.0, 2.0, 3.0], ratio_grid=[1.0, 2.0, 3.0, 4.0]), True),
])
def test_reference_contour_cells_are_bounded(monkeypatch, grids, refused):
    monkeypatch.setattr(dprep.planning, "MAX_GRID_POINTS", 12)
    if refused:
        with pytest.raises(ConfigError, match="16 cells, over 12"):
            reference_contour(1.0, 1.0, 0.5, **grids)
    else:
        assert reference_contour(1.0, 1.0, 0.5, **grids).values.shape == (3, 4)


@pytest.mark.parametrize("M_grid, refused", [([3, 5], False), ([3, 6], True)])
def test_robustness_contour_cells_are_bounded(monkeypatch, M_grid, refused):
    # gamma x (largest M + 1): 2 x 6 = 12 cells at the bound, 2 x 7 = 14 past it
    monkeypatch.setattr(dprep.planning, "MAX_GRID_POINTS", 12)
    if refused:
        with pytest.raises(ConfigError, match="14 cells, over 12"):
            robustness_contour([0.0, 1.0], M_grid, 1.0, 100, 100, 1.0, SIGN)
    else:
        assert robustness_contour([0.0, 1.0], M_grid, 1.0, 100, 100, 1.0, SIGN).T.shape == (2, 2)
