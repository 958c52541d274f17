import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (BAD_LEDGER_RECORDS, LEDGER_RECORD, TORN_NON_UTF8, load_json, replace_row,
                     synth_dataset)

from dprep import (
    ADConfig,
    AMConfig,
    BudgetLedger,
    ConfigError,
    InversionAssumption,
    NoisyRelease,
    Released,
    ToleranceRegion,
    ad_verify,
    am_verify,
    build_fixed_region,
    credible_interval,
    make_partition,
    parse_formula,
    posterior_nu,
)
from dprep.cli import main
from dprep.tabular import read_table
from dprep.verify import (
    audit_release_report,
    recompute_posterior_summary,
    resolve_delta,
    write_json,
)
from dprep.planning import build_inflated_region, delta_star

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def table(tmp_path):
    """Synthetic table + schema on disk, 120 rows."""
    ds = synth_dataset(120, seed=42)
    cols = ["x1", "x2", "x3", "y"]
    lines = [",".join(cols)]
    for i in range(ds.n_rows):
        lines.append(",".join(f"{ds.column(c)[i]:.10g}" for c in cols))
    table_path = tmp_path / "data.csv"
    table_path.write_text("\n".join(lines) + "\n")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({c: "numeric" for c in cols}))
    return table_path, schema_path


def _ad_args(table, tmp_path, out="release.json", ledger="ledger.ndjson", **extra):
    tbl, schema = table
    args = [
        "ad-verify",
        "--input", str(tbl),
        "--schema", str(schema),
        "--model", "y ~ x1 + x2 + x3",
        "--coef", "x2",
        "--region", "0:inf",
        "--epsilon", "1.0",
        "--M", "4",
        "--seed", "7",
        "--ledger", str(tmp_path / ledger),
        "--out", str(tmp_path / out),
    ]
    for flag, value in extra.items():
        args.extend([f"--{flag}", str(value)])
    return args


# ------------------------------------------------------------- library runs

def test_ad_report_is_boundary_clean():
    ds = synth_dataset(120, seed=1)
    report, debug = ad_verify(
        ds, parse_formula("y ~ x1 + x2 + x3"), "x2",
        build_fixed_region(0.0, math.inf),
        ADConfig(M=4, epsilon=1.0, seed=3), BudgetLedger(cap=1.0),
    )
    text = json.dumps(report)
    assert audit_release_report(text) == []
    for needle in ('"coefficients"', '"W"', '"nus"', '"estimates"', '"true_count"',
                   '"indicators"', '"nu_per_subset"'):
        assert needle not in text
    # the custodian-only payload is where those live
    assert 0 <= debug["true_count"] <= 4
    assert len(debug["indicators"]) == 4
    assert len(debug["subset_estimates"]) == 4


def test_am_report_is_boundary_clean_and_inverts():
    ds = synth_dataset(120, seed=2)
    report, debug = am_verify(
        ds, parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + x3"), "x1",
        AMConfig(M=4, epsilon=1.0, seed=5), BudgetLedger(cap=1.0),
        inversion=InversionAssumption(3.0, 2.0),
    )
    text = json.dumps(report)
    assert audit_release_report(text) == []
    assert '"nu_bar"' not in text and '"nu_per_subset"' not in text
    assert report["inversion"]["l1"] == 3.0
    lo, hi = report["inversion"]["difference_interval"]
    assert 0.5 <= lo <= hi <= 2.5  # within [(l1-l2)/2, (l1+l2)/2]
    assert 0.0 <= debug["nu_bar"] <= 1.0
    assert len(debug["nu_per_subset"]) == 4


def _am_report(ds, config):
    return am_verify(ds, parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + x3"),
                     "x1", config, BudgetLedger(cap=1.0))


def _posterior_of(report, config):
    released = report["released"]
    return posterior_nu(Released(config, NoisyRelease(
        released["nu_bar_noisy"], released["epsilon"], released["sensitivity"])))


def test_report_round_trip_reproduces_summaries():
    ds = synth_dataset(120, seed=3)
    report, _ = ad_verify(
        ds, parse_formula("y ~ x1 + x2 + x3"), "x2",
        build_fixed_region(0.0, math.inf),
        ADConfig(M=4, epsilon=1.0, seed=11), BudgetLedger(cap=1.0),
    )
    clone = json.loads(json.dumps(report))
    recomputed = recompute_posterior_summary(clone)
    assert recomputed["theta_hat"] == report["posterior"]["theta_hat"]
    assert recomputed["r_quantiles"] == report["posterior"]["r_quantiles"]

    # the whole AM posterior section, credible intervals included, is rebuilt
    # from the report's own released and config sections; at M = 9, eps = 0.1
    # the rate eps / (1/M) the release records is not M * eps in the last bit
    assert 0.1 / (1 / 9) != 9 * 0.1
    for M, eps in ((4, 1.0), (9, 0.1)):
        for seed, level in enumerate((0.9, 0.95, 0.99), start=11):
            for prior in ((1.0, 1.0), (0.5, 0.5), (2.0, 3.0)):
                config = AMConfig(M=M, epsilon=eps, seed=seed, level=level, prior=prior)
                am_report, _ = _am_report(ds, config)
                back = recompute_posterior_summary(json.loads(json.dumps(am_report)))
                assert back == am_report["posterior"]
                assert set(back) == {"mean", "quantiles", "credible_intervals"}


def test_am_report_reads_every_number_off_one_cdf():
    config = AMConfig(M=4, epsilon=1.0, seed=7)
    report, _ = _am_report(synth_dataset(120, seed=3), config)
    summary = report["posterior"]
    lo, hi = summary["credible_intervals"]["0.9"]
    # not bit-identical: (1 - 0.9) / 2 is 0.04999999999999999
    assert summary["quantiles"]["0.05"] == pytest.approx(lo, abs=1e-12, rel=0)
    assert summary["quantiles"]["0.95"] == pytest.approx(hi, abs=1e-12, rel=0)
    assert summary["mean"] == _posterior_of(report, config).mean


@pytest.mark.parametrize("level, key", [
    (0.9000001, "0.9000001"), (0.95000001, "0.95000001"), (0.9999999, "0.9999999"),
])
def test_credible_interval_keys_never_collide(level, key):
    # a level that "%g" rounds to 0.9 or to 1 gets its own key and its own interval
    config = AMConfig(M=4, epsilon=1.0, seed=5, level=level)
    report, _ = _am_report(synth_dataset(120, seed=3), config)
    intervals = report["posterior"]["credible_intervals"]
    assert set(intervals) == {"0.9", key}
    posterior = _posterior_of(report, config)
    for mass, name in ((0.9, "0.9"), (level, key)):
        ci = credible_interval(posterior, mass)
        assert intervals[name] == [ci.lower, ci.upper]
    assert intervals["0.9"] != intervals[key]


def test_an_edited_credible_interval_bound_fails_its_recheck():
    report, _ = _am_report(synth_dataset(120, seed=3), AMConfig(M=4, epsilon=1.0, seed=7))
    edited = json.loads(json.dumps(report))
    edited["posterior"]["credible_intervals"]["0.95"][1] -= 1e-6
    back = recompute_posterior_summary(edited)
    assert back == report["posterior"]
    assert back["credible_intervals"] != edited["posterior"]["credible_intervals"]


def test_a_report_with_an_unknown_mechanism_fails_its_recheck():
    # the posterior models the law the record names: a report that names
    # another mechanism is refused, not re-checked under Laplace
    report, _ = _am_report(synth_dataset(120, seed=3), AMConfig(M=4, epsilon=1.0, seed=7))
    edited = json.loads(json.dumps(report))
    edited["released"]["mechanism"] = "gaussian"
    with pytest.raises(ConfigError, match="unknown release mechanism 'gaussian'"):
        recompute_posterior_summary(edited)


def test_a_report_that_holds_draws_still_rechecks():
    # an am-verify --invert report written when the AM summary came from
    # 1,000 stored draws of nu_bar: its mean and quantiles re-check from them
    report = load_json(DATA / "am_report_with_samples.json")
    assert len(report["posterior"]["samples"]) == 1000 and "inversion" in report
    back = recompute_posterior_summary(report)
    assert set(back) == {"mean", "quantiles"}
    for key, value in back.items():
        assert report["posterior"][key] == value
    report["posterior"]["quantiles"]["0.5"] += 1e-9
    assert recompute_posterior_summary(report)["quantiles"] != report["posterior"]["quantiles"]


def test_delta_resolution_rules():
    fixed = build_fixed_region(0.0, math.inf)
    inflated = build_inflated_region(0.9, 0.1, alpha=2.0, n0=1000, n=100)
    assert resolve_delta(ADConfig(M=4, epsilon=1.0), fixed) == 0.5
    expected = 0.9 * delta_star(0.9, 0.1, 2.0, 1000, 100)
    assert resolve_delta(ADConfig(M=4, epsilon=1.0), inflated) == \
           pytest.approx(expected)
    assert resolve_delta(ADConfig(M=4, epsilon=1.0, delta=0.37), inflated) == 0.37


@pytest.mark.parametrize("framework", ["ad", "am"])
def test_pre_release_failure_spends_no_epsilon(tmp_path, framework):
    # log of a zero cell is not a failure of the run: the subset holding
    # that row is imputed, epsilon is spent and a report is written, as for
    # any other data (a failure that does not depend on the data spends
    # nothing: test_bad_invert_mass_spends_no_epsilon)
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text(LEDGER_RECORD + "\n")
    ds = replace_row(synth_dataset(120, seed=4), 7, {"x1": 0.0})
    budget = BudgetLedger(cap=2.0, path=ledger)
    if framework == "ad":
        config = ADConfig(M=4, epsilon=1.0, seed=3)
        report, debug = ad_verify(ds, parse_formula("y ~ log(x1) + x2"), "x2",
                                  build_fixed_region(0.0, math.inf), config, budget)
        failed = np.isnan(debug["subset_estimates"])
        assert debug["indicators"][failed].tolist() == [0]
    else:
        config = AMConfig(M=4, epsilon=1.0, seed=5)
        report, debug = am_verify(ds, parse_formula("y ~ x2 + x3"),
                                  parse_formula("y ~ log(x1) + x2"), "x2", config, budget)
        failed = np.isnan(debug["interval_pairs"][:, 1, 0])
        assert debug["nu_per_subset"][failed].tolist() == [0.0]
    assert np.flatnonzero(failed).tolist() == [make_partition(120, 4, config.seed).assignment[7]]
    write_json(tmp_path / "report.json", report)
    assert load_json(tmp_path / "report.json")["released"]["epsilon"] == 1.0
    assert len(ledger.read_text().splitlines()) == 2
    assert budget.spent == 1.5


def test_bad_invert_mass_spends_no_epsilon(tmp_path, table):
    # the inversion's mass is checked before the release, in the library
    # and from the command line: the ledger file is left byte-identical
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text(LEDGER_RECORD + "\n")
    before = ledger.read_bytes()
    budget = BudgetLedger(cap=2.0, path=ledger)
    with pytest.raises(ConfigError, match=r"mass must be in \(0, 1\), got 1.5"):
        am_verify(synth_dataset(120, seed=2), parse_formula("y ~ x1 + x2 + x3"),
                  parse_formula("y ~ x1 + x3"), "x1", AMConfig(M=4, epsilon=1.0, seed=5),
                  budget, inversion=InversionAssumption(2.0, 1.0), invert_mass=1.5)
    assert budget.spent == 0.5
    tbl, schema = table
    rc = main(["am-verify", "--input", str(tbl), "--schema", str(schema),
               "--model", "y ~ x1 + x2 + x3", "--model-alt", "y ~ x1 + x3",
               "--coef", "x1", "--epsilon", "1", "--M", "4", "--ledger", str(ledger),
               "--out", str(tmp_path / "am.json"),
               "--invert", "--l1", "2", "--l2", "1", "--invert-mass", "1.5"])
    assert rc == 2
    assert ledger.read_bytes() == before
    assert not (tmp_path / "am.json").exists()


def test_ledger_append_precedes_report_emission(tmp_path, table, monkeypatch):
    # the report write fails (a full disk, say): the run fails, but the
    # spend is already on disk
    def full_disk(path, payload):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("dprep.cli.write_json", full_disk)
    ledger_path = tmp_path / "ledger.ndjson"
    args = _ad_args(table, tmp_path)
    rc = main(args)
    assert rc != 0
    assert not (tmp_path / "release.json").exists()
    assert ledger_path.exists()
    assert len(ledger_path.read_text().strip().splitlines()) == 1


# --------------------------------------------------------------------- cli

def test_cli_ad_verify_happy_path(tmp_path, table, capsys):
    rc = main(_ad_args(table, tmp_path))
    assert rc == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    report = load_json(tmp_path / "release.json")
    assert line["theta_hat"] == report["posterior"]["theta_hat"]
    assert audit_release_report((tmp_path / "release.json").read_text()) == []
    assert len((tmp_path / "ledger.ndjson").read_text().strip().splitlines()) == 1
    assert report["config"]["delta"] == 0.5


def test_cli_determinism_modulo_timestamp(tmp_path, table):
    assert main(_ad_args(table, tmp_path, out="a.json", ledger="la.ndjson")) == 0
    assert main(_ad_args(table, tmp_path, out="b.json", ledger="lb.ndjson")) == 0
    a = load_json(tmp_path / "a.json")
    b = load_json(tmp_path / "b.json")
    a["provenance"].pop("timestamp")
    b["provenance"].pop("timestamp")
    assert a == b


def test_cli_m_bigger_than_n_names_constraint(tmp_path, table, capsys):
    args = _ad_args(table, tmp_path, M=500)
    args[args.index("--M") + 1] = "500"
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert "500" in err and "120" in err  # message names M and N


def test_cli_budget_refusal_second_run(tmp_path, table, capsys):
    first = _ad_args(table, tmp_path, out="r1.json")
    first += ["--budget-cap", "1.0", "--epsilon", "0.6"]
    assert main(first) == 0
    second = _ad_args(table, tmp_path, out="r2.json")
    second += ["--budget-cap", "1.0", "--epsilon", "0.6"]
    rc = main(second)
    assert rc == 3
    assert "budget refusal" in capsys.readouterr().err
    assert len((tmp_path / "ledger.ndjson").read_text().strip().splitlines()) == 1
    assert not (tmp_path / "r2.json").exists()


def test_cli_singular_fit_exit_code(tmp_path, capsys):
    # x2 = 2x: every fit is singular.  The custodian-only fit exits 4; the
    # verify commands impute every subset, spend epsilon and exit 0
    rows = ["x,x2,y"] + [f"{i},{2 * i},{i + 1}" for i in range(40)]
    tbl = tmp_path / "collinear.csv"
    tbl.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text('{"x": "numeric", "x2": "numeric", "y": "numeric"}')
    io = ["--input", str(tbl), "--schema", str(schema), "--model", "y ~ x + x2"]
    assert main(["fit", *io]) == 4
    assert "fit error" in capsys.readouterr().err
    run = ["--coef", "x", "--epsilon", "1", "--M", "4", "--seed", "1",
           "--ledger", str(tmp_path / "l.ndjson")]
    assert main(["ad-verify", *io, *run, "--region", "0:inf", "--out", str(tmp_path / "r.json"),
                 "--unsafe-debug", str(tmp_path / "r.dbg")]) == 0
    assert load_json(tmp_path / "r.dbg")["indicators"] == [0, 0, 0, 0]
    assert main(["am-verify", *io, *run, "--model-alt", "y ~ x", "--out", str(tmp_path / "a.json"),
                 "--unsafe-debug", str(tmp_path / "a.dbg")]) == 0
    assert load_json(tmp_path / "a.dbg")["nu_per_subset"] == [0.0] * 4
    assert len((tmp_path / "l.ndjson").read_text().splitlines()) == 2


def test_cli_nonfinite_design_cell(tmp_path, capsys):
    # sq(b) of a cell of 1e200 overflows: the custodian-only fit exits 2
    # naming the cause, and the verify commands impute the subset holding it
    rng = np.random.default_rng(3)
    b = rng.normal(size=40)
    b[5] = 1e200
    tbl = tmp_path / "big.csv"
    tbl.write_text("x,b,y\n" + "".join(f"{x:.17g},{v:.17g},{y:.17g}\n" for x, v, y in
                                       zip(rng.normal(size=40), b, rng.normal(size=40))))
    schema = tmp_path / "schema.json"
    schema.write_text('{"x": "numeric", "b": "numeric", "y": "numeric"}')
    io = ["--input", str(tbl), "--schema", str(schema), "--model", "y ~ x + sq(b)"]
    assert main(["fit", *io]) == 2
    assert "overflow" in capsys.readouterr().err
    run = ["--coef", "x", "--epsilon", "1", "--M", "4", "--seed", "2",
           "--ledger", str(tmp_path / "l.ndjson")]
    held = make_partition(40, 4, 2).assignment[5]
    assert main(["ad-verify", *io, *run, "--region", "0:inf", "--out", str(tmp_path / "r.json"),
                 "--unsafe-debug", str(tmp_path / "r.dbg")]) == 0
    estimates = np.array(load_json(tmp_path / "r.dbg")["subset_estimates"])
    assert np.flatnonzero(np.isnan(estimates)).tolist() == [held]
    assert load_json(tmp_path / "r.dbg")["indicators"][held] == 0
    assert main(["am-verify", *io, *run, "--model-alt", "y ~ x", "--out", str(tmp_path / "a.json"),
                 "--unsafe-debug", str(tmp_path / "a.dbg")]) == 0
    nus = load_json(tmp_path / "a.dbg")["nu_per_subset"]
    assert [l for l, nu in enumerate(nus) if nu == 0.0] == [held]
    assert len((tmp_path / "l.ndjson").read_text().splitlines()) == 2


def test_cli_fit_refuses_a_summary_that_is_not_finite(tmp_path, capsys):
    # a response cell of 1e200 overflows sigma2_hat; JSON has no Infinity,
    # so the custodian-only fit exits 2 naming it and prints no summary
    rng = np.random.default_rng(3)
    y = rng.normal(size=40)
    y[7] = 1e200
    tbl = tmp_path / "big.csv"
    tbl.write_text("x,y\n" + "".join(f"{x:.17g},{v:.17g}\n"
                                     for x, v in zip(rng.normal(size=40), y)))
    schema = tmp_path / "schema.json"
    schema.write_text('{"x": "numeric", "y": "numeric"}')
    assert main(["fit", "--input", str(tbl), "--schema", str(schema), "--model", "y ~ x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma2_hat is not finite" in captured.err


def _key_paths(value, prefix=()):
    """Every key path of a parsed JSON object."""
    if not isinstance(value, dict):
        return {prefix}
    return {p for k, v in value.items() for p in _key_paths(v, prefix + (k,))}


def test_reconstruction_attack_learns_nothing(tmp_path, monkeypatch):
    # 60 rows in 20 subsets of three: a subset is singular under y ~ x3
    # exactly when the secret binary x3 is constant on it.  A run that
    # failed on such a subset would give the secret away through its exit
    # code; every run must look the same, whatever the secret
    rng = np.random.default_rng(11)
    schema = tmp_path / "schema.json"
    schema.write_text('{"x3": "numeric", "y": "numeric"}')
    secrets = [rng.integers(0, 2, 60) for _ in range(19)] + [np.ones(60, dtype=int)]

    def table(i):
        path = tmp_path / f"t{i}.csv"
        path.write_text("x3,y\n" + "".join(f"{s},{y:.17g}\n" for s, y in
                                          zip(secrets[i], rng.normal(size=60))))
        return path

    def ad_args(i, ledger):
        return ["ad-verify", "--input", str(table(i)), "--schema", str(schema),
                "--model", "y ~ x3", "--coef", "x3", "--region", "0:inf",
                "--epsilon", "1", "--M", "20", "--seed", str(i), "--budget-cap", "20",
                "--ledger", str(ledger), "--out", str(tmp_path / f"r{i}.json"),
                "--unsafe-debug", str(tmp_path / f"d{i}.json")]

    # the cap spent: every query is refused before the table is read
    spent = tmp_path / "spent.ndjson"
    spent.write_text("".join(NoisyRelease(value=0.0, epsilon_spent=1.0, sensitivity=1.0)
                             .to_record() + "\n" for _ in range(20)))
    before = spent.read_bytes()
    reads = []
    monkeypatch.setattr("dprep.cli.read_table", lambda *a: reads.append(a))
    assert [main(ad_args(i, spent)) for i in range(20)] == [3] * 20
    assert reads == [] and spent.read_bytes() == before

    # budget left: every query exits 0 and spends epsilon once
    monkeypatch.undo()
    ledger = tmp_path / "ledger.ndjson"
    keys = set()
    for i in range(20):
        assert main(ad_args(i, ledger)) == 0
        assert len(ledger.read_text().splitlines()) == i + 1
        keys.add(frozenset(_key_paths(load_json(tmp_path / f"r{i}.json"))))
    assert len(keys) == 1
    # the runs did meet failed subsets: all of them under the constant secret
    assert load_json(tmp_path / "d19.json")["indicators"] == [0] * 20
    assert sum(load_json(tmp_path / f"d{i}.json")["true_count"] for i in range(19)) > 0


def test_cli_seed_env_fallback(tmp_path, table, monkeypatch):
    args_env = _ad_args(table, tmp_path, out="env.json", ledger="le.ndjson")
    i = args_env.index("--seed")
    del args_env[i:i + 2]
    monkeypatch.setenv("DPREP_SEED", "7")
    assert main(args_env) == 0
    assert main(_ad_args(table, tmp_path, out="seeded.json", ledger="ls.ndjson")) == 0
    env_report = load_json(tmp_path / "env.json")
    seeded_report = load_json(tmp_path / "seeded.json")
    assert env_report["released"]["s_noisy"] == seeded_report["released"]["s_noisy"]
    assert env_report["config"]["seed"] == 7


def test_cli_unsafe_debug(tmp_path, table):
    args = _ad_args(table, tmp_path)
    args += ["--unsafe-debug", str(tmp_path / "debug.json")]
    assert main(args) == 0
    debug = load_json(tmp_path / "debug.json")
    assert {"true_count", "indicators", "subset_estimates", "plan"} <= set(debug)

    clash = _ad_args(table, tmp_path, out="same.json")
    clash += ["--unsafe-debug", str(tmp_path / "same.json")]
    assert main(clash) == 2


@pytest.mark.parametrize("out, flag, other", [
    ("r2.json", "--unsafe-debug", "./r2.json"),
    ("./ledger.ndjson", "--ledger", "ledger.ndjson"),
])
def test_cli_one_file_named_twice_exits_2(tmp_path, table, monkeypatch, capsys,
                                          out, flag, other):
    # the report would share a file with the debug payload or the ledger;
    # the paths are compared after resolving them, before the table is read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ledger.ndjson").write_text(LEDGER_RECORD + "\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    args = _ad_args(table, tmp_path)
    args[args.index("--out") + 1] = out
    if flag == "--ledger":
        args[args.index("--ledger") + 1] = other
    else:
        args += [flag, other]
    assert main(args) == 2
    assert "name the same file" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_cli_inflated_region_and_delta(tmp_path, table):
    args = _ad_args(table, tmp_path)
    args[args.index("--region") + 1] = "inflate:2.0"
    args += ["--gamma-o", "0.9", "--sigma-o", "0.2", "--n0", "300"]
    assert main(args) == 0
    report = load_json(tmp_path / "release.json")
    assert report["config"]["region"]["kind"] == "inflated"
    # n = 120 // 4 = 30; delta defaults to 0.9 * delta_star
    assert report["config"]["delta"] == pytest.approx(
        0.9 * delta_star(0.9, 0.2, 2.0, 300, 30))


def _key_paths(node, prefix=""):
    """The '/'-joined key paths of a parsed report, down to its leaves."""
    if not isinstance(node, dict):
        return {prefix}
    return set().union(*(_key_paths(v, f"{prefix}/{k}" if prefix else k)
                         for k, v in node.items()))


QUANTILES = {"0.05", "0.25", "0.5", "0.75", "0.95"}
AD_KEY_PATHS = {
    "framework",
    "released/s_noisy", "released/mechanism", "released/sensitivity", "released/epsilon",
    "config/M", "config/epsilon", "config/prior", "config/seed", "config/delta",
    "config/mcmc", "config/coef",
    "config/region/lower", "config/region/upper", "config/region/kind",
    "posterior/theta_hat", "posterior/r_samples",
    *(f"posterior/r_quantiles/{q}" for q in QUANTILES),
    "provenance/seed", "provenance/timestamp", "provenance/engine_version",
}
AM_KEY_PATHS = {
    "framework",
    "released/nu_bar_noisy", "released/mechanism", "released/sensitivity",
    "released/epsilon",
    "config/M", "config/epsilon", "config/prior", "config/seed", "config/level",
    "config/grid_points", "config/coef",
    "posterior/mean",
    "posterior/credible_intervals/0.9", "posterior/credible_intervals/0.95",
    *(f"posterior/quantiles/{q}" for q in QUANTILES),
    "provenance/seed", "provenance/timestamp", "provenance/engine_version",
}
INVERSION_KEY_PATHS = {"inversion/l1", "inversion/l2", "inversion/mass",
                       "inversion/nu_interval", "inversion/difference_interval"}


@pytest.mark.parametrize("case", ["ad-fixed", "ad-inflated", "am", "am-inverted"])
def test_cli_publishes_exactly_these_keys(tmp_path, table, capsys, case):
    # the published shape, pinned: a report section or summary field that is
    # added or dropped fails here
    if case.startswith("ad"):
        args, out = _ad_args(table, tmp_path), tmp_path / "release.json"
        if case == "ad-inflated":
            args[args.index("--region") + 1] = "inflate:2.0"
            args += ["--gamma-o", "0.9", "--sigma-o", "0.2", "--n0", "300"]
        paths, summary = AD_KEY_PATHS, ["out", "s_noisy", "theta_hat", "epsilon_spent"]
    else:
        args, out = _am_args(table, tmp_path), tmp_path / "am.json"
        paths, summary = AM_KEY_PATHS, ["out", "nu_bar_noisy", "epsilon_spent"]
        if case == "am-inverted":
            args += ["--invert", "--l1", "3", "--l2", "2"]
            paths = paths | INVERSION_KEY_PATHS
    assert main(args) == 0
    assert _key_paths(load_json(out)) == paths
    assert list(json.loads(capsys.readouterr().out)) == summary


def test_cli_fit_is_custodian_only(table, capsys):
    tbl, schema = table
    rc = main(["fit", "--input", str(tbl), "--schema", str(schema),
               "--model", "y ~ x1 + x2 + x3"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "do not release" in captured.err
    summary = json.loads(captured.out)
    assert summary["coefficients"]["x2"]["estimate"] == pytest.approx(0.9, abs=1.0)


def test_cli_ad_mselect_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main([
        "ad-mselect", "--gamma-grid=-500:1500:5", "--m-grid", "5,10,20",
        "--sigma-o", "97", "--n0", "154442", "--N", "160364",
        "--epsilon", "1", "--region", "500:inf", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma\\M,5,10,20"
    assert len(lines) == 6


def test_cli_am_verify_with_inversion(tmp_path, table):
    tbl, schema = table
    out = tmp_path / "am.json"
    rc = main([
        "am-verify", "--input", str(tbl), "--schema", str(schema),
        "--model", "y ~ x1 + x2 + x3", "--model-alt", "y ~ x1 + x3",
        "--coef", "x1", "--epsilon", "1", "--M", "4", "--seed", "3",
        "--ledger", str(tmp_path / "aml.ndjson"), "--out", str(out),
        "--invert", "--sigma-o", "0.1", "--n0", "120",
        "--unsafe-debug", str(tmp_path / "amdbg.json"),
    ])
    assert rc == 0
    report = load_json(out)
    assert audit_release_report(out.read_text()) == []
    assert report["released"]["sensitivity"] == pytest.approx(0.25)
    assert "difference_interval" in report["inversion"]
    debug = load_json(tmp_path / "amdbg.json")
    assert "nu_per_subset" in debug and len(debug["nu_per_subset"]) == 4


def test_cli_am_contour_csv(tmp_path):
    out = tmp_path / "ref.csv"
    rc = main([
        "am-contour", "--gamma", "1010", "--sigma", "790", "--corr", "0.95",
        "--diff-grid", "0:1.5:4", "--ratio-grid", "0.8,1.0,1.2",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("diff\\ratio,")
    assert len(lines) == 5


def test_cli_invert_matches_library(capsys):
    rc = main(["invert", "--nu-ci", "0.878,0.998", "--mass", "0.9",
               "--sigma-o", "177", "--n0", "160364", "--n", "6414"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    lo, hi = payload["difference_interval"]
    assert lo == pytest.approx(6.9, abs=2.0)
    assert hi == pytest.approx(423.2, abs=2.0)


@pytest.mark.parametrize("assumption", [["--l1", "3", "--l2", "2"],
                                        ["--sigma-o", "0.1", "--n0", "120"]],
                         ids=["l1-l2", "null"])
def test_am_report_inversion_is_the_invert_command_on_its_credible_interval(
        tmp_path, table, capsys, assumption):
    # the inversion crosses from the pipeline (am, verify) to planning: the
    # report's nu_interval is rebuilt from its release and settings alone,
    # and `dprep invert` maps it to the report's difference_interval
    assert main(_am_args(table, tmp_path) + ["--invert", *assumption]) == 0
    capsys.readouterr()
    report = load_json(tmp_path / "am.json")
    inversion, config, released = report["inversion"], report["config"], report["released"]
    am_config = AMConfig(**{key: config[key] for key in
                            ("M", "epsilon", "prior", "seed", "level", "grid_points")})
    release = NoisyRelease(value=released["nu_bar_noisy"], epsilon_spent=released["epsilon"],
                           sensitivity=released["sensitivity"], mechanism=released["mechanism"])
    nu_ci = credible_interval(posterior_nu(Released(am_config, release)), inversion["mass"])
    assert inversion["nu_interval"] == [nu_ci.lower, nu_ci.upper]
    assert main(["invert", "--nu-ci", ",".join(map(repr, inversion["nu_interval"])),
                 "--mass", repr(inversion["mass"]), "--l1", repr(inversion["l1"]),
                 "--l2", repr(inversion["l2"])]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["difference_interval"] == inversion["difference_interval"]


def test_cli_budget_status(tmp_path, table, capsys, monkeypatch):
    assert main(_ad_args(table, tmp_path) + ["--budget-cap", "2.0"]) == 0
    capsys.readouterr()
    built = []
    post_init = NoisyRelease.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(NoisyRelease, "__post_init__", counted)
    rc = main(["budget-status", "--ledger", str(tmp_path / "ledger.ndjson"),
               "--budget-cap", "2.0"])
    assert rc == 0
    assert built == []  # counting the records builds no release objects
    status = json.loads(capsys.readouterr().out)
    assert status["entries"] == 1
    assert status["epsilon_spent"] == pytest.approx(1.0)
    assert status["remaining"] == pytest.approx(1.0)

    assert main(["budget-status", "--ledger", str(tmp_path / "nope.ndjson")]) == 2


@pytest.mark.parametrize("kind", ["torn", "missing-key", "value-not-a-number",
                                  "huge-int-epsilon", "huge-int-value", "non-utf8"])
@pytest.mark.parametrize("command", ["budget-status", "ad-verify"])
def test_cli_corrupt_ledger_exits_2(tmp_path, table, capsys, command, kind):
    ledger = tmp_path / "ledger.ndjson"
    bad = TORN_NON_UTF8 if kind == "non-utf8" else BAD_LEDGER_RECORDS[kind].encode()
    ledger.write_bytes(LEDGER_RECORD.encode() + b"\n" + bad)
    before = ledger.read_bytes()
    if command == "ad-verify":
        args = _ad_args(table, tmp_path)
    else:
        args = ["budget-status", "--ledger", str(ledger)]
    assert main(args) == 2
    assert f"{ledger}:2:" in capsys.readouterr().err
    assert ledger.read_bytes() == before
    assert not (tmp_path / "release.json").exists()


# tables the per-cell path cannot read; each bad row sits past the first
# block the header read decodes
UNREADABLE_TABLES = {
    "non-utf8": b"x1,x2,x3,y\n" + b"1,2,3,4\n" * 2000 + b"5,6,\xff,8\n",
    "field-over-csv-limit": b"x1,x2,x3,y\n" + b"1,2,3,4\n" * 2000
                            + b"5,6," + b"x" * 200_000 + b",8\n",
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_TABLES))
@pytest.mark.parametrize("command", ["fit", "ad-verify"])
def test_cli_unreadable_table_exits_2(tmp_path, table, capsys, command, kind):
    _, schema = table
    bad = tmp_path / "bad.csv"
    bad.write_bytes(UNREADABLE_TABLES[kind])
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text(LEDGER_RECORD + "\n")
    before = ledger.read_bytes()
    if command == "fit":
        args = ["fit", "--input", str(bad), "--schema", str(schema),
                "--model", "y ~ x1 + x2 + x3"]
    else:
        args = _ad_args((bad, schema), tmp_path)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert ledger.read_bytes() == before
    assert not (tmp_path / "release.json").exists()


@pytest.mark.parametrize("flag, value", [("mcmc", "5"), ("mcmc", "a,b"), ("mcmc", "1,2,3"),
                                         ("gamma-grid", "0:1:x")])
def test_cli_malformed_numbers_exit_2(tmp_path, table, capsys, flag, value):
    if flag == "mcmc":
        args = _ad_args(table, tmp_path, mcmc=value)
    else:
        args = ["ad-mselect", f"--gamma-grid={value}", "--m-grid", "5,10",
                "--sigma-o", "97", "--n0", "154442", "--N", "160364",
                "--epsilon", "1", "--region", "500:inf", "--out", str(tmp_path / "grid.csv")]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "ledger.ndjson").exists()
    assert not (tmp_path / "release.json").exists()
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, flag, value, named", [
    ("ad-mselect", "--m-grid", "nan", "nan"),
    ("ad-mselect", "--m-grid", "inf", "inf"),
    ("ad-mselect", "--m-grid", "5,10.5", "10.5"),
    ("ad-mselect", "--m-grid", "1e300", "1e+300"),
    ("ad-mselect", "--gamma-grid", "0:inf:3", "0:inf:3"),
    ("am-contour", "--diff-grid", "0:1:100000000000", "100000000000"),
    ("am-contour", "--ratio-grid", "-1e308:1e308:3", "-1e308:1e308:3"),
])
def test_cli_bad_grid_exits_2(tmp_path, capsys, command, flag, value, named):
    # a grid value that is not finite, a fraction in the integer M grid and
    # a count past MAX_GRID_COUNT are refused with a message naming them
    out = tmp_path / "grid.csv"
    if command == "ad-mselect":
        grids = {"--gamma-grid": "0:1000:3", "--m-grid": "5,10"}
        rest = ["--sigma-o", "97", "--n0", "154442", "--N", "160364",
                "--epsilon", "1", "--region", "500:inf"]
    else:
        grids = {"--diff-grid": "0:1.5:4", "--ratio-grid": "0.8,1.0"}
        rest = ["--gamma", "1010", "--sigma", "790"]
    grids[flag] = value
    args = [command, *(f"{k}={v}" for k, v in grids.items()), *rest, "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid") and named in err
    assert not out.exists()


@pytest.mark.parametrize("args, cells", [
    (["am-contour", "--gamma", "1010", "--sigma", "790", "--diff-grid", "0:1:1000000",
      "--ratio-grid", "0.5:2:1000000"], 10**12),
    (["am-contour", "--gamma", "1010", "--sigma", "790", "--diff-grid", "0:1:10001",
      "--ratio-grid", "0.5:2:1000"], 10_001_000),
    (["ad-mselect", "--gamma-grid", "0:1:1000000", "--m-grid", "1000000", "--sigma-o", "97",
      "--n0", "154442", "--N", "2000000", "--epsilon", "1", "--region", "500:inf"],
     10**6 * (10**6 + 1)),
    (["ad-mselect", "--gamma-grid", "0:1:1000", "--m-grid", "5,10000", "--sigma-o", "97",
      "--n0", "154442", "--N", "160364", "--epsilon", "1", "--region", "500:inf"], 10_001_000),
], ids=["am-contour-huge", "am-contour-past-bound", "ad-mselect-huge", "ad-mselect-past-bound"])
def test_cli_contour_past_the_cell_bound_exits_2(tmp_path, capsys, args, cells):
    # the product of the grids, not only each grid, is bounded: past 10**7
    # cells the contour is refused before any of its arrays is allocated
    # (the huge grids used to die with _ArrayMemoryError, exit 1)
    out = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        assert main([*args, "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{cells} cells, over 10000000" in capsys.readouterr().err
    assert peak < 64 * 2**20  # the two grids, not a contour array
    assert not out.exists()


@pytest.mark.parametrize("value", ["ab", ""])
def test_cli_delimiter_not_one_character_exits_2(tmp_path, table, capsys, value):
    args = _ad_args(table, tmp_path, delimiter=value)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: delimiter must be one character")
    assert not (tmp_path / "ledger.ndjson").exists()
    assert not (tmp_path / "release.json").exists()


UNREADABLE_SCHEMAS = {
    "not-json": b'{"x1": numeric',
    "non-utf8": b'{"x1": "numeric", "\xff": "numeric"}',
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_SCHEMAS))
@pytest.mark.parametrize("command", ["fit", "ad-verify"])
def test_cli_unreadable_schema_exits_2(tmp_path, table, capsys, command, kind):
    tbl, _ = table
    schema = tmp_path / "bad-schema.json"
    schema.write_bytes(UNREADABLE_SCHEMAS[kind])
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text(LEDGER_RECORD + "\n")
    before = ledger.read_bytes()
    if command == "fit":
        args = ["fit", "--input", str(tbl), "--schema", str(schema),
                "--model", "y ~ x1 + x2 + x3"]
    else:
        args = _ad_args((tbl, schema), tmp_path)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {schema}: ")
    assert ledger.read_bytes() == before
    assert not (tmp_path / "release.json").exists()


def _am_args(table, tmp_path):
    tbl, schema = table
    return ["am-verify", "--input", str(tbl), "--schema", str(schema),
            "--model", "y ~ x1 + x2 + x3", "--model-alt", "y ~ x1 + x3",
            "--coef", "x1", "--epsilon", "1", "--M", "4", "--seed", "3",
            "--ledger", str(tmp_path / "ledger.ndjson"), "--out", str(tmp_path / "am.json")]


@pytest.mark.parametrize("framework", ["ad", "am"])
@pytest.mark.parametrize("flag, target", [
    ("--out", "./data.csv"),
    ("--out", "schema.json"),
    ("--unsafe-debug", "./data.csv"),
    ("--ledger", "./schema.json"),
])
def test_cli_output_onto_an_input_exits_2(tmp_path, table, monkeypatch, capsys,
                                          framework, flag, target):
    # a report, debug payload or ledger over the table or the schema is
    # refused before the table is read: no file changes, no ε is spent
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ledger.ndjson").write_text(LEDGER_RECORD + "\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    args = _ad_args(table, tmp_path) if framework == "ad" else _am_args(table, tmp_path)
    if flag in args:
        args[args.index(flag) + 1] = target
    else:
        args += [flag, target]
    assert main(args) == 2
    assert "name the same file" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# settings that would fail, or write NaN into the report, only after the
# release: each is refused before it
PRE_RELEASE_REFUSALS = {
    "ad-prior-inf": ("ad", ["--prior", "inf,1"], "prior"),
    "am-prior-inf": ("am", ["--prior", "inf,1"], "prior"),
    "epsilon-inf": ("ad", ["--epsilon", "inf"], "epsilon"),
    "l1-nan": ("am", ["--invert", "--l1", "nan", "--l2", "1"], "l2 <= l1"),
    "sigma-o-inf": ("am", ["--invert", "--sigma-o", "inf", "--n0", "120"], "sigma_hat_o"),
    "cap-inf": ("ad", ["--budget-cap", "inf"], "budget cap"),
    "draws-oversized": ("ad", ["--mcmc", "0,100000000000"], "mcmc"),
    "grid-oversized": ("am", ["--grid-points", "100000000000"], "grid_points"),
    "out-dir-missing": ("ad", ["--out", "no-such-dir/release.json"], "--out"),
    "debug-dir-missing": ("am", ["--unsafe-debug", "no-such-dir/am.dbg"], "--unsafe-debug"),
    "seed-negative": ("ad", ["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
    "seed-past-64-bits": ("am", ["--seed", str(2**64 + 5)], "seed must be in [0, 2**64)"),
}


@pytest.mark.parametrize("case", sorted(PRE_RELEASE_REFUSALS))
def test_cli_bad_setting_exits_2_before_release(tmp_path, table, monkeypatch, capsys, case):
    framework, extra, named = PRE_RELEASE_REFUSALS[case]
    monkeypatch.chdir(tmp_path)
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text(LEDGER_RECORD + "\n")
    before = ledger.read_bytes()
    args = _ad_args(table, tmp_path) if framework == "ad" else _am_args(table, tmp_path)
    assert main(args + extra) == 2  # a repeated option's last value wins
    assert named in capsys.readouterr().err
    assert ledger.read_bytes() == before
    assert not (tmp_path / "release.json").exists() and not (tmp_path / "am.json").exists()
    assert not (tmp_path / "no-such-dir").exists()


NINES = "9" * 400  # an --n0 past the doubles


@pytest.mark.parametrize("command", ["ad-verify", "am-verify", "ad-mselect", "invert"])
def test_cli_n0_past_the_doubles_exits_2_before_ingest(tmp_path, table, monkeypatch, capsys,
                                                       command):
    # n0 / n used to raise OverflowError, a traceback and exit 1, in the
    # verify commands after the table was read
    import dprep.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("the table was read before --n0 was checked")

    monkeypatch.setattr(dprep.cli, "read_table", forbidden)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ledger.ndjson").write_text(LEDGER_RECORD + "\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    args = {
        "ad-verify": _ad_args(table, tmp_path) + [
            "--region", "inflate:1.96", "--gamma-o", "0.5", "--sigma-o", "0.1", "--n0", NINES],
        "am-verify": _am_args(table, tmp_path) + ["--invert", "--sigma-o", "0.1", "--n0", NINES],
        "ad-mselect": ["ad-mselect", "--gamma-grid", "0:1:3", "--m-grid", "5,10",
                       "--sigma-o", "1", "--n0", NINES, "--N", "1000", "--epsilon", "1",
                       "--region", "0:inf", "--out", str(tmp_path / "grid.csv")],
        "invert": ["invert", "--nu-ci", "0.8,0.9", "--sigma-o", "1", "--n0", NINES,
                   "--n", "10"],
    }[command]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: n0 must be at most the largest double")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("framework", ["ad", "am"])
def test_ledger_in_a_missing_directory_exits_2_before_ingest(tmp_path, table, monkeypatch,
                                                             capsys, framework):
    # the ledger is appended to only after the release: a missing directory
    # is refused before the table is read or any subset is fitted
    import dprep.ad
    import dprep.am
    import dprep.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the ledger path was checked")

    for module, name in ((dprep.cli, "read_table"), (dprep.ad, "fit_subsets"),
                         (dprep.am, "fit_subsets")):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.chdir(tmp_path)
    args = _ad_args(table, tmp_path) if framework == "ad" else _am_args(table, tmp_path)
    assert main(args + ["--ledger", "no-such-dir/l.jsonl"]) == 2
    assert "--ledger" in capsys.readouterr().err
    assert not (tmp_path / "no-such-dir").exists()


@pytest.mark.parametrize("framework", ["ad", "am"])
def test_numpy_integer_M_and_seed_give_the_plain_int_report(tmp_path, framework):
    # robustness_contour's M axis is a NumPy int array: an M or seed taken
    # from it gives the report and debug payload of the plain ints; a float
    # or a bool is refused before anything is spent
    ds = synth_dataset(103, seed=4)  # M = 5 leaves a remainder

    def run(ledger, M, seed):
        if framework == "ad":
            return ad_verify(ds, parse_formula("y ~ x1 + x2 + x3"), "x2",
                             build_fixed_region(0.0, math.inf),
                             ADConfig(M=M, epsilon=1.0, seed=seed), ledger)
        return am_verify(ds, parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + x3"),
                         "x1", AMConfig(M=M, epsilon=1.0, seed=seed), ledger)

    texts = []
    for M, seed in ((5, 3), (np.int64(5), np.int64(3)), (np.int32(5), np.uint8(3))):
        report, debug = run(BudgetLedger(cap=1.0), M, seed)
        report["provenance"].pop("timestamp")
        write_json(tmp_path / "report.json", report)
        write_json(tmp_path / "debug.json", debug)
        texts.append(((tmp_path / "report.json").read_text(),
                      (tmp_path / "debug.json").read_text()))
    assert texts[1] == texts[0] and texts[2] == texts[0]
    for M, seed in ((5.0, 3), (5, 1.5), (True, 3), (5, True), (np.float64(5), 3)):
        ledger = BudgetLedger(cap=1.0)
        with pytest.raises(ConfigError, match="must be an integer"):
            run(ledger, M, seed)
        assert ledger.spent == 0 and not ledger.entries


@pytest.mark.parametrize("framework", ["ad", "am"])
def test_numpy_integer_mcmc_and_grid_points_give_the_plain_int_report(tmp_path, framework):
    # a NumPy int in ADConfig.mcmc or AMConfig.grid_points is stored as an
    # int, so the report serializes; a float or a bool is refused before
    # anything is spent
    ds = synth_dataset(103, seed=4)

    def run(ledger, value):
        if framework == "ad":
            return ad_verify(ds, parse_formula("y ~ x1 + x2 + x3"), "x2",
                             build_fixed_region(0.0, math.inf),
                             ADConfig(M=5, epsilon=1.0, seed=3, mcmc=value), ledger)
        return am_verify(ds, parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + x3"),
                         "x1", AMConfig(M=5, epsilon=1.0, seed=3, grid_points=value), ledger)

    if framework == "ad":
        plain, numpy_ints = (500, 1000), [(np.int64(500), np.int64(1000)), (np.uint16(500), 1000)]
        refused = [(500.0, 1000), (500, 1000.0), (True, 1000), (500, np.float64(1000))]
    else:
        plain, numpy_ints = 1001, [np.int64(1001), np.int32(1001)]
        refused = [1001.0, True, np.float64(1001)]
    texts = []
    for value in [plain] + numpy_ints:
        report, debug = run(BudgetLedger(cap=1.0), value)
        report["provenance"].pop("timestamp")
        write_json(tmp_path / "report.json", report)
        write_json(tmp_path / "debug.json", debug)
        texts.append(((tmp_path / "report.json").read_text(),
                      (tmp_path / "debug.json").read_text()))
    assert texts[1:] == [texts[0]] * len(numpy_ints)
    for value in refused:
        ledger = BudgetLedger(cap=1.0)
        with pytest.raises(ConfigError, match="must be an integer"):
            run(ledger, value)
        assert ledger.spent == 0 and not ledger.entries


def _ad_run(ledger, config=None, region=None):
    return ad_verify(synth_dataset(103, seed=4), parse_formula("y ~ x1 + x2 + x3"), "x2",
                     region or build_fixed_region(0.0, math.inf),
                     config or ADConfig(M=5, epsilon=1.0, seed=3), ledger)


def _am_run(ledger, config=None, inversion=InversionAssumption(3.0, 2.0), invert_mass=0.9):
    return am_verify(synth_dataset(103, seed=4), parse_formula("y ~ x1 + x2 + x3"),
                     parse_formula("y ~ x1 + x3"), "x1",
                     config or AMConfig(M=5, epsilon=1.0, seed=3), ledger,
                     inversion=inversion, invert_mass=invert_mass)


# every float setting a report echoes, as a run given ``f`` of a value that
# np.float32 holds exactly: f is float for the plain run, np.float32 else
ECHOED_FLOATS = {
    "ADConfig.prior": lambda f, ledger: _ad_run(
        ledger, config=ADConfig(M=5, epsilon=1.0, seed=3, prior=(f(2.0), 1.0))),
    "ADConfig.delta": lambda f, ledger: _ad_run(
        ledger, config=ADConfig(M=5, epsilon=1.0, seed=3, delta=f(0.5))),
    "AMConfig.level": lambda f, ledger: _am_run(
        ledger, config=AMConfig(M=5, epsilon=1.0, seed=3, level=f(0.875))),
    "RunConfig.epsilon": lambda f, ledger: _ad_run(
        ledger, config=ADConfig(M=5, epsilon=f(1.0), seed=3)),
    "ToleranceRegion": lambda f, ledger: _ad_run(
        ledger, region=ToleranceRegion(f(0.0), f(5.0))),
    "InversionAssumption": lambda f, ledger: _am_run(
        ledger, inversion=InversionAssumption(f(3.0), f(2.0))),
    "invert_mass": lambda f, ledger: _am_run(ledger, invert_mass=f(0.75)),
}


@pytest.mark.parametrize("setting", sorted(ECHOED_FLOATS))
def test_numpy_float_setting_gives_the_plain_float_report(tmp_path, setting):
    # a NumPy float setting is stored as a float, so the report it echoes
    # into serializes: it used to spend ε and then fail to write the report
    texts = []
    for f in (float, np.float32):
        path = tmp_path / f"{f.__name__}.ndjson"
        report, _ = ECHOED_FLOATS[setting](f, BudgetLedger(cap=5.0, path=path))
        assert len(path.read_text().splitlines()) == 1
        report["provenance"].pop("timestamp")
        write_json(tmp_path / f"{f.__name__}.json", report)
        texts.append((tmp_path / f"{f.__name__}.json").read_text())
    assert texts[1] == texts[0]


def test_write_json_writes_the_text_of_json_dump_or_no_file(tmp_path):
    payload = {"b": [1.5, float("inf")], "a": {"nus": np.array([0.25, 0.0])}, "n": 3}
    write_json(tmp_path / "report.json", payload)
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda a: a.tolist())
        fh.write("\n")
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()
    # a value that does not serialize fails before the file is opened
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(tmp_path / "bad.json", {"a": 1, "z": {1, 2}})
    assert not (tmp_path / "bad.json").exists()


def test_unsafe_debug_files_keep_their_lists(tmp_path, table):
    # the debug payload holds numpy arrays; its file is the JSON of the
    # plain lists it held before, byte for byte
    tbl, schema = table
    ds = read_table(tbl, schema)
    assert main(_ad_args(table, tmp_path) + ["--unsafe-debug", str(tmp_path / "ad.json")]) == 0
    _, debug = ad_verify(ds, parse_formula("y ~ x1 + x2 + x3"), "x2",
                         build_fixed_region(0.0, math.inf),
                         ADConfig(M=4, epsilon=1.0, seed=7), BudgetLedger(cap=1.0))
    assert debug["indicators"].shape == debug["subset_estimates"].shape == (4,)
    lists = {"true_count": debug["true_count"],
             "indicators": [int(w) for w in debug["indicators"]],
             "subset_estimates": [float(v) for v in debug["subset_estimates"]],
             "plan": debug["plan"]}
    text = (tmp_path / "ad.json").read_text()
    assert text == json.dumps(lists, indent=2, sort_keys=True) + "\n"

    assert main(_am_args(table, tmp_path) + ["--unsafe-debug", str(tmp_path / "am.dbg")]) == 0
    _, debug = am_verify(ds, parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + x3"),
                         "x1", AMConfig(M=4, epsilon=1.0, seed=3), BudgetLedger(cap=1.0))
    assert debug["nu_per_subset"].shape == (4,)
    assert debug["interval_pairs"].shape == (4, 2, 2)  # subset, model, [lower, upper]
    lists = {"nu_bar": debug["nu_bar"],
             "nu_per_subset": [float(v) for v in debug["nu_per_subset"]],
             "interval_pairs": [[[float(v) for v in ci] for ci in pair]
                                for pair in debug["interval_pairs"]],
             "plan": debug["plan"]}
    text = (tmp_path / "am.dbg").read_text()
    assert text == json.dumps(lists, indent=2, sort_keys=True) + "\n"


def test_am_verify_at_paper_scale_allocates_no_per_subset_objects():
    # the per-subset values stay in arrays: a verification with M = 5000
    # does not fill the garbage collector's youngest generation
    ds = synth_dataset(160_000, seed=5)
    models = parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + x2")
    config = AMConfig(M=5000, epsilon=1.0, seed=1)
    am_verify(ds, *models, "x1", config, BudgetLedger(cap=10.0))
    assert gc.isenabled()
    before = gc.get_stats()[0]["collections"]
    am_verify(ds, *models, "x1", config, BudgetLedger(cap=10.0))
    assert gc.get_stats()[0]["collections"] - before <= 1


def test_cli_import_loads_no_scipy_integrate_or_stats():
    code = ("import sys, dprep.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', "
            "'scipy.optimize', 'scipy.stats'))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
