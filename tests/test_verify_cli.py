import json
import math

import pytest

from helpers import BAD_LEDGER_RECORDS, LEDGER_RECORD, TORN_NON_UTF8, replace_row, synth_dataset

from dprep import (
    ADConfig,
    AMConfig,
    BudgetLedger,
    InversionAssumption,
    TransformDomainError,
    ad_verify,
    am_verify,
    build_fixed_region,
    parse_formula,
)
from dprep.cli import main
from dprep.verify import (
    audit_release_report,
    load_json,
    recompute_posterior_summary,
    resolve_delta,
)
from dprep.ad import build_inflated_region, delta_star


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

    am_report, _ = am_verify(
        ds, parse_formula("y ~ x1 + x2 + x3"), parse_formula("y ~ x1 + x3"), "x1",
        AMConfig(M=4, epsilon=1.0, seed=11), BudgetLedger(cap=1.0),
    )
    back = recompute_posterior_summary(json.loads(json.dumps(am_report)))
    assert back["mean"] == am_report["posterior"]["mean"]
    assert back["quantiles"] == am_report["posterior"]["quantiles"]


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
    # log of a non-positive cell fails before the release: the ledger file
    # is left byte-identical
    ledger = tmp_path / "ledger.ndjson"
    ledger.write_text(LEDGER_RECORD + "\n")
    before = ledger.read_bytes()
    ds = replace_row(synth_dataset(120, seed=4), 7, {"x1": 0.0})
    budget = BudgetLedger(cap=2.0, path=ledger)
    with pytest.raises(TransformDomainError, match="log"):
        if framework == "ad":
            ad_verify(ds, parse_formula("y ~ log(x1) + x2"), "x2",
                      build_fixed_region(0.0, math.inf),
                      ADConfig(M=4, epsilon=1.0, seed=3), budget)
        else:
            am_verify(ds, parse_formula("y ~ x2 + x3"), parse_formula("y ~ log(x1) + x2"),
                      "x2", AMConfig(M=4, epsilon=1.0, seed=5), budget)
    assert ledger.read_bytes() == before
    assert budget.spent == 0.5


def test_ledger_append_precedes_report_emission(tmp_path, table):
    # report path in a missing directory: the run fails, but the spend is
    # already on disk
    ledger_path = tmp_path / "ledger.ndjson"
    args = _ad_args(table, tmp_path, out="no-such-dir/release.json")
    rc = main(args)
    assert rc != 0
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
    rows = ["x,x2,y"] + [f"{i},{2 * i},{i + 1}" for i in range(40)]
    tbl = tmp_path / "collinear.csv"
    tbl.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text('{"x": "numeric", "x2": "numeric", "y": "numeric"}')
    rc = main([
        "ad-verify", "--input", str(tbl), "--schema", str(schema),
        "--model", "y ~ x + x2", "--coef", "x", "--region", "0:inf",
        "--epsilon", "1", "--M", "4", "--seed", "1",
        "--ledger", str(tmp_path / "l.ndjson"), "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 4
    assert "fit error" in capsys.readouterr().err


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
        "--epsilon", "1", "--region", "500:inf", "--K", "200",
        "--seed", "0", "--out", str(out),
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
        "--K", "200", "--seed", "1", "--out", str(out),
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


def test_cli_budget_status(tmp_path, table, capsys):
    assert main(_ad_args(table, tmp_path) + ["--budget-cap", "2.0"]) == 0
    capsys.readouterr()
    rc = main(["budget-status", "--ledger", str(tmp_path / "ledger.ndjson"),
               "--budget-cap", "2.0"])
    assert rc == 0
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
