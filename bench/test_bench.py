"""The benchmark's own tests: its checker rejects wrong outputs, and the
command prints exactly the metrics ``BENCHMARK.json`` declares.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import workloads
from dprep import (ADConfig, AMConfig, BudgetLedger, Dataset, ad_verify, am_verify,
                   build_fixed_region, make_partition, parse_formula)
from dprep.verify import write_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AD = workloads.WORKLOADS["query-session"]
AM = workloads.WORKLOADS["am-subsets"]


@pytest.fixture(scope="module")
def columns():
    return workloads.synth_columns(2000, seed=7)[1]


def _run(columns, framework, tmp_path):
    """One real verification: (report text, ledger text, debug, plan)."""
    ledger = BudgetLedger(cap=10.0, path=tmp_path / f"{framework}.jsonl")
    data = Dataset(columns)
    if framework == "ad":
        config = ADConfig(M=10, epsilon=AD.epsilon, seed=3)
        report, debug = ad_verify(data, parse_formula(AD.models[0]), AD.coef,
                                  build_fixed_region(*AD.region), config, ledger)
    else:
        config = AMConfig(M=10, epsilon=AM.epsilon, seed=3)
        report, debug = am_verify(data, parse_formula(AM.models[0]),
                                  parse_formula(AM.models[1]), AM.coef, config, ledger)
    write_json(tmp_path / "report.json", report)
    return ((tmp_path / "report.json").read_text(),
            (tmp_path / f"{framework}.jsonl").read_text(),
            debug, make_partition(2000, 10, 3))


@pytest.mark.parametrize("framework", ["ad", "am"])
def test_checker_accepts_real_outputs(columns, framework, tmp_path):
    text, ledger, debug, plan = _run(columns, framework, tmp_path)
    w = AD if framework == "ad" else AM
    report = check.check_report(text, framework, 10, w.epsilon)
    check.check_ledger(ledger, report, w.epsilon)
    captured = {"plan": plan, "S": debug.get("true_count"), "nu_bar": debug.get("nu_bar")}
    check.check_oracle(w, columns, captured, {})


@pytest.mark.parametrize("field", ["S", "nu_bar", "coefficients"])
def test_checker_rejects_forbidden_field(columns, field, tmp_path):
    text, _, _, _ = _run(columns, "ad", tmp_path)
    report = json.loads(text)
    report["provenance"][field] = 1
    with pytest.raises(check.CheckError, match="custodian-only"):
        check.check_report(json.dumps(report), "ad", 10, AD.epsilon)


@pytest.mark.parametrize("framework, key", [("ad", "theta_hat"), ("am", "mean")])
def test_checker_rejects_edited_posterior_summary(columns, framework, key, tmp_path):
    text, _, _, _ = _run(columns, framework, tmp_path)
    report = json.loads(text)
    report["posterior"][key] += 0.01
    w = AD if framework == "ad" else AM
    with pytest.raises(check.CheckError, match="posterior summary"):
        check.check_report(json.dumps(report), framework, 10, w.epsilon)


@pytest.mark.parametrize("copies", [0, 2])
def test_checker_rejects_ledger_with_zero_or_two_records(columns, copies, tmp_path):
    text, ledger, _, _ = _run(columns, "ad", tmp_path)
    report = check.check_report(text, "ad", 10, AD.epsilon)
    with pytest.raises(check.CheckError, match="ledger gained"):
        check.check_ledger(ledger * copies, report, AD.epsilon)


def test_checker_rejects_ledger_with_other_epsilon(columns, tmp_path):
    text, ledger, _, _ = _run(columns, "ad", tmp_path)
    report = check.check_report(text, "ad", 10, AD.epsilon)
    with pytest.raises(check.CheckError, match="spends"):
        check.check_ledger(ledger, report, 2 * AD.epsilon)


@pytest.mark.parametrize("delta", [-1, 1])
def test_oracle_rejects_count_off_by_one(columns, delta, tmp_path):
    _, _, debug, plan = _run(columns, "ad", tmp_path)
    captured = {"plan": plan, "S": debug["true_count"] + delta}
    with pytest.raises(check.CheckError, match="true count"):
        check.check_oracle(AD, columns, captured, {})


def test_oracle_rejects_shifted_mean_overlap(columns, tmp_path):
    _, _, debug, plan = _run(columns, "am", tmp_path)
    captured = {"plan": plan, "nu_bar": debug["nu_bar"] + 1e-8}
    with pytest.raises(check.CheckError, match="mean overlap"):
        check.check_oracle(AM, columns, captured, {})


def _command(cwd, trace=0, seconds=1):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query-session", "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc, lines = _command(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def _copy_checkout(tmp_path, with_src=True):
    dest = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "bench"), dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_command_fails_when_a_report_leaks(tmp_path):
    """A program that leaks the true count into some reports makes the
    command report those verifications as failed and exit non-zero."""
    dest = _copy_checkout(tmp_path)
    verify_py = dest / "src" / "dprep" / "verify.py"
    source = verify_py.read_text()
    anchor = '        "provenance": _provenance(config.seed),\n    }\n    debug = {\n        "true_count"'
    assert anchor in source
    # the warm-up runs M=25; only the M=200 queries leak
    verify_py.write_text(source.replace(anchor, anchor.replace(
        '_provenance(config.seed),', '_provenance(config.seed),\n'
        '        **({"S": indicators.S} if config.M == 200 else {}),'), 1))
    proc, lines = _command(dest)
    assert proc.returncode != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]


def test_command_fails_without_sources(tmp_path):
    proc, lines = _command(_copy_checkout(tmp_path, with_src=False))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
