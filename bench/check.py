"""Output checks for every verification the benchmark runs.

Each check raises ``CheckError`` with a reason; the caller counts the
verification as failed.  No check pins a noisy value: the ledger record is
compared with the report of the same run, and the oracle compares only the
custodian-only quantities (the true count S and the mean overlap).
"""

from __future__ import annotations

import json

import numpy as np
import scipy.stats

from workloads import design

NU_BAR_TOL = 1e-9


class CheckError(Exception):
    """An output of the program is wrong."""


def check_report(text: str, framework: str, M: int, epsilon: float) -> dict:
    """Boundary audit, config echo and posterior-summary recomputation of
    one serialized release report; returns the parsed report."""
    from dprep.verify import audit_release_report, recompute_posterior_summary

    leaked = audit_release_report(text)
    if leaked:
        raise CheckError(f"report carries custodian-only fields {leaked}")
    report = json.loads(text)
    if report.get("framework") != framework:
        raise CheckError(f"report framework {report.get('framework')!r}, want {framework!r}")
    if report["config"]["M"] != M or report["released"]["epsilon"] != epsilon:
        raise CheckError(
            f"report echoes M={report['config']['M']}, "
            f"epsilon={report['released']['epsilon']}; ran M={M}, epsilon={epsilon}"
        )
    for key, value in recompute_posterior_summary(report).items():
        if report["posterior"].get(key) != value:
            raise CheckError(f"posterior summary {key!r} does not match its samples")
    return report


def released_value(report: dict) -> float:
    released = report["released"]
    return released["s_noisy"] if "s_noisy" in released else released["nu_bar_noisy"]


def check_ledger(appended: str, report: dict, epsilon: float) -> None:
    """``appended`` is the ledger text one verification added: exactly one
    record, spending the configured epsilon, holding the reported value."""
    from dprep import NoisyRelease

    records = [NoisyRelease.from_record(line) for line in appended.splitlines() if line.strip()]
    if len(records) != 1:
        raise CheckError(f"ledger gained {len(records)} records, want 1")
    rec = records[0]
    if rec.epsilon_spent != epsilon:
        raise CheckError(f"ledger record spends {rec.epsilon_spent}, want {epsilon}")
    if rec.value != released_value(report):
        raise CheckError("ledger record value differs from the released value")


# ------------------------------------------------------------------ oracle


def _subset_blocks(assignment: np.ndarray, M: int) -> np.ndarray:
    """Row indices per subset, (M, n), original row order within a subset."""
    order = np.argsort(assignment, kind="stable")
    return order.reshape(M, -1)


def _lstsq_fit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise CheckError("oracle met a rank-deficient subset")
    resid = y - X @ beta
    df = X.shape[0] - X.shape[1]
    se = np.sqrt(resid @ resid / df * np.diag(np.linalg.inv(X.T @ X)))
    return beta, se, df


def oracle_count(columns, formula, coef, region, assignment, M) -> int:
    """True count S of subset estimates inside the closed region."""
    X, y, names = design(columns, formula)
    j = names.index(coef)
    count = 0
    for rows in _subset_blocks(assignment, M):
        beta, _, _ = _lstsq_fit(X[rows], y[rows])
        count += int(region[0] <= beta[j] <= region[1])
    return count


def oracle_nu_bar(columns, formulas, coef, assignment, M, level=0.95) -> float:
    """Mean over subsets of the symmetric length overlap of the two models'
    equal-tailed t intervals for ``coef``."""
    designs = [design(columns, f) for f in formulas]
    nus = []
    for rows in _subset_blocks(assignment, M):
        cis = []
        for X, y, names in designs:
            beta, se, df = _lstsq_fit(X[rows], y[rows])
            j = names.index(coef)
            half = scipy.stats.t.ppf((1 + level) / 2, df) * se[j]
            cis.append((beta[j] - half, beta[j] + half))
        (lo0, hi0), (lo1, hi1) = cis
        c = max(0.0, min(hi0, hi1) - max(lo0, lo1))
        nus.append(0.5 * (c / (hi0 - lo0) + c / (hi1 - lo1)))
    return float(np.mean(nus))


def check_oracle(workload, columns, captured: dict, cache: dict) -> None:
    """Compare one traced verification's custodian-only result with the
    oracle on the partition plan that verification used."""
    plan = captured["plan"]
    key = (plan.M, plan.seed)
    if key not in cache:
        if workload.framework == "ad":
            cache[key] = oracle_count(columns, workload.models[0], workload.coef,
                                      workload.region, plan.assignment, plan.M)
        else:
            cache[key] = oracle_nu_bar(columns, workload.models, workload.coef,
                                       plan.assignment, plan.M)
    expected = cache[key]
    if workload.framework == "ad":
        if captured["S"] != expected:
            raise CheckError(f"true count S={captured['S']}, oracle gives {expected}")
    elif not abs(captured["nu_bar"] - expected) <= NU_BAR_TOL:
        raise CheckError(f"mean overlap {captured['nu_bar']!r}, oracle gives {expected!r}")
