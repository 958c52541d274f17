"""End-to-end verification runs and release-report assembly.

This layer owns the privacy boundary.  A release report contains only the
noised scalar, a configuration echo, posterior summaries, and provenance;
raw subset statistics (the true count, per-subset indicators, coefficients,
overlaps, interval pairs) live in a separate custodian-only debug payload
that is written nowhere unless explicitly requested.

Ledger appends happen inside the release step, before any report is
assembled or written: an unrecorded release would be a privacy accounting
failure, while a recorded-but-unemitted one merely wastes budget.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ad import (
    ADConfig,
    ToleranceRegion,
    compute_indicator_count,
    delta_star,
    gibbs_posterior,
    release_count,
    theta_hat,
)
from .am import (
    AMConfig,
    InversionAssumption,
    average_overlap,
    credible_interval,
    invert_credible_interval,
    posterior_nu,
    release_overlap,
)
from .errors import ConfigError
from .linmod import ModelSpec, confidence_interval, fit_ols
from .partition import make_partition
from .privacy import BudgetLedger
from .tabular import Dataset

# field names that must never appear in a release report; the boundary
# audit greps for exactly these
FORBIDDEN_RELEASE_FIELDS = (
    "S",
    "W",
    "coefficients",
    "stderrs",
    "estimates",
    "nus",
    "nu_per_subset",
    "nu_bar",
    "ci_pairs",
)

QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _provenance(seed: int) -> dict:
    return {"seed": seed, "timestamp": _utc_now(), "engine_version": __version__}


def _quantiles(samples: np.ndarray) -> dict[str, float]:
    qs = np.quantile(samples, QUANTILE_PROBS)
    return {f"{p:g}": float(q) for p, q in zip(QUANTILE_PROBS, qs)}


def summarize_r_samples(r_samples, delta: float) -> dict:
    """Posterior summary recomputable from the stored samples alone."""
    samples = np.asarray(r_samples, dtype=float)
    return {"theta_hat": theta_hat(samples, delta), "r_quantiles": _quantiles(samples)}


def summarize_nu_samples(samples) -> dict:
    arr = np.asarray(samples, dtype=float)
    return {"mean": float(arr.mean()), "quantiles": _quantiles(arr)}


def resolve_delta(config: ADConfig, region: ToleranceRegion) -> float:
    """Effective degree of certainty: the configured value if set, else 0.5
    for fixed regions and 0.9 * delta_star for inflated ones."""
    if config.delta is not None:
        return config.delta
    if region.kind == "inflated":
        p = region.provenance
        return 0.9 * delta_star(p.gamma_hat_o, p.sigma_hat_o, p.alpha, p.n0, p.n)
    return 0.5


def ad_verify(
    dataset: Dataset,
    model: ModelSpec,
    coef,
    region: ToleranceRegion,
    config: ADConfig,
    ledger: BudgetLedger,
) -> tuple[dict, dict]:
    """Run the full alternative-data pipeline.

    Returns (release report, custodian-only debug payload).  The report is
    safe to share; the debug payload is not.
    """
    delta = resolve_delta(config, region)
    plan = make_partition(dataset.n_rows, config.M, config.seed)
    indicators = compute_indicator_count(dataset, model, coef, region, plan)
    released = release_count(indicators.S, config, ledger)
    posterior = gibbs_posterior(released, delta=delta)

    report = {
        "framework": "ad",
        "released": {
            "s_noisy": released.s_noisy,
            "mechanism": released.release.mechanism,
            "sensitivity": released.release.sensitivity,
            "epsilon": released.release.epsilon_spent,
        },
        "config": {
            "M": config.M,
            "epsilon": config.eps,
            "delta": delta,
            "prior": list(config.prior),
            "mcmc": list(config.mcmc),
            "seed": config.seed,
            "coef": str(coef),
            "region": {
                "lower": region.lower,
                "upper": region.upper,
                "kind": region.kind,
            },
        },
        "posterior": {
            **summarize_r_samples(posterior.r_samples, delta),
            "r_samples": [float(v) for v in posterior.r_samples],
        },
        "provenance": _provenance(config.seed),
    }
    debug = {
        "true_count": indicators.S,
        "indicators": [int(w) for w in indicators.W],
        "subset_estimates": [float(v) for v in indicators.estimates],
        "plan": json.loads(plan.to_record()),
    }
    return report, debug


def am_verify(
    dataset: Dataset,
    model0: ModelSpec,
    model1: ModelSpec,
    coef: str,
    config: AMConfig,
    ledger: BudgetLedger,
    inversion: InversionAssumption | None = None,
    invert_mass: float = 0.9,
) -> tuple[dict, dict]:
    """Run the full alternative-model pipeline.

    When an inversion assumption is supplied, the report also carries the
    credible interval for |beta - gamma| implied by the posterior overlap
    interval at ``invert_mass``.
    """
    plan = make_partition(dataset.n_rows, config.M, config.seed)
    overlap = average_overlap(dataset, model0, model1, coef, plan, config.level)
    released = release_overlap(overlap, config, ledger)
    posterior = posterior_nu(released)

    intervals = {}
    for mass in sorted({0.9, config.level}):
        ci = credible_interval(posterior, mass)
        intervals[f"{mass:g}"] = [ci.lower, ci.upper]

    report = {
        "framework": "am",
        "released": {
            "nu_bar_noisy": released.nu_bar_noisy,
            "mechanism": released.release.mechanism,
            "sensitivity": released.release.sensitivity,
            "epsilon": released.release.epsilon_spent,
        },
        "config": {
            "M": config.M,
            "epsilon": config.eps,
            "level": config.level,
            "prior": list(config.prior),
            "grid_points": config.grid_points,
            "seed": config.seed,
            "coef": coef,
        },
        "posterior": {
            **summarize_nu_samples(posterior.samples),
            "credible_intervals": intervals,
            "samples": [float(v) for v in posterior.samples],
        },
        "provenance": _provenance(config.seed),
    }
    if inversion is not None:
        nu_ci = credible_interval(posterior, invert_mass)
        diff_ci = invert_credible_interval(nu_ci, inversion)
        report["inversion"] = {
            "l1": inversion.l1,
            "l2": inversion.l2,
            "mass": invert_mass,
            "nu_interval": [nu_ci.lower, nu_ci.upper],
            "difference_interval": [diff_ci.lower, diff_ci.upper],
        }

    debug = {
        "nu_bar": overlap.nu_bar,
        "nu_per_subset": [float(v) for v in overlap.nus],
        "interval_pairs": [
            [[c.lower, c.upper] for c in pair] for pair in overlap.ci_pairs
        ],
        "plan": json.loads(plan.to_record()),
    }
    return report, debug


def fit_summary(dataset: Dataset, model: ModelSpec, level: float = 0.95) -> dict:
    """Custodian-only whole-data fit summary; never part of a release."""
    fit = fit_ols(dataset, model)
    out = {"n_rows": dataset.n_rows, "residual_df": fit.residual_df,
           "sigma2_hat": fit.sigma2_hat, "coefficients": {}}
    for name, idx in fit.coef_index.items():
        ci = confidence_interval(fit, idx, level, degenerate="point")
        out["coefficients"][name] = {
            "estimate": fit.coef(idx),
            "stderr": fit.stderr(idx),
            "ci": [ci.lower, ci.upper],
            "level": level,
        }
    return out


def recompute_posterior_summary(report: dict) -> dict:
    """Rebuild the posterior summary of a parsed report from its stored
    samples; must reproduce the emitted summary exactly."""
    if report["framework"] == "ad":
        return summarize_r_samples(
            report["posterior"]["r_samples"], report["config"]["delta"]
        )
    if report["framework"] == "am":
        return summarize_nu_samples(report["posterior"]["samples"])
    raise ConfigError(f"unknown framework {report.get('framework')!r}")


def audit_release_report(text: str) -> list[str]:
    """Return any custodian-only field names present in serialized report
    text; an empty list means the boundary held."""
    return [name for name in FORBIDDEN_RELEASE_FIELDS if f'"{name}"' in text]


def write_json(path, payload: dict) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(os.fspath(path), encoding="utf-8") as fh:
        return json.load(fh)
