"""End-to-end verification runs and release-report assembly.

Both frameworks run one pipeline: partition, per-subset statistic, one
:func:`~dprep.privacy.release_run`, posterior, report.  :func:`_report`
builds the report sections both share; each verify function adds its own
config echo and provenance, and AM its ``inversion`` block.

This layer owns the privacy boundary.  A release report contains only the
noised scalar, a configuration echo, posterior summaries (AM's read off
the grid CDF, with no draws), and provenance; raw subset statistics (the
true count, per-subset indicators, coefficients, overlaps, interval pairs)
live in a separate custodian-only debug payload that is written nowhere
unless explicitly requested.  The payload keeps its per-subset values as
numpy arrays; :func:`write_json` turns them into lists only when written.

Ledger appends happen inside the release step, before any report is
assembled or written: an unrecorded release would be a privacy accounting
failure, while a recorded-but-unemitted one spends budget for nothing.
Every run setting, and the directory of each CLI output path, is checked
before the release, so only a write that fails itself (a full disk, say)
can leave one.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ad import (
    ADConfig,
    compute_indicator_count,
    gibbs_posterior,
    release_count,
    theta_hat,
)
from .am import (
    AMConfig,
    AMPosterior,
    average_overlap,
    credible_interval,
    posterior_nu,
    release_overlap,
)
from .errors import ConfigError, TransformDomainError
from .linmod import ModelSpec, confidence_interval, fit_ols
from .partition import make_partition
from .planning import (
    InversionAssumption,
    ToleranceRegion,
    delta_star,
    invert_credible_interval,
)
from .privacy import BudgetLedger, NoisyRelease, Released, fraction
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
    "interval_pairs",
)

QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)


def _provenance(seed: int) -> dict:
    return {"seed": seed, "timestamp": datetime.now(timezone.utc).isoformat(),
            "engine_version": __version__}


def _quantiles(values) -> dict[str, float]:
    """``values``, the quantiles at QUANTILE_PROBS in order, keyed by probability."""
    return {f"{p:g}": float(q) for p, q in zip(QUANTILE_PROBS, values)}


def summarize_r_samples(r_samples, delta: float) -> dict:
    """Posterior summary recomputable from the stored samples alone."""
    samples = np.asarray(r_samples, dtype=float)
    return {"theta_hat": theta_hat(samples, delta),
            "r_quantiles": _quantiles(np.quantile(samples, QUANTILE_PROBS))}


def summarize_nu_samples(posterior: AMPosterior, level: float) -> dict:
    """An AM report's ``posterior`` section, read off the grid CDF: the mean,
    the quantiles and the credible intervals of mass 0.9 and ``level``, keyed
    by ``repr(mass)``.  The name stays until ``bench/`` stops binding it."""
    intervals = {}
    for mass in sorted({0.9, float(level)}):
        ci = credible_interval(posterior, mass)
        intervals[repr(mass)] = [ci.lower, ci.upper]
    return {"mean": posterior.mean, "quantiles": _quantiles(posterior.quantile(QUANTILE_PROBS)),
            "credible_intervals": intervals}


def _report(framework: str, noisy_key: str, released: Released, echo: dict,
            posterior: dict) -> dict:
    """The sections both frameworks' reports share: the release, with its
    value under ``noisy_key``; the run settings every config holds, plus
    ``echo``, the framework's own; and the ``posterior`` summary."""
    config, release = released.config, released.release
    return {
        "framework": framework,
        "released": {noisy_key: release.value, "mechanism": release.mechanism,
                     "sensitivity": release.sensitivity, "epsilon": release.epsilon_spent},
        "config": {"M": config.M, "epsilon": config.epsilon, "prior": list(config.prior),
                   "seed": config.seed, **echo},
        "posterior": posterior,
    }


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
        **_report("ad", "s_noisy", released, {
            "delta": delta, "mcmc": list(config.mcmc), "coef": str(coef),
            "region": {"lower": region.lower, "upper": region.upper, "kind": region.kind},
        }, {
            **summarize_r_samples(posterior.r_samples, delta),
            "r_samples": [float(v) for v in posterior.r_samples],
        }),
        "provenance": _provenance(config.seed),
    }
    debug = {
        "true_count": indicators.S,
        "indicators": indicators.W,
        "subset_estimates": indicators.estimates,
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
    interval at ``invert_mass``, which is checked before any budget is spent.
    """
    if inversion is not None:
        invert_mass = fraction(invert_mass, "mass")
    plan = make_partition(dataset.n_rows, config.M, config.seed)
    overlap = average_overlap(dataset, model0, model1, coef, plan, config.level)
    released = release_overlap(overlap, config, ledger)
    posterior = posterior_nu(released)

    report = {
        **_report("am", "nu_bar_noisy", released, {
            "level": config.level, "grid_points": config.grid_points, "coef": coef,
        }, summarize_nu_samples(posterior, config.level)),
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

    # subset l, model m -> [lower, upper]
    pairs = np.stack((overlap.lower, overlap.upper), axis=-1).transpose(1, 0, 2)
    debug = {
        "nu_bar": overlap.nu_bar,
        "nu_per_subset": overlap.nus,
        "interval_pairs": pairs,
        "plan": json.loads(plan.to_record()),
    }
    return report, debug


def fit_summary(dataset: Dataset, model: ModelSpec, level: float = 0.95) -> dict:
    """Custodian-only whole-data fit summary; never part of a release.
    Raises TransformDomainError when a number overflowed (JSON has no inf)."""
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
    for label, value in [("sigma2_hat", fit.sigma2_hat)] + [
            (f"{key} of {name!r}", v) for name, c in out["coefficients"].items() for key, v in c.items()]:
        if not np.all(np.isfinite(value)):
            raise TransformDomainError(f"the fit's {label} is not finite: an overflow")
    return out


def recompute_posterior_summary(report: dict) -> dict:
    """Rebuild the posterior summary of a parsed report, AD's from its draws
    and AM's from its release and settings; must reproduce it exactly."""
    if report["framework"] == "ad":
        return summarize_r_samples(report["posterior"]["r_samples"], report["config"]["delta"])
    if report["framework"] != "am":
        raise ConfigError(f"unknown framework {report.get('framework')!r}")
    posterior, config = report["posterior"], report["config"]
    if "samples" in posterior:  # an AM report written when it summarised draws
        samples = np.asarray(posterior["samples"], dtype=float)
        return {"mean": float(samples.mean()),
                "quantiles": _quantiles(np.quantile(samples, QUANTILE_PROBS))}
    released = report["released"]
    am_config = AMConfig(**{key: config[key] for key in
                            ("M", "epsilon", "prior", "seed", "level", "grid_points")})
    release = NoisyRelease(value=released["nu_bar_noisy"], epsilon_spent=released["epsilon"],
                           sensitivity=released["sensitivity"], mechanism=released["mechanism"])
    return summarize_nu_samples(posterior_nu(Released(am_config, release)), am_config.level)


def audit_release_report(text: str) -> list[str]:
    """Return any custodian-only field names present in serialized report
    text; an empty list means the boundary held."""
    return [name for name in FORBIDDEN_RELEASE_FIELDS if f'"{name}"' in text]


def _array_to_list(value):
    """``json.dumps``' hook for the numpy arrays of a debug payload."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys; numpy arrays
    (a debug payload keeps its per-subset values as arrays) become lists.
    The text is built before the file is opened and written in one call,
    so a payload that does not serialize leaves no file."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_array_to_list)
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
