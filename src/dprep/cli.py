"""Command-line surface for data custodians.

Exit codes: 0 success, 2 configuration or input error, 3 budget refusal,
4 singular or degenerate fit.  The seed falls back to the DPREP_SEED
environment variable when --seed is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .ad import ADConfig, build_fixed_region, build_inflated_region, robustness_contour
from .am import (
    AMConfig,
    InversionAssumption,
    invert_credible_interval,
    null_assumption_lengths,
    reference_contour,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DegenerateIntervalError,
    DprepError,
    SingularFitError,
)
from .linmod import ConfidenceInterval, parse_formula
from .privacy import BudgetLedger
from .tabular import read_table
from .verify import ad_verify, am_verify, fit_summary, write_json


def _float_inf(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse number {text!r}") from None


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated numbers, got {text!r}")
    return _float_inf(parts[0]), _float_inf(parts[1])


def _parse_grid(text: str, integer: bool = False) -> np.ndarray:
    """Grid syntax: 'lo:hi:count' (evenly spaced) or 'v1,v2,...' (explicit)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {text!r} must be lo:hi:count")
        lo, hi, count = _float_inf(parts[0]), _float_inf(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError(f"grid count must be positive in {text!r}")
        grid = np.linspace(lo, hi, count)
    else:
        grid = np.array([_float_inf(v) for v in text.split(",") if v.strip()])
        if grid.size == 0:
            raise ConfigError(f"grid {text!r} is empty")
    return np.round(grid).astype(int) if integer else grid


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DPREP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"DPREP_SEED must be an integer, got {env!r}") from None
    return 0


def _build_region(args, n_subset: int | None):
    spec = args.region
    if spec.startswith("inflate:"):
        alpha = _float_inf(spec.split(":", 1)[1])
        for name in ("gamma_o", "sigma_o", "n0"):
            if getattr(args, name, None) is None:
                raise ConfigError(
                    f"--region inflate:ALPHA requires --{name.replace('_', '-')}"
                )
        if n_subset is None:
            raise ConfigError("inflated regions need a dataset and M to fix the subset size")
        return build_inflated_region(args.gamma_o, args.sigma_o, alpha, args.n0, n_subset)
    if ":" not in spec:
        raise ConfigError(f"--region must be lo:hi or inflate:ALPHA, got {spec!r}")
    lo, hi = spec.split(":", 1)
    return build_fixed_region(_float_inf(lo), _float_inf(hi))


def _check_out_paths(args) -> None:
    if getattr(args, "unsafe_debug", None) and args.unsafe_debug == args.out:
        raise ConfigError("--unsafe-debug path must differ from the release --out path")


def _add_io_args(p, alt_model: bool = False):
    p.add_argument("--input", required=True, help="delimited text table with a header row")
    p.add_argument("--schema", required=True, help="JSON file of column kinds")
    p.add_argument("--delimiter", default=",", help="field delimiter (default comma)")
    p.add_argument("--model", required=True, help="formula: response ~ term + term")
    if alt_model:
        p.add_argument("--model-alt", required=True, help="alternative model formula")


def _add_run_args(p):
    p.add_argument("--coef", required=True, help="term name of the coefficient of interest")
    p.add_argument("--epsilon", type=float, required=True, help="privacy budget per release")
    p.add_argument("--M", type=int, required=True, help="number of subsets")
    p.add_argument("--prior", default="1,1", help="Beta prior a,b (default 1,1)")
    p.add_argument("--seed", type=int, default=None, help="root seed (default: DPREP_SEED or 0)")
    p.add_argument("--ledger", required=True, help="append-only budget ledger file")
    p.add_argument("--out", required=True, help="release report JSON path")
    p.add_argument("--unsafe-debug", default=None, metavar="PATH",
                   help="also write custodian-only diagnostics to PATH (never share)")
    p.add_argument("--budget-cap", type=float, default=None,
                   help="total epsilon cap enforced by the ledger")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dprep",
        description="Differentially private replication analysis of regression effect sizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="custodian-only whole-data fit summary (never released)")
    _add_io_args(p)
    p.add_argument("--level", type=float, default=0.95)

    p = sub.add_parser("ad-verify", help="verify a published coefficient against new data")
    _add_io_args(p)
    _add_run_args(p)
    p.add_argument("--region", required=True,
                   help="tolerance region lo:hi (inf allowed) or inflate:ALPHA")
    p.add_argument("--delta", type=float, default=None,
                   help="degree of certainty (default 0.5 fixed, 0.9*delta_star inflated)")
    p.add_argument("--mcmc", default="500,1000", help="burn_in,keep (default 500,1000)")
    p.add_argument("--gamma-o", type=float, default=None, help="published coefficient")
    p.add_argument("--sigma-o", type=float, default=None, help="published standard error")
    p.add_argument("--n0", type=int, default=None, help="original-study sample size")

    p = sub.add_parser("ad-mselect",
                       help="robustness contour for choosing M (no data, no budget)")
    p.add_argument("--gamma-grid", required=True, help="grid lo:hi:count or v1,v2,...")
    p.add_argument("--m-grid", required=True, help="grid of subset counts")
    p.add_argument("--sigma-o", type=float, required=True, help="published standard error")
    p.add_argument("--n0", type=int, required=True, help="original-study sample size")
    p.add_argument("--N", type=int, required=True, help="replication data sample size")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--region", required=True, help="fixed tolerance region lo:hi")
    p.add_argument("--K", type=int, default=750, help="replications per cell (default 750)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="contour CSV path")

    p = sub.add_parser("am-verify", help="compare two model specifications")
    _add_io_args(p, alt_model=True)
    _add_run_args(p)
    p.add_argument("--level", type=float, default=0.95, help="CI level (default 0.95)")
    p.add_argument("--grid-points", type=int, default=10001)
    p.add_argument("--invert", action="store_true",
                   help="also invert the overlap interval into a |beta-gamma| bound")
    p.add_argument("--invert-mass", type=float, default=0.9)
    p.add_argument("--l1", type=float, default=None, help="assumed wider CI length")
    p.add_argument("--l2", type=float, default=None, help="assumed narrower CI length")
    p.add_argument("--sigma-o", type=float, default=None,
                   help="published standard error (null-assumption inversion)")
    p.add_argument("--n0", type=int, default=None, help="original-study sample size")

    p = sub.add_parser("am-contour", help="reference contour of mean overlap (no budget)")
    p.add_argument("--gamma", type=float, required=True, help="published coefficient")
    p.add_argument("--sigma", type=float, required=True, help="subset-scale standard error")
    p.add_argument("--corr", type=float, default=0.95,
                   help="assumed corr of the two estimators (default 0.95, never estimated)")
    p.add_argument("--diff-grid", required=True, help="relative-difference grid")
    p.add_argument("--ratio-grid", required=True, help="sd-ratio grid")
    p.add_argument("--K", type=int, default=500, help="draws per cell (default 500)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="contour CSV path")

    p = sub.add_parser("invert", help="map an overlap credible interval to |beta-gamma|")
    p.add_argument("--nu-ci", required=True, help="overlap interval lo,hi")
    p.add_argument("--mass", type=float, default=0.9)
    p.add_argument("--l1", type=float, default=None)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--sigma-o", type=float, default=None)
    p.add_argument("--n0", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="subset sample size")
    p.add_argument("--level", type=float, default=0.95)

    p = sub.add_parser("budget-status", help="summarize ledger spending")
    p.add_argument("--ledger", required=True)
    p.add_argument("--budget-cap", type=float, default=None)

    return parser


def _inversion_from_args(args, n_subset: int | None) -> InversionAssumption:
    if args.l1 is not None or args.l2 is not None:
        if args.l1 is None or args.l2 is None:
            raise ConfigError("give both --l1 and --l2, or neither")
        return InversionAssumption(l1=args.l1, l2=args.l2)
    if args.sigma_o is None or args.n0 is None:
        raise ConfigError(
            "inversion needs --l1/--l2 or the null assumption via --sigma-o and --n0"
        )
    n = n_subset if n_subset is not None else getattr(args, "n", None)
    if n is None:
        raise ConfigError("null-assumption inversion needs the subset size --n")
    return null_assumption_lengths(args.sigma_o, args.n0, n, getattr(args, "level", 0.95))


def _cmd_fit(args) -> int:
    dataset = read_table(args.input, args.schema, args.delimiter)
    summary = fit_summary(dataset, parse_formula(args.model), args.level)
    print("custodian-only fit summary; not differentially private, do not release",
          file=sys.stderr)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_ad_verify(args) -> int:
    _check_out_paths(args)
    dataset = read_table(args.input, args.schema, args.delimiter)
    seed = _resolve_seed(args)
    burn_in, keep = (int(v) for v in args.mcmc.split(","))
    config = ADConfig(
        M=args.M,
        epsilon=args.epsilon,
        delta=args.delta,
        prior=_parse_pair(args.prior, "--prior"),
        mcmc=(burn_in, keep),
        seed=seed,
    )
    region = _build_region(args, dataset.n_rows // args.M)
    ledger = BudgetLedger(cap=args.budget_cap, path=args.ledger)
    report, debug = ad_verify(dataset, parse_formula(args.model), args.coef,
                              region, config, ledger)
    write_json(args.out, report)
    if args.unsafe_debug:
        write_json(args.unsafe_debug, debug)
    print(json.dumps({
        "out": args.out,
        "s_noisy": report["released"]["s_noisy"],
        "theta_hat": report["posterior"]["theta_hat"],
        "epsilon_spent": ledger.spent,
    }))
    return 0


def _cmd_ad_mselect(args) -> int:
    if args.region.startswith("inflate:"):
        raise ConfigError("ad-mselect targets fixed regions; give --region lo:hi")
    region = _build_region(args, None)
    grid = robustness_contour(
        gamma_grid=_parse_grid(args.gamma_grid),
        M_grid=_parse_grid(args.m_grid, integer=True),
        sigma_hat_o=args.sigma_o,
        n0=args.n0,
        N=args.N,
        epsilon=args.epsilon,
        region=region,
        K=args.K,
        seed=_resolve_seed(args),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(grid.to_csv())
    print(json.dumps({"out": args.out, "cells": int(grid.T.size)}))
    return 0


def _cmd_am_verify(args) -> int:
    _check_out_paths(args)
    dataset = read_table(args.input, args.schema, args.delimiter)
    seed = _resolve_seed(args)
    config = AMConfig(
        M=args.M,
        epsilon=args.epsilon,
        level=args.level,
        prior=_parse_pair(args.prior, "--prior"),
        grid_points=args.grid_points,
        seed=seed,
    )
    inversion = None
    if args.invert:
        inversion = _inversion_from_args(args, dataset.n_rows // args.M)
    ledger = BudgetLedger(cap=args.budget_cap, path=args.ledger)
    report, debug = am_verify(
        dataset,
        parse_formula(args.model),
        parse_formula(args.model_alt),
        args.coef,
        config,
        ledger,
        inversion=inversion,
        invert_mass=args.invert_mass,
    )
    write_json(args.out, report)
    if args.unsafe_debug:
        write_json(args.unsafe_debug, debug)
    print(json.dumps({
        "out": args.out,
        "nu_bar_noisy": report["released"]["nu_bar_noisy"],
        "epsilon_spent": ledger.spent,
    }))
    return 0


def _cmd_am_contour(args) -> int:
    grid = reference_contour(
        gamma=args.gamma,
        sigma_gamma=args.sigma,
        corr=args.corr,
        diff_grid=_parse_grid(args.diff_grid),
        ratio_grid=_parse_grid(args.ratio_grid),
        K=args.K,
        seed=_resolve_seed(args),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(grid.to_csv())
    print(json.dumps({"out": args.out, "cells": int(grid.values.size)}))
    return 0


def _cmd_invert(args) -> int:
    lo, hi = _parse_pair(args.nu_ci, "--nu-ci")
    assumption = _inversion_from_args(args, None)
    nu_ci = ConfidenceInterval(lo, hi, level=args.mass)
    diff = invert_credible_interval(nu_ci, assumption)
    print(json.dumps({
        "nu_interval": [nu_ci.lower, nu_ci.upper],
        "mass": args.mass,
        "l1": assumption.l1,
        "l2": assumption.l2,
        "difference_interval": [diff.lower, diff.upper],
    }, indent=2))
    return 0


def _cmd_budget_status(args) -> int:
    if not os.path.exists(args.ledger):
        raise ConfigError(f"no ledger file at {args.ledger}")
    ledger = BudgetLedger(cap=args.budget_cap, path=args.ledger)
    print(json.dumps({
        "ledger": args.ledger,
        "entries": len(ledger.entries),
        "epsilon_spent": ledger.spent,
        "cap": ledger.cap,
        "remaining": ledger.remaining,
    }, indent=2))
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "ad-verify": _cmd_ad_verify,
    "ad-mselect": _cmd_ad_mselect,
    "am-verify": _cmd_am_verify,
    "am-contour": _cmd_am_contour,
    "invert": _cmd_invert,
    "budget-status": _cmd_budget_status,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (SingularFitError, DegenerateIntervalError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    except (DprepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
