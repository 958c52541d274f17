"""Command-line surface for data custodians.

Exit codes: 0 success, 2 configuration or input error, 3 budget refusal,
4 singular fit (``fit`` only).  ``ad-verify`` and ``am-verify`` check their
own settings, then share one path: they check the budget before they read
the table, so with the cap spent every run is exit 3, impute a subset whose
fit fails instead of stopping, and write the report and a summary line.  The seed falls
back to the DPREP_SEED environment variable when --seed is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .ad import ADConfig
from .am import AMConfig
from .errors import BudgetExceededError, ConfigError, DprepError, SingularFitError
from .linmod import parse_formula
from .planning import (
    ConfidenceInterval,
    InversionAssumption,
    build_fixed_region,
    build_inflated_region,
    invert_credible_interval,
    null_assumption_lengths,
    reference_contour,
    robustness_contour,
)
from .privacy import BudgetLedger, count, pair, positive, real
from .tabular import read_table
from .verify import ad_verify, am_verify, fit_summary, write_json

# most values a lo:hi:count grid may hold
MAX_GRID_COUNT = 10**6


def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"cannot parse {kind.__name__} {text!r}") from None


def _numbers(text: str, kind=float) -> tuple:
    """The comma-separated numbers of ``text``; a pair setting's ``pair`` counts them."""
    return tuple(_number(part, kind) for part in text.split(","))


def _parse_grid(text: str, integer: bool = False) -> np.ndarray:
    """Grid syntax: 'lo:hi:count' (evenly spaced, count at most
    MAX_GRID_COUNT) or 'v1,v2,...' (explicit).  Every value must be finite,
    and in an integer grid an integer that a float holds exactly."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {text!r} must be lo:hi:count")
        lo, hi, count = _number(parts[0]), _number(parts[1]), _number(parts[2], int)
        if not 1 <= count <= MAX_GRID_COUNT:
            raise ConfigError(f"grid count must be in 1..{MAX_GRID_COUNT} in {text!r}")
        with np.errstate(all="ignore"):  # a span that overflows is refused below
            grid = np.linspace(lo, hi, count)
    else:
        grid = np.array([_number(v) for v in text.split(",") if v.strip()])
        if grid.size == 0:
            raise ConfigError(f"grid {text!r} is empty")
    bad = grid[~np.isfinite(grid)]
    if bad.size:
        raise ConfigError(f"grid {text!r} holds {bad[0]}, which is not finite")
    if not integer:
        return grid
    bad = grid[(np.round(grid) != grid) | (np.abs(grid) > 2**53)]
    if bad.size:
        raise ConfigError(f"grid {text!r} holds {bad[0]:g}, not an integer up to 2**53")
    return grid.astype(int)


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


def _region_of(args):
    """Parse --region without the data: returns a function of the subset
    size n that builds the region (only an inflated region needs n)."""
    spec = args.region
    if spec.startswith("inflate:"):
        alpha = _number(spec.split(":", 1)[1])
        for name in ("gamma_o", "sigma_o", "n0"):
            if getattr(args, name, None) is None:
                raise ConfigError(
                    f"--region inflate:ALPHA requires --{name.replace('_', '-')}"
                )
        # checked before the table is read; n is checked against n0 once known
        gamma_o, sigma_o = real(args.gamma_o, "gamma_hat_o"), positive(args.sigma_o, "sigma_hat_o")
        alpha, n0 = positive(alpha, "alpha"), count(args.n0, "n0")
        return lambda n: build_inflated_region(gamma_o, sigma_o, alpha, n0, n)
    if ":" not in spec:
        raise ConfigError(f"--region must be lo:hi or inflate:ALPHA, got {spec!r}")
    lo, hi = spec.split(":", 1)
    region = build_fixed_region(_number(lo), _number(hi))
    return lambda n: region


def _check_distinct_paths(args) -> None:
    """Refuse a table, schema, release report, debug payload or ledger that
    share one file, however the paths are spelled: a report written over
    the table it was computed from would destroy the custodian's data.
    Refuse too a report, debug payload or ledger in a directory that does
    not exist, whose write would fail only after the release."""
    seen = {}
    for flag, path in (("--input", args.input), ("--schema", args.schema),
                       ("--out", args.out), ("--unsafe-debug", args.unsafe_debug),
                       ("--ledger", args.ledger)):
        if path:
            resolved = os.path.realpath(path)
            clash = seen.setdefault(resolved, flag)
            if clash != flag:
                raise ConfigError(f"{flag} and {clash} name the same file {path!r}")
            if flag not in ("--input", "--schema") and not os.path.isdir(os.path.dirname(resolved)):
                raise ConfigError(f"{flag} {path!r} is in a directory that does not exist")


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
    p.add_argument("--seed", type=int, default=None,
                   help="root seed, an integer in [0, 2**64) (default: DPREP_SEED or 0)")
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
    p.add_argument("--mcmc", default="500,1000",
                   help="burn_in,keep: keep posterior draws; burn_in is unused "
                        "(default 500,1000)")
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
    p.add_argument("--out", required=True, help="contour CSV path")

    p = sub.add_parser("am-verify", help="compare two model specifications")
    _add_io_args(p, alt_model=True)
    _add_run_args(p)
    p.add_argument("--level", type=float, default=0.95, help="CI level (default 0.95)")
    p.add_argument("--grid-points", type=int, default=10001,
                   help="posterior grid points, an integer in 101..10^7 (default 10001)")
    p.add_argument("--invert", action="store_true",
                   help="also invert the overlap interval into a |beta-gamma| bound")
    p.add_argument("--invert-mass", type=float, default=0.9,
                   help="mass of the credible interval to invert, in (0, 1) (default 0.9)")
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


def _inversion_of(args):
    """Parse the inversion settings without the data: returns a function of
    the subset size n that builds the assumption (only the null assumption
    needs n)."""
    if args.l1 is not None or args.l2 is not None:
        if args.l1 is None or args.l2 is None:
            raise ConfigError("give both --l1 and --l2, or neither")
        assumption = InversionAssumption(l1=args.l1, l2=args.l2)
        return lambda n: assumption
    if args.sigma_o is None or args.n0 is None:
        raise ConfigError(
            "inversion needs --l1/--l2 or the null assumption via --sigma-o and --n0"
        )
    sigma_o, n0 = positive(args.sigma_o, "sigma_hat_o"), count(args.n0, "n0")

    def null_assumption(n):
        if n is None:
            raise ConfigError("null-assumption inversion needs the subset size --n")
        return null_assumption_lengths(sigma_o, n0, n, args.level)

    return null_assumption


def _cmd_fit(args) -> int:
    dataset = read_table(args.input, args.schema, args.delimiter)
    summary = fit_summary(dataset, parse_formula(args.model), args.level)
    print("custodian-only fit summary; not differentially private, do not release",
          file=sys.stderr)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _run_settings(args) -> dict:
    """The :class:`~dprep.privacy.RunConfig` fields of a verify command."""
    return {"M": args.M, "epsilon": args.epsilon, "prior": _numbers(args.prior),
            "seed": _resolve_seed(args)}


def _verify(args, config, run, headline) -> int:
    """What ad-verify and am-verify share once their settings are checked:
    the budget check before the table is read, ``run(dataset, ledger)``, the
    report and debug writes, and a summary line holding ``headline(report)``."""
    ledger = BudgetLedger(cap=args.budget_cap, path=args.ledger)
    ledger.check(config.eps)  # a spent cap is refused whatever the data
    dataset = read_table(args.input, args.schema, args.delimiter)
    report, debug = run(dataset, ledger)
    write_json(args.out, report)
    if args.unsafe_debug:
        write_json(args.unsafe_debug, debug)
    print(json.dumps({"out": args.out, **headline(report), "epsilon_spent": ledger.spent}))
    return 0


def _write_contour(out: str, csv: str, cells: int) -> int:
    """What ad-mselect and am-contour share: write the contour's CSV to
    ``out`` and print the path and the number of cells."""
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(csv)
    print(json.dumps({"out": out, "cells": cells}))
    return 0


def _cmd_ad_verify(args) -> int:
    _check_distinct_paths(args)
    config = ADConfig(**_run_settings(args), delta=args.delta,
                      mcmc=_numbers(args.mcmc, int))
    model = parse_formula(args.model)
    region_of = _region_of(args)
    return _verify(
        args, config,
        lambda dataset, ledger: ad_verify(dataset, model, args.coef,
                                          region_of(dataset.n_rows // args.M), config, ledger),
        lambda report: {"s_noisy": report["released"]["s_noisy"],
                        "theta_hat": report["posterior"]["theta_hat"]},
    )


def _cmd_ad_mselect(args) -> int:
    if args.region.startswith("inflate:"):
        raise ConfigError("ad-mselect targets fixed regions; give --region lo:hi")
    grid = robustness_contour(_parse_grid(args.gamma_grid), _parse_grid(args.m_grid, integer=True),
                              args.sigma_o, args.n0, args.N, args.epsilon, _region_of(args)(None))
    return _write_contour(args.out, grid.to_csv(), grid.T.size)


def _cmd_am_verify(args) -> int:
    _check_distinct_paths(args)
    config = AMConfig(**_run_settings(args), level=args.level, grid_points=args.grid_points)
    model0, model1 = parse_formula(args.model), parse_formula(args.model_alt)
    inversion_of = _inversion_of(args) if args.invert else None

    def run(dataset, ledger):
        inversion = inversion_of(dataset.n_rows // args.M) if inversion_of else None
        return am_verify(dataset, model0, model1, args.coef, config, ledger,
                         inversion=inversion, invert_mass=args.invert_mass)

    return _verify(args, config, run,
                   lambda report: {"nu_bar_noisy": report["released"]["nu_bar_noisy"]})


def _cmd_am_contour(args) -> int:
    grid = reference_contour(args.gamma, args.sigma, args.corr, _parse_grid(args.diff_grid),
                             _parse_grid(args.ratio_grid))
    return _write_contour(args.out, grid.to_csv(), grid.values.size)


def _cmd_invert(args) -> int:
    lo, hi = pair(_numbers(args.nu_ci), "--nu-ci", real)
    assumption = _inversion_of(args)(args.n)
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
        "entries": len(ledger),
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
    except SingularFitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    except (DprepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
