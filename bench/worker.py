"""One workload in a fresh interpreter: set-up, then the closed-loop run.

Started by ``run.py``, never by hand.  The clock for set-up starts before
``dprep`` is imported, so only the standard library may be imported at
module level here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback


class Session:
    """A workload's inputs, built once, and its verification call."""

    def __init__(self, workload, work: str, tracer):
        import numpy as np
        from dprep import Dataset, build_fixed_region, parse_formula, privacy

        self.w = workload
        self.work = work
        self.dataset_build_s = None
        if workload.entry == "library":
            with np.load(os.path.join(work, "columns.npz")) as npz:
                columns = {name: npz[name] for name in npz.files}
            with tracer.span("setup.dataset") as rec:
                self.dataset = Dataset(columns)
            self.dataset_build_s = rec["end"] - rec["start"] if rec else None
            self.models = [parse_formula(f) for f in workload.models]
            self.region = build_fixed_region(*workload.region)
        if workload.seeded_ledger:
            privacy.BudgetLedger(cap=workload.budget_cap, path=self.ledger_path(0))

    def ledger_path(self, index: int) -> str:
        name = "ledger.jsonl" if self.w.seeded_ledger else f"ledger_{index}.jsonl"
        return os.path.join(self.work, name)

    def report_path(self, index: int) -> str:
        return os.path.join(self.work, f"report_{index}.json")

    def verify(self, index: int, query) -> str | None:
        """Run one verification; returns None or why it failed to run."""
        from dprep import cli, verify

        w = self.w
        out, ledger_path = self.report_path(index), self.ledger_path(index)
        try:
            if w.entry == "cli":
                rc = cli.main([
                    "ad-verify", "--input", os.path.join(self.work, "data.csv"),
                    "--schema", os.path.join(self.work, "schema.json"),
                    "--model", w.models[0], "--coef", w.coef,
                    "--region", f"{w.region[0]}:{w.region[1]}",
                    "--epsilon", str(w.epsilon), "--M", str(query.M),
                    "--seed", str(query.seed), "--budget-cap", str(w.budget_cap),
                    "--ledger", ledger_path, "--out", out,
                ])
                return None if rc == 0 else f"cli exit code {rc}"
            from dprep import ADConfig, AMConfig, am, privacy

            ledger = privacy.BudgetLedger(cap=w.budget_cap, path=ledger_path)
            if w.framework == "ad":
                config = ADConfig(M=query.M, epsilon=w.epsilon, seed=query.seed)
                report, _ = verify.ad_verify(self.dataset, self.models[0], w.coef,
                                             self.region, config, ledger)
            else:
                config = AMConfig(M=query.M, epsilon=w.epsilon, seed=query.seed)
                inversion = am.null_assumption_lengths(
                    w.invert_sigma_o, w.invert_n0, w.n_rows // query.M, config.level)
                report, _ = verify.am_verify(self.dataset, self.models[0], self.models[1],
                                             w.coef, config, ledger, inversion=inversion)
            verify.write_json(out, report)
            return None
        except Exception as exc:  # a failed verification is counted, not fatal
            traceback.print_exc()
            return f"{type(exc).__name__}: {exc}"


def file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def run_one(session, tracer, index: int, query, traced: bool) -> dict:
    ledger = session.ledger_path(index)
    before = file_size(ledger)
    tracer.verification = index if traced else None
    with tracer.rebound() if traced else contextlib.nullcontext():
        t0 = time.perf_counter()
        with tracer.span("verify") if traced else contextlib.nullcontext():
            error = session.verify(index, query)
        elapsed = time.perf_counter() - t0
    tracer.verification = None
    return {"index": index, "M": query.M, "seed": query.seed, "traced": traced,
            "elapsed": elapsed, "error": error, "ledger_before": before,
            "ledger_after": file_size(ledger)}


def check_outcome(session, tracer, outcome: dict, columns, oracle_cache: dict) -> str | None:
    """None when every output of the verification is right, else why not."""
    import check

    if outcome["error"]:
        return outcome["error"]
    w = session.w
    try:
        with open(session.report_path(outcome["index"]), encoding="utf-8") as fh:
            report = check.check_report(fh.read(), w.framework, outcome["M"], w.epsilon)
        with open(session.ledger_path(outcome["index"]), "rb") as fh:
            fh.seek(outcome["ledger_before"])
            appended = fh.read(outcome["ledger_after"] - outcome["ledger_before"])
        check.check_ledger(appended.decode("utf-8"), report, w.epsilon)
        if outcome["traced"]:
            check.check_oracle(w, columns, tracer.captured[outcome["index"]], oracle_cache)
    except (check.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="directory holding the generated inputs")
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True, help="JSON file the worker writes")
    p.add_argument("--spans", default=None, help="JSON-lines file for the trace spans")
    args = p.parse_args(argv)

    seeded = os.path.join(args.work, "ledger_seed.jsonl")
    if os.path.exists(seeded):
        shutil.copyfile(seeded, os.path.join(args.work, "ledger.jsonl"))

    t0 = time.perf_counter()
    import dprep  # noqa: F401
    import dprep.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_queries = workloads.queries(workload, args.seed)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()

    t1 = time.perf_counter()
    session = Session(workload, args.work, tracer)
    warm = run_one(session, tracer, -1, run_queries[0], traced=False)
    setup_s = import_s + time.perf_counter() - t1
    result = {"setup_s": setup_s, "import_s": import_s}
    problem = check_outcome(session, tracer, warm, None, {})
    if problem:
        print(f"warm-up verification failed: {problem}", file=sys.stderr)
        return 1
    if args.phase == "setup":
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    outcomes = []
    start = time.perf_counter()
    while True:
        i = len(outcomes)
        # alternate traced and untraced, switching phase every cycle (whose
        # length is even) so each query setting is run both ways
        traced = bool(args.trace) and (i + i // len(run_queries)) % 2 == 1
        outcomes.append(run_one(session, tracer, i, run_queries[i % len(run_queries)], traced))
        if time.perf_counter() - start >= args.seconds and (not args.trace or i >= 1):
            break
    loop_wall = time.perf_counter() - start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy as np

    with np.load(os.path.join(args.work, "columns.npz")) as npz:
        columns = {name: npz[name] for name in npz.files}
    oracle_cache: dict = {}
    for outcome in outcomes:
        outcome["failure"] = check_outcome(session, tracer, outcome, columns, oracle_cache)
        if outcome["failure"]:
            print(f"verification {outcome['index']} failed: {outcome['failure']}",
                  file=sys.stderr)

    result.update(loop_wall=loop_wall, peak_rss_kib=peak_rss_kib, outcomes=outcomes)
    if args.trace:
        traced_ids = [o["index"] for o in outcomes if o["traced"]]
        result["layers"] = tracing.layer_summary(tracer.spans, traced_ids)
        result["setup_dataset_s"] = session.dataset_build_s
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
