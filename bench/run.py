"""dprep benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload ad-paper --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates the workload's inputs from ``--seed``, starts
fresh interpreters for set-up, runs a closed loop of verifications for
``--seconds`` seconds, checks every output, and prints a table of metrics
and the run's context.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a traced
run with ``--trace 1``.  The exit code is 0 only when every output was
right.  Workloads, metrics and their meaning: see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# fresh interpreters whose set-up time is measured; the last one also runs
# the timed loop
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "verify_s.p50": "s",
    "verify_s.p90": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "tabular.build_s": "s",
    "tabular.bytes": "bytes",
    "partition.make_partition_s": "s",
    "framework.fit_stage_s": "s",
    "framework.fits": "count",
    "framework.fit_us": "us",
    "privacy.ledger_open_s": "s",
    "privacy.ledger_entries": "count",
    "privacy.ledger_bytes": "bytes",
    "framework.release_s": "s",
    "framework.posterior_s": "s",
    "ad.gibbs_sweeps": "count",
    "am.grid_points": "count",
    "verify.write_json_s": "s",
    "verify.report_bytes": "bytes",
    "verify.other_s": "s",
    "verify.traced_s": "s",
    "trace.overhead_s": "s",
}


def quantiles(values: list[float], n: int) -> list[float]:
    """The n-1 cut points of ``values``, interpolated linearly between
    order statistics (the same points as numpy's default percentile)."""
    if len(values) == 1:
        return values * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def worker_env(src: str, nproc: int) -> dict:
    """Environment of the workers: ``src`` first on the path, BLAS threads
    as set by the caller but at most ``nproc``, and one when unset.

    One is the default because every BLAS call here is on a single small
    subset: a second OpenBLAS thread made the 10,000 fits of am-subsets
    1.6x slower (6.6 s against 4.1 s on 2 cores) and spins on the core
    the measurement shares with the rest of the machine.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, 1))
        except ValueError:
            wanted = 1
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def run_worker(args, work: str, phase: str, env: dict, deadline: float,
               result: str, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--work", work,
           "--phase", phase, "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result]
    if spans:
        cmd += ["--spans", spans]
    # the CLI prints one line per verification; only the worker's result
    # file and its standard error matter here
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} worker exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def context(root: str, args, env: dict, nproc: int, counts: dict) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3"):
            caches[f"L{level}" + ("" if kind == "Unified" else f"-{kind}")] = _read(f"{index}/size")
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu_model": cpu_model, "caches": caches,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
        "git_commit": commit, **counts,
    }


def end_to_end(workload, setups: list[dict], res: dict) -> dict:
    times = [o["elapsed"] for o in res["outcomes"] if not o["traced"]]
    return {
        "verify_s.p50": statistics.median(times),
        "verify_s.p90": quantiles(times, 10)[8],
        "rows_per_s": workload.n_rows * len(times) / res["loop_wall"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_kib"] / 1024.0,
    }


def per_layer(workload, setups: list[dict], res: dict) -> dict:
    layers = res["layers"]
    stage, calls, counts = layers["stage_s"], layers["calls"], layers["counts_per_verification"]
    fit_name = "ad.compute_indicator_count" if workload.framework == "ad" else "am.average_overlap"
    fits = counts[f"{fit_name}.fits"]
    traced = [o["elapsed"] for o in res["outcomes"] if o["traced"]]
    untraced = [o["elapsed"] for o in res["outcomes"] if not o["traced"]]
    build_s = calls["tabular.read_table"]["mean_s"] if workload.entry == "cli" \
        else res["setup_dataset_s"]
    return {
        "cli.import_s": statistics.median(s["import_s"] for s in setups),
        "tabular.build_s": build_s,
        "tabular.bytes": counts.get("tabular.read_table.bytes", 0),
        "partition.make_partition_s": stage["partition"],
        "framework.fit_stage_s": stage["fit"],
        "framework.fits": fits,
        "framework.fit_us": stage["fit"] / fits * 1e6,
        "privacy.ledger_open_s": stage["ledger_open"],
        "privacy.ledger_entries": counts["privacy.BudgetLedger.entries"],
        "privacy.ledger_bytes": counts["privacy.BudgetLedger.bytes"],
        "framework.release_s": stage["release"],
        "framework.posterior_s": stage["posterior"],
        "ad.gibbs_sweeps": counts.get("ad.gibbs_posterior.sweeps", 0),
        "am.grid_points": counts.get("am.posterior_nu.grid_points", 0),
        "verify.write_json_s": stage["write"],
        "verify.report_bytes": counts["verify.write_json.bytes"],
        "verify.other_s": stage["other"],
        "verify.traced_s": stage["total"],
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }


def print_table(args, metrics: dict, units: dict, res: dict, failed: int, attempted: int) -> None:
    times = [o["elapsed"] for o in res["outcomes"] if not o["traced"]]
    q1, _, q3 = quantiles(times, 4)
    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(times)} untraced verifications, quartiles {q1:.6g}..{q3:.6g} s")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':32s} {failed / attempted:>16.6g} fraction")
    if args.trace:
        layers = res["layers"]
        total = layers["stage_s"]["total"]
        print("# stage                 mean s/verification   share")
        for stage, value in sorted(layers["stage_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {stage:22s} {value:>14.6g} {value / total:>10.1%}")
        print("# span                               calls/verif   mean s/call")
        for name, c in sorted(layers["calls"].items()):
            print(f"  {name:34s} {c['calls_per_verification']:>8.3g} {c['mean_s']:>14.6g}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dprep", "__init__.py")):
        print(f"error: no dprep sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(src, nproc)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    results = os.path.join(root, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_work"))
    try:
        t0 = time.perf_counter()
        workloads.generate(workload, args.seed, work)
        generate_s = time.perf_counter() - t0
        setups = [run_worker(args, work, "setup", env, deadline,
                             os.path.join(work, f"setup{k}.json"))
                  for k in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, work, "run", env, deadline, os.path.join(work, "run.json"),
                         spans=os.path.join(results, stem + ".spans.jsonl") if args.trace else None)
        setups.append(res)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = res["outcomes"]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o["failure"])
    if args.trace:
        metrics, units = per_layer(workload, setups, res), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(workload, setups, res), END_TO_END_UNITS
    ctx = context(root, args, env, nproc, {
        "verifications": attempted,
        "traced_verifications": sum(1 for o in outcomes if o["traced"]),
        "setup_samples": len(setups), "generate_s": generate_s,
    })
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "metrics": metrics, "failed": failed,
                   "attempted": attempted, "layers": res.get("layers"),
                   "samples": [{k: o[k] for k in ("M", "traced", "elapsed", "failure")}
                               for o in outcomes]}, fh, indent=1)
    print_table(args, metrics, units, res, failed, attempted)
    print("# context " + json.dumps(ctx))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
