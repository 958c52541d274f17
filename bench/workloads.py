"""Workload definitions, seeded input generation and one verification each.

Every workload is a closed loop: one client runs one verification at a time
in one process.  The inputs are a pure function of the benchmark seed; the
program under test sees only the generated files and arrays.

* ``ad-paper``: ``dprep ad-verify`` run in-process through ``cli.main`` on a
  160,000-row CSV with a 4-level categorical, M = 1000, a fresh ledger per
  verification.  Ingest and the subset fits both weigh here.
* ``am-subsets``: library ``am_verify`` on an in-memory 160,000-row
  Dataset, M = 5000 (10,000 fits) with inversion, a fresh ledger per
  verification.  The fits are nearly all of the time; there is no ingest.
* ``query-session``: many small library ``ad_verify`` queries on an
  in-memory 20,000-row Dataset, M cycling over 25..200, each re-opening a
  file ledger that starts with 2,000 records and grows by one per query.
  The posterior and the ledger dominate; fits and ingest are small.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# distinct (M, seed) configurations a run cycles through; every one is
# checked for rank deficiency when the inputs are generated
CONFIGS_PER_M = 4
SEEDED_LEDGER_RECORDS = 2000
G_LEVELS = ("a", "b", "c", "d")
G_EFFECT = np.array([0.0, 0.5, -0.5, 1.0])
CSV_COLUMNS = ("x1", "x2", "x3", "g", "y")
# a subset design counts as safely full rank when its smallest singular
# value exceeds this share of its largest (dprep refuses below 1e-10)
RANK_MARGIN = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    framework: str  # "ad" or "am"
    entry: str  # "cli" or "library"
    n_rows: int
    Ms: tuple[int, ...]
    epsilon: float
    models: tuple[str, ...]
    coef: str = "x1"
    region: tuple[float, float] = (1.9, 2.1)
    budget_cap: float = 10.0
    seeded_ledger: bool = False
    # null-assumption inversion (am only): published se and sample size
    invert_sigma_o: float = 0.003
    invert_n0: int = 150_000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ad-paper",
            framework="ad",
            entry="cli",
            n_rows=160_000,
            Ms=(1000,),
            epsilon=1.0,
            models=("y ~ x1 + x2 + x3 + g_b + g_c + g_d",),
        ),
        Workload(
            name="am-subsets",
            framework="am",
            entry="library",
            n_rows=160_000,
            Ms=(5000,),
            epsilon=1.0,
            models=("y ~ x1 + x2 + x3", "y ~ x1 + x2"),
        ),
        Workload(
            name="query-session",
            framework="ad",
            entry="library",
            n_rows=20_000,
            Ms=(25, 50, 100, 200),
            epsilon=0.01,
            models=("y ~ x1 + x2 + x3",),
            budget_cap=1000.0,
            seeded_ledger=True,
        ),
    )
}


@dataclass(frozen=True)
class Query:
    """One verification's settings: subset count and run seed."""

    M: int
    seed: int


def queries(workload: Workload, seed: int) -> list[Query]:
    """The cycle of verification settings a run goes through, in order."""
    rng = np.random.default_rng([seed, 1])
    seeds = rng.integers(0, 2**31 - 1, size=CONFIGS_PER_M * len(workload.Ms))
    return [
        Query(M=workload.Ms[i % len(workload.Ms)], seed=int(s))
        for i, s in enumerate(seeds)
    ]


# ---------------------------------------------------------------- inputs


def synth_columns(n: int, seed: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Seeded table in the distribution of the test suite's generator.

    x1 ~ U[0, 10], x2 ~ N(5, 1), x3 ~ Bern(0.5), g uniform over four
    levels, y ~ N(2*x1 + 0.9*x2 + 3*x3 + effect(g), 3^2).  Returns the
    cells as text (six decimals, as written to the CSV) and the numeric
    Dataset columns those cells parse to, with g one-hot against level a.
    """
    rng = np.random.default_rng([seed, 0])
    x1 = rng.uniform(0.0, 10.0, n)
    x2 = rng.normal(5.0, 1.0, n)
    x3 = (rng.uniform(size=n) < 0.5).astype(float)
    g = rng.integers(0, len(G_LEVELS), n)
    y = 2.0 * x1 + 0.9 * x2 + 3.0 * x3 + G_EFFECT[g] + rng.normal(0.0, 3.0, n)
    text = {name: np.char.mod("%.6f", v) for name, v in
            (("x1", x1), ("x2", x2), ("x3", x3), ("y", y))}
    text["g"] = np.asarray(G_LEVELS)[g]
    numeric = {name: text[name].astype(float) for name in ("x1", "x2", "x3", "y")}
    for k, level in enumerate(G_LEVELS[1:], start=1):
        numeric[f"g_{level}"] = (g == k).astype(float)
    return text, numeric


def design(columns: dict[str, np.ndarray], formula: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Intercept plus the plain terms of ``y ~ a + b``; (X, y, names)."""
    lhs, rhs = (side.strip() for side in formula.split("~"))
    names = [t.strip() for t in rhs.split("+")]
    X = np.column_stack([np.ones(columns[lhs].shape[0])] + [columns[t] for t in names])
    return X, columns[lhs], ["intercept"] + names


def assert_full_rank(columns, workload: Workload, run_queries, make_partition) -> None:
    """Refuse inputs where any subset of any query is near rank deficiency,
    so that how dprep treats a singular subset cannot change the work."""
    for q in run_queries:
        plan = make_partition(workload.n_rows, q.M, q.seed)
        order = np.argsort(plan.assignment, kind="stable")
        for formula in workload.models:
            X, _, _ = design(columns, formula)
            blocks = X[order].reshape(q.M, workload.n_rows // q.M, X.shape[1])
            sv = np.linalg.svd(blocks, compute_uv=False)
            worst = float((sv[:, -1] / sv[:, 0]).min())
            if not worst > RANK_MARGIN:
                raise RuntimeError(
                    f"{workload.name}: seed gives a near-singular subset "
                    f"(M={q.M}, run seed {q.seed}, {formula!r}, ratio {worst:.3g})"
                )


def generate(workload: Workload, seed: int, work: str) -> None:
    """Write the workload's inputs for ``seed`` into the directory ``work``.

    Always ``columns.npz`` (the numeric columns, used for the in-memory
    Dataset and by the oracle); for the CLI workload the CSV and its
    schema; for the session workload a ledger of earlier releases.
    """
    from dprep import NoisyRelease, make_partition

    if any(workload.n_rows % M for M in workload.Ms):
        raise ValueError("every M must divide n_rows so subsets stack evenly")
    text, numeric = synth_columns(workload.n_rows, seed)
    assert_full_rank(numeric, workload, queries(workload, seed), make_partition)
    np.savez(os.path.join(work, "columns.npz"), **numeric)
    if workload.entry == "cli":
        with open(os.path.join(work, "data.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            fh.writelines(
                ",".join(row) + "\n" for row in zip(*(text[c] for c in CSV_COLUMNS))
            )
        with open(os.path.join(work, "schema.json"), "w", encoding="utf-8") as fh:
            json.dump({c: "categorical" if c == "g" else "numeric" for c in CSV_COLUMNS}, fh)
    if workload.seeded_ledger:
        rng = np.random.default_rng([seed, 2])
        values = rng.uniform(0.0, 200.0, SEEDED_LEDGER_RECORDS)
        with open(os.path.join(work, "ledger_seed.jsonl"), "w", encoding="utf-8") as fh:
            for i, v in enumerate(values):
                rec = NoisyRelease(value=float(v), epsilon_spent=workload.epsilon,
                                   sensitivity=1.0, mechanism="laplace",
                                   timestamp=f"2026-01-01T00:00:{i % 60:02d}+00:00")
                fh.write(rec.to_record() + "\n")
