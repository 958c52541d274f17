"""Walkthrough: the privacy mechanics underneath both pipelines.

Shows the Laplace mechanism, reproducible noise streams, budget composition
with a hard cap, and the append-only ledger file that records every release
before any report leaves the machine.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from dprep import (
    BudgetExceededError,
    BudgetLedger,
    Laplace,
    RngStream,
    release_scalar,
)


def main():
    print("=== Laplace mechanism ===")
    stream = RngStream(2021).child("demo-noise")
    draws = Laplace(epsilon=1.0, sensitivity=1.0).sample(stream, size=200_000)
    print(f"scale-1 draws: var = {draws.var():.3f} (theory 2.0), "
          f"P(|x| > 3) = {np.mean(np.abs(draws) > 3):.4f} "
          f"(theory {math.exp(-3):.4f})")

    replay = Laplace(1.0, 1.0).sample(RngStream(2021).child("demo-noise"), size=5)
    print(f"streams replay from their path: first draws again -> {np.round(replay, 4)}")

    print("\n=== budget composition against a cap ===")
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = Path(tmp) / "ledger.ndjson"
        ledger = BudgetLedger(cap=1.0, path=ledger_path)

        r1 = release_scalar(42.0, Laplace(0.6, 1.0), ledger,
                            RngStream(1).child("release", 0))
        print(f"release 1: value {r1.value:.3f} at epsilon 0.6 -> recorded")

        try:
            release_scalar(42.0, Laplace(0.6, 1.0), ledger,
                           RngStream(1).child("release", 1))
        except BudgetExceededError as exc:
            print(f"release 2 refused before sampling any noise: {exc}")

        r3 = release_scalar(42.0, Laplace(0.4, 1.0), ledger,
                            RngStream(1).child("release", 2))
        print(f"release 3: value {r3.value:.3f} at epsilon 0.4 -> fits exactly")

        print(f"status: spent {ledger.spent}, remaining {ledger.remaining}")

        print("\nledger file (append-only, written before any report):")
        for line in ledger_path.read_text().strip().splitlines():
            print("  " + line)

    print("\n=== why subsample-and-aggregate helps ===")
    for M in (1, 25):
        # epsilon 1 on an average of M subsets: sensitivity, and scale, 1/M
        noise = Laplace(1.0, 1.0 / M).sample(RngStream(5).child("agg", M), size=100_000)
        print(f"M = {M:>2}: noise sd on an averaged statistic = {noise.std():.4f}")
    print("averaging over M subsets divides the sensitivity, and the noise, by M")


if __name__ == "__main__":
    main()
