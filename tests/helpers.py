"""Shared test fixtures: synthetic regression data and small utilities."""

from __future__ import annotations

import json

import numpy as np

from dprep import Dataset, NoisyRelease


def synth_dataset(
    n: int,
    seed: int,
    x2_coef: float = 0.9,
    noise_sd: float = 3.0,
    x2_on_x1: float = 0.0,
) -> Dataset:
    """Three-predictor generator used throughout the simulation tests.

    x1 ~ U[0, 10], x2 ~ N(5, 1) (optionally leaning on x1), x3 ~ Bern(0.5),
    y ~ N(2*x1 + x2_coef*x2 + 3*x3, noise_sd^2).
    """
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 10.0, n)
    x2 = rng.normal(5.0, 1.0, n) + x2_on_x1 * x1
    x3 = (rng.uniform(size=n) < 0.5).astype(float)
    y = 2.0 * x1 + x2_coef * x2 + 3.0 * x3 + rng.normal(0.0, noise_sd, n)
    return Dataset({"x1": x1, "x2": x2, "x3": x3, "y": y})


def replace_row(dataset: Dataset, row: int, values: dict[str, float]) -> Dataset:
    """New Dataset with one row's cells replaced."""
    columns = {}
    for name, col in dataset.columns.items():
        new = col.copy()
        if name in values:
            new[row] = values[name]
        columns[name] = new
    return Dataset(columns)


LEDGER_RECORD = NoisyRelease(value=3.0, epsilon_spent=0.5, sensitivity=1.0).to_record()
# ledger lines that are not valid release records
BAD_LEDGER_RECORDS = {
    "torn": LEDGER_RECORD[:25],
    "missing-key": json.dumps({k: v for k, v in json.loads(LEDGER_RECORD).items()
                               if k != "value"}),
    "invalid-epsilon": LEDGER_RECORD.replace('"epsilon": 0.5', '"epsilon": 0.0'),
    "not-an-object": "[0.5]",
}
