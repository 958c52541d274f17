"""Random, even, disjoint partitioning of a dataset, reproducible from a seed."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .privacy import RngStream


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of every row to one of M subsets.

    Subset sizes differ by at most one; the remainder rows go to the
    lowest-indexed subsets.  The assignment is a pure function of
    (n_rows, M, seed), so serialized plans store only those three values.
    """

    n_rows: int
    M: int
    seed: int
    assignment: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=np.intp).copy()
        if arr.shape != (self.n_rows,):
            raise ConfigError("assignment length must equal n_rows")
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.M)

    def split(self, values) -> list[np.ndarray]:
        """The M row blocks of ``values`` (indexed by row along its first
        axis), subset l at position l, each in original row order."""
        if len(values) != self.n_rows:
            raise ConfigError(
                f"plan covers {self.n_rows} rows but the data has {len(values)}"
            )
        # stable, so each block keeps row order; narrow keys let numpy radix-sort
        keys = self.assignment.astype(np.min_scalar_type(self.M - 1))
        order = np.argsort(keys, kind="stable")
        return np.split(values[order], np.cumsum(self.sizes)[:-1])

    def to_record(self) -> str:
        return json.dumps({"n_rows": self.n_rows, "M": self.M, "seed": self.seed})

    @classmethod
    def from_record(cls, record: str) -> "PartitionPlan":
        rec = json.loads(record)
        return make_partition(rec["n_rows"], rec["M"], rec["seed"])


def make_partition(N: int, M: int, seed: int) -> PartitionPlan:
    """Cut a uniformly random permutation of N rows into M blocks.

    The first N mod M blocks receive one extra row.  Deterministic for a
    given (N, M, seed).
    """
    if M < 1:
        raise ConfigError(f"M must be at least 1, got {M}")
    if M > N:
        raise ConfigError(f"M ({M}) may not exceed the number of rows N ({N})")
    perm = RngStream(seed).child("partition").generator.permutation(N)
    assignment = np.empty(N, dtype=np.intp)
    base, extra = divmod(N, M)
    assignment[perm] = np.repeat(np.arange(M), base + (np.arange(M) < extra))
    return PartitionPlan(n_rows=N, M=M, seed=seed, assignment=assignment)
