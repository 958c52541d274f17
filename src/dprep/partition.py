"""Random, even, disjoint partitioning of a dataset, reproducible from a seed.

A plan is one row order: a seeded permutation of the N rows, cut into M
consecutive blocks (the subsets) and sorted within each block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .privacy import RngStream


@dataclass(frozen=True)
class PartitionPlan:
    """M disjoint subsets of N rows, held as one read-only row order.

    ``order`` lists subset 0's rows, then subset 1's, and so on, each block
    in ascending row order.  It is ``permutation(n_rows)`` of the seed's
    "partition" stream, cut into blocks whose sizes differ by at most one,
    the remainder rows going to the lowest-indexed subsets.  The order is
    a pure function of (n_rows, M, seed): plans compare and hash by those
    three values, and serialized plans store only them.
    """

    n_rows: int
    M: int
    seed: int
    order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError(f"M must be at least 1, got {self.M}")
        if self.M > self.n_rows:
            raise ConfigError(
                f"M ({self.M}) may not exceed the number of rows N ({self.n_rows})"
            )
        order = RngStream(self.seed).child("partition").generator.permutation(self.n_rows)
        for stack in self._cut(order):
            stack.sort(axis=1)  # in place: the stacks are views of order
        order.setflags(write=False)
        object.__setattr__(self, "order", order)

    @property
    def sizes(self) -> np.ndarray:
        """Subset sizes: the first N mod M subsets get one extra row."""
        base, extra = divmod(self.n_rows, self.M)
        return base + (np.arange(self.M) < extra)

    @cached_property
    def assignment(self) -> np.ndarray:
        """The subset of every row (read-only)."""
        assignment = np.empty(self.n_rows, dtype=np.intp)
        assignment[self.order] = np.repeat(np.arange(self.M), self.sizes)
        assignment.setflags(write=False)
        return assignment

    def _cut(self, ordered: np.ndarray) -> list[np.ndarray]:
        """``ordered`` (rows in plan order along its first axis) reshaped into
        at most two stacks of equally sized blocks: (N mod M, ceil(N/M), ...)
        for the first subsets, then (M - N mod M, floor(N/M), ...)."""
        base, extra = divmod(self.n_rows, self.M)
        cut = extra * (base + 1)
        stacks = [ordered[:cut].reshape(extra, base + 1, *ordered.shape[1:]),
                  ordered[cut:].reshape(self.M - extra, base, *ordered.shape[1:])]
        return [stack for stack in stacks if len(stack)]

    def split(self, values) -> list[np.ndarray]:
        """``values`` (indexed by row along its first axis) cut into the
        plan's subset blocks, stacked as in ``_cut``.  Each block keeps the
        original row order; the stacks are views of one gathered copy."""
        if len(values) != self.n_rows:
            raise ConfigError(
                f"plan covers {self.n_rows} rows but the data has {len(values)}"
            )
        return self._cut(np.take(values, self.order, axis=0))

    def to_record(self) -> str:
        return json.dumps({"n_rows": self.n_rows, "M": self.M, "seed": self.seed})

    @classmethod
    def from_record(cls, record: str) -> "PartitionPlan":
        rec = json.loads(record)
        return cls(rec["n_rows"], rec["M"], rec["seed"])


def make_partition(N: int, M: int, seed: int) -> PartitionPlan:
    """The plan that cuts N rows into M subsets for ``seed``; deterministic
    for a given (N, M, seed)."""
    return PartitionPlan(N, M, seed)
