"""Random, even, disjoint partitioning of a dataset, reproducible from a seed."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .privacy import RngStream


def _block_sizes(N: int, M: int) -> np.ndarray:
    """Sizes of M blocks of N rows: the first N mod M get one extra row."""
    base, extra = divmod(N, M)
    return base + (np.arange(M) < extra)


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
        if not (1 <= self.M <= self.n_rows and 0 <= arr.min() and arr.max() < self.M
                and np.array_equal(np.bincount(arr, minlength=self.M), self.sizes)):
            raise ConfigError(
                "assignment must cut the rows into M subsets whose sizes differ "
                "by at most one, the larger ones first"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)

    @property
    def sizes(self) -> np.ndarray:
        return _block_sizes(self.n_rows, self.M)

    @cached_property
    def _order(self) -> np.ndarray:
        """Rows sorted by subset, computed once per plan.  Stable, so each
        block keeps row order; narrow keys let numpy radix-sort."""
        keys = self.assignment.astype(np.min_scalar_type(self.M - 1))
        order = np.argsort(keys, kind="stable")
        order.setflags(write=False)
        return order

    def split(self, values) -> list[np.ndarray]:
        """``values`` (indexed by row along its first axis) cut into at most
        two stacks of equally sized subset blocks, in subset order: shape
        (N mod M, ceil(N/M), ...) for the first subsets, then
        (M - N mod M, floor(N/M), ...) for the rest.  Each block keeps the
        original row order; the stacks are views of one sorted copy."""
        if len(values) != self.n_rows:
            raise ConfigError(
                f"plan covers {self.n_rows} rows but the data has {len(values)}"
            )
        ordered = np.take(values, self._order, axis=0)
        base, extra = divmod(self.n_rows, self.M)
        cut = extra * (base + 1)
        stacks = [ordered[:cut].reshape(extra, base + 1, *ordered.shape[1:]),
                  ordered[cut:].reshape(self.M - extra, base, *ordered.shape[1:])]
        return [stack for stack in stacks if len(stack)]

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
    assignment[perm] = np.repeat(np.arange(M), _block_sizes(N, M))
    return PartitionPlan(n_rows=N, M=M, seed=seed, assignment=assignment)
