"""Random, even, disjoint partitioning of a dataset, reproducible from a seed.

A plan is one padded block matrix: a seeded permutation of the N rows, cut
into M blocks (the subsets), each sorted and padded to one width.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .privacy import RngStream, count, integer, seed


@dataclass(frozen=True)
class PartitionPlan:
    """M disjoint subsets of N rows, held as one read-only index matrix.

    Row l of ``blocks`` (M, ceil(N/M)) is subset l's rows in ascending
    order, a subset one row short ending with the pad index N.  The subsets
    cut ``permutation(n_rows)`` of the seed's "partition" stream into runs
    whose sizes differ by at most one, the remainder rows going to the
    lowest-indexed subsets.  The blocks are a pure function of the ints
    (n_rows, M, seed): plans compare and hash by them, and serialized plans
    store only them.
    """

    n_rows: int
    M: int
    seed: int
    blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, check in (("n_rows", integer), ("M", count), ("seed", seed)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.M > self.n_rows:
            raise ConfigError(
                f"M ({self.M}) may not exceed the number of rows N ({self.n_rows})"
            )
        perm = RngStream(self.seed).child("partition").generator.permutation(self.n_rows)
        base, extra = divmod(self.n_rows, self.M)
        blocks = np.full((self.M, base + (extra > 0)), self.n_rows)
        cut = extra * (base + 1)
        blocks.flat[:cut] = perm[:cut]  # the first N mod M subsets fill their rows
        blocks[extra:, :base] = perm[cut:].reshape(-1, base)
        blocks.sort(axis=1)  # the pad N sorts last
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def sizes(self) -> np.ndarray:
        """Subset sizes: the first N mod M subsets get one extra row."""
        base, extra = divmod(self.n_rows, self.M)
        return base + (np.arange(self.M) < extra)

    @cached_property
    def assignment(self) -> np.ndarray:
        """The subset of every row (read-only)."""
        assignment = np.empty(self.n_rows + 1, dtype=np.intp)  # the last is the pad's
        assignment[self.blocks] = np.arange(self.M)[:, None]
        assignment.setflags(write=False)
        return assignment[:-1]

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
