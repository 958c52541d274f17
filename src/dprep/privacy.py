"""Laplace mechanism, privacy-budget ledger, and seeded random streams.

Every stochastic component of the package draws from an :class:`RngStream`
so that a whole run is reproducible from one root seed while independent
sub-streams can be handed to parallel work (contour cells, repeated
verifications) without any shared state.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import BudgetExceededError, ConfigError, LedgerCorruptError


class UncappedBudgetWarning(UserWarning):
    """Emitted on every release made against a ledger without a cap."""


def _label_key(label: str) -> int:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RngStream:
    """Path-keyed random stream.

    A stream is identified by ``(root_seed, path)`` where the path is a
    sequence of ``(purpose label, index)`` pairs.  Two streams built from
    the same identity replay the same draw sequence; streams whose paths
    differ anywhere are statistically independent.  Deriving children is
    cheap, so one root seed can fan out to every component of a run.
    """

    def __init__(self, root_seed: int, path: tuple = ()):
        self.root_seed = int(root_seed)
        self.path = tuple((str(label), int(index)) for label, index in path)
        entropy = [self.root_seed & 0xFFFFFFFFFFFFFFFF]
        for label, index in self.path:
            entropy.extend((_label_key(label), index))
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def child(self, label: str, index: int = 0) -> "RngStream":
        """Derive an independent stream for the given purpose."""
        return RngStream(self.root_seed, self.path + ((label, index),))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform_open(self, size=None):
        """Uniforms on the open interval (0, 1), one 64-bit draw per variate.

        The top 53 bits of each 64-bit integer are kept and offset by half
        a step, so 0.0 and 1.0 are unreachable and the number of underlying
        draws per variate is exactly one.
        """
        raw = self._gen.integers(0, 2**64, size=size, dtype=np.uint64)
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) / float(2**53)

    def __repr__(self):
        return f"RngStream(root_seed={self.root_seed}, path={self.path!r})"


def laplace_sample(stream: RngStream, scale: float, size=None):
    """Draw from Laplace(0, scale) by inverse CDF.

    Parameters
    ----------
    stream : RngStream
        Source of uniforms; exactly one 64-bit draw is consumed per variate.
    scale : float
        Laplace scale b of the density (1/2b) exp(-|x|/b); must be positive.
    size : int or tuple, optional
        Shape of the output; a scalar float is returned when omitted.
    """
    if not scale > 0:
        raise ConfigError(f"Laplace scale must be positive, got {scale}")
    u = stream.uniform_open(size)
    t = u - 0.5
    out = -scale * np.sign(t) * np.log1p(-2.0 * np.abs(t))
    return float(out) if size is None else out


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget spent per release."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class NoisyRelease:
    """One value that has crossed the privacy boundary."""

    value: float
    epsilon_spent: float
    sensitivity: float
    mechanism: str = "laplace"
    timestamp: str = ""

    def __post_init__(self):
        value = self.value
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not -math.inf < value < math.inf:
            raise ConfigError(f"value must be a finite number, got {value!r}")
        if not 0 < self.epsilon_spent < math.inf:
            raise ConfigError("epsilon_spent must be positive and finite")
        if not 0 < self.sensitivity < math.inf:
            raise ConfigError("sensitivity must be positive and finite")
        if not (isinstance(self.mechanism, str) and isinstance(self.timestamp, str)):
            raise ConfigError("mechanism and timestamp must be strings")
        try:  # an int too large for a float would overflow the ledger's sum
            object.__setattr__(self, "value", float(value))
            object.__setattr__(self, "epsilon_spent", float(self.epsilon_spent))
            object.__setattr__(self, "sensitivity", float(self.sensitivity))
        except OverflowError:
            raise ConfigError(
                "value, epsilon_spent and sensitivity must fit in a float"
            ) from None

    def to_record(self) -> str:
        return json.dumps(
            {
                "timestamp": self.timestamp,
                "mechanism": self.mechanism,
                "sensitivity": self.sensitivity,
                "epsilon": self.epsilon_spent,
                "value": self.value,
            }
        )

    @classmethod
    def from_record(cls, line: str) -> "NoisyRelease":
        rec = json.loads(line)
        return cls(
            value=rec["value"],
            epsilon_spent=rec["epsilon"],
            sensitivity=rec["sensitivity"],
            mechanism=rec["mechanism"],
            timestamp=rec["timestamp"],
        )


def _read_records(fh, path: str):
    """Yield the records of an open ledger file.  A line that is not a valid
    record (a torn write, a missing field) raises LedgerCorruptError naming
    ``path:line``: skipping it would understate the budget spent.

    The file is opened with ``errors="replace"``; records are written as
    ASCII-only JSON, so a U+FFFD in a line marks bytes that are not UTF-8.
    """
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            if "\ufffd" in line:
                raise ValueError("bytes that are not UTF-8")
            entry = NoisyRelease.from_record(line)
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise LedgerCorruptError(
                f"{path}:{lineno}: unreadable ledger record ({exc!r})"
            ) from exc
        yield entry


class BudgetLedger:
    """Append-only record of privacy spending.

    There is no mutation API: entries can only be appended, and the public
    view is an immutable tuple.  When ``path`` is given, entries are loaded
    from the newline-delimited record file at construction and every
    accepted release is written through to it (under an advisory lock)
    before control returns, so a crash after sampling can never leave an
    unledgered release on disk next to a report.
    """

    def __init__(self, cap: float | None = None, path=None):
        if cap is not None and not cap > 0:
            raise ConfigError(f"budget cap must be positive, got {cap}")
        self.cap = cap
        self.path = os.fspath(path) if path is not None else None
        self._entries: list[NoisyRelease] = []
        self._spent = 0.0
        if self.path is not None and os.path.exists(self.path):
            with open(self.path, encoding="utf-8", errors="replace") as fh:
                self._entries = list(_read_records(fh, self.path))
            for entry in self._entries:
                self._spent += entry.epsilon_spent
        if self.cap is not None and self.spent > self.cap + 1e-9:
            raise BudgetExceededError(
                f"ledger already holds {self.spent} of budget, above cap {self.cap}"
            )

    @property
    def entries(self) -> tuple:
        return tuple(self._entries)

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float | None:
        return None if self.cap is None else self.cap - self.spent

    def check(self, epsilon: float) -> None:
        """Raise BudgetExceededError if spending epsilon would pass the cap."""
        if self.cap is not None and self.spent + epsilon > self.cap + 1e-9:
            raise BudgetExceededError(
                f"release of epsilon={epsilon} refused: "
                f"{self.spent} of cap {self.cap} already spent"
            )

    def append(self, release: NoisyRelease) -> None:
        self.check(release.epsilon_spent)
        if self.path is not None:
            # the file is the source of truth across processes: recheck the
            # cap against its contents while holding the lock
            with open(self.path, "a+", encoding="utf-8", errors="replace") as fh:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                try:
                    fh.seek(0)
                    on_disk = sum(e.epsilon_spent for e in _read_records(fh, self.path))
                    if self.cap is not None and \
                            on_disk + release.epsilon_spent > self.cap + 1e-9:
                        raise BudgetExceededError(
                            f"release of epsilon={release.epsilon_spent} refused: "
                            f"ledger file already holds {on_disk} of cap {self.cap}"
                        )
                    fh.seek(0, os.SEEK_END)
                    fh.write(release.to_record() + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                finally:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        self._entries.append(release)
        self._spent += release.epsilon_spent


def release_scalar(
    true_value: float,
    sensitivity: float,
    params: PrivacyParams,
    ledger: BudgetLedger,
    stream: RngStream,
) -> NoisyRelease:
    """Release ``true_value`` plus Laplace(0, sensitivity/epsilon) noise.

    ``sensitivity`` bounds the change of ``true_value`` between neighbouring
    datasets: datasets that differ by substituting one row, N being public.

    The budget check runs before any noise is sampled; a refused release
    consumes neither budget nor randomness.  The returned value is never
    clamped or rounded — consumers must expect releases outside the range
    of the underlying statistic.
    """
    if not sensitivity > 0:
        raise ConfigError(f"sensitivity must be positive, got {sensitivity}")
    ledger.check(params.epsilon)
    if ledger.cap is None:
        warnings.warn(
            "releasing against a ledger with no budget cap; "
            "total privacy loss is unbounded",
            UncappedBudgetWarning,
            stacklevel=2,
        )
    noise = laplace_sample(stream, sensitivity / params.epsilon)
    release = NoisyRelease(
        value=true_value + noise,
        epsilon_spent=params.epsilon,
        sensitivity=sensitivity,
        mechanism="laplace",
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    ledger.append(release)
    return release
