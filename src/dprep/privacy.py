"""Laplace mechanism, privacy-budget ledger, and seeded random streams.

Every stochastic component of the package draws from an :class:`RngStream`
so that a whole run is reproducible from one root seed while independent
sub-streams can be handed to parallel work (repeated verifications)
without any shared state.
"""

from __future__ import annotations

import fcntl
import hashlib
import io
import json
import math
import numbers
import operator
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


def integer(value, name: str) -> int:
    """``value``, an integer of any type (a NumPy one too) but not a bool, as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def real(value, name: str) -> float:
    """``value``, a real number of any type (a NumPy one too) but not a bool, as a
    float; an int past the doubles is an infinity, for the caller's range check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.copysign(math.inf, value)


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget spent per release: 0 < epsilon < inf."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", real(self.epsilon, "epsilon"))
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")

    @classmethod
    def of(cls, epsilon) -> "PrivacyParams":
        """``epsilon`` itself if it is a PrivacyParams, else one holding it."""
        return epsilon if isinstance(epsilon, cls) else cls(epsilon)


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Keyword-only settings every verification run shares, checked once
    here; each framework's config adds and checks only its own fields."""

    M: int
    epsilon: PrivacyParams
    prior: tuple[float, float] = (1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "epsilon", PrivacyParams.of(self.epsilon))
        for name in ("M", "seed"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.M < 2:
            raise ConfigError(f"M must be at least 2, got {self.M}")
        a, b = (real(value, "prior value") for value in self.prior)
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise ConfigError(f"prior values must be positive and finite, got {self.prior}")
        object.__setattr__(self, "prior", (a, b))

    @property
    def eps(self) -> float:
        return self.epsilon.epsilon


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
        # checked last, so a record refused for another reason keeps its message
        is_bool = isinstance(self.epsilon_spent, bool) or isinstance(self.sensitivity, bool)
        try:  # an int too large for a float would overflow the ledger's sum
            object.__setattr__(self, "value", float(value))
            object.__setattr__(self, "epsilon_spent", float(self.epsilon_spent))
            object.__setattr__(self, "sensitivity", float(self.sensitivity))
        except OverflowError:
            raise ConfigError(
                "value, epsilon_spent and sensitivity must fit in a float"
            ) from None
        if is_bool:
            raise ConfigError("epsilon_spent and sensitivity must be numbers, not booleans")

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


# a record's keys in the order of NoisyRelease's fields
_FIELDS = operator.itemgetter("value", "epsilon", "sensitivity", "mechanism", "timestamp")
# NoisyRelease's fields as a tuple, without astuple's deep copy
_ATTRS = operator.attrgetter("value", "epsilon_spent", "sensitivity", "mechanism", "timestamp")
_DECODE = json.JSONDecoder().raw_decode


def _record_fields(line: str) -> tuple:
    record, end = _DECODE(line)  # where this returns, json.loads(line) == record
    if end != len(line):
        raise ValueError("trailing text")
    return _FIELDS(record)


def _bulk_records(data: bytes) -> tuple[list, int] | None:
    """``_parse_records`` in one pass, or None where it does not accept
    ``data``: bytes that are not ASCII, hold a ``\\r`` or do not end with
    ``\\n`` (they might split otherwise than a text-mode read), or a record
    that fails ``NoisyRelease``'s checks, applied here column by column."""
    if not (data.isascii() and data.endswith(b"\n")) or b"\r" in data:
        return None
    lines = data.decode("ascii").split("\n")[:-1]
    try:  # each dict is dropped as soon as its fields are taken
        values, epsilons, sensitivities, mechanisms, stamps = zip(*map(_record_fields, lines))
        numbers = values + epsilons + sensitivities
        if set(map(type, numbers)) - {int, float} or set(map(type, mechanisms + stamps)) != {str}:
            return None
        numbers = list(map(float, numbers))
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        return None
    n = len(lines)
    if not all(map(math.isfinite, numbers)) or min(numbers[n:]) <= 0:
        return None
    return list(zip(numbers[:n], numbers[n:2 * n], numbers[2 * n:], mechanisms, stamps)), n


def _parse_records(data: bytes, path: str, first_line: int) -> tuple[list, int]:
    """The records in ``data``, ledger bytes that start on a line boundary,
    as ``(value, epsilon, sensitivity, mechanism, timestamp)`` tuples, and
    the number of lines they span.  A line that is not a valid record
    (a torn write, a missing field) raises LedgerCorruptError naming
    ``path:line``, counting from ``first_line``: skipping it would
    understate the budget spent.  The per-line loop below decides (and
    words) whatever ``_bulk_records`` does not accept.

    Lines split as in a text-mode read (``\\n``, ``\\r\\n`` or ``\\r``) and
    bytes decode with ``errors="replace"``; records are written as
    ASCII-only JSON, so a U+FFFD in a line marks bytes that are not UTF-8.
    """
    bulk = _bulk_records(data)
    if bulk is not None:
        return bulk
    records = []
    lineno = first_line - 1
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace")
    for lineno, line in enumerate(text, start=first_line):
        if not line.strip():
            continue
        try:
            if "\ufffd" in line:
                raise ValueError("bytes that are not UTF-8")
            records.append(_ATTRS(NoisyRelease.from_record(line)))
        except (ValueError, KeyError, TypeError, RecursionError, ConfigError) as exc:
            raise LedgerCorruptError(
                f"{path}:{lineno}: unreadable ledger record ({exc!r})"
            ) from exc
    return records, lineno - first_line + 1


class BudgetLedger:
    """Append-only record of privacy spending.

    There is no mutation API: entries can only be appended, and the public
    view is an immutable tuple.  When ``path`` is given, entries are loaded
    from the newline-delimited record file at construction and every
    accepted release is written through to it (under an advisory lock)
    before control returns, so a crash after sampling can never leave an
    unledgered release on disk next to a report.

    Cost: opening validates every record of the file once, in one bulk
    pass, or line by line where that pass does not accept the file; each
    read of ``entries`` builds its ``NoisyRelease`` objects anew.  The
    instance keeps the bytes it has validated, their line count and the ε
    they spend, so an append reads the file, compares its head with those
    bytes and parses only the records written since.  When those bytes
    changed or the file got shorter, the append re-reads and re-validates
    the whole file instead.  Records other processes appended
    are added to ``entries`` and ``spent`` when an append reads them.
    """

    def __init__(self, cap: float | None = None, path=None):
        if cap is not None and not 0 < cap < math.inf:
            raise ConfigError(f"budget cap must be positive and finite, got {cap}")
        self.cap = cap
        self.path = os.fspath(path) if path is not None else None
        self._records: list[tuple] = []  # NoisyRelease fields per release
        self._spent = 0.0
        self._read = b""  # the file's bytes validated so far
        self._lines = 0  # the lines they span
        if self.path is not None:
            try:
                with open(self.path, "rb") as fh:
                    # a writer holds LOCK_EX while it appends a record
                    fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
                    data = fh.read()
            except FileNotFoundError:
                data = b""
            self._catch_up(data)
        if self.cap is not None and self.spent > self.cap + 1e-9:
            raise BudgetExceededError(
                f"ledger already holds {self.spent} of budget, above cap {self.cap}"
            )

    def _catch_up(self, data: bytes) -> None:
        """Take in ``data``, the whole ledger file.  Only the bytes past those
        already read are parsed when ``data`` starts with them and they end a
        line; otherwise the whole file is, from line 1.  A bad record raises
        before the instance changes."""
        read = self._read
        if not (data.startswith(read) and read[-1:] in (b"", b"\n")):
            read = b""
        lines = self._lines if read else 0
        new, count = _parse_records(data[len(read):], self.path, lines + 1)
        if not read:
            self._records, self._spent = [], 0.0
        for record in new:  # a left fold in file order, as a fresh open sums
            self._spent += record[1]
        self._records.extend(new)
        self._read, self._lines = data, lines + count

    @property
    def entries(self) -> tuple:
        return tuple(NoisyRelease(*record) for record in self._records)

    def __len__(self) -> int:
        """The number of releases, without building ``entries``."""
        return len(self._records)

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
            record = release.to_record().encode() + b"\n"
            # the file is the source of truth across processes: take in what
            # others wrote and recheck the cap while holding the lock
            with open(self.path, "a+b") as fh:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                try:
                    fh.seek(0)
                    data = fh.read()
                    self._catch_up(data)
                    self.check(release.epsilon_spent)
                    if data and not data.endswith(b"\n"):
                        record = b"\n" + record  # end the last line first
                    fh.write(record)
                    fh.flush()
                    os.fsync(fh.fileno())
                finally:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            self._read = data + record
            self._lines += 1
        self._records.append(_ATTRS(release))
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


@dataclass(frozen=True)
class Released:
    """A run's settings and its one release, whose unclamped ``release.value``
    can lie outside the range of the statistic."""

    config: RunConfig
    release: NoisyRelease


def release_run(value: float, sensitivity: float, config: RunConfig, ledger: BudgetLedger,
                label: str) -> Released:
    """Release ``value`` for one run through :func:`release_scalar`, with its
    noise drawn from the run's ``label`` stream, ``RngStream(config.seed).child(label)``."""
    stream = RngStream(config.seed).child(label)
    return Released(config, release_scalar(value, sensitivity, config.epsilon, ledger, stream))
