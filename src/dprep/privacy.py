"""Laplace mechanism, privacy-budget ledger, and seeded random streams.

:class:`Laplace` is the noise law a release draws and every posterior models.
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
    cheap, so one root seed can fan out to every component of a run.  The
    root seed is checked by :func:`seed`.
    """

    def __init__(self, root_seed: int, path: tuple = ()):
        self.root_seed = seed(root_seed, "root_seed")
        self.path = tuple((str(label), int(index)) for label, index in path)
        entropy = [self.root_seed]
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

        The top 53 bits of each 64-bit word are kept and offset by half a
        step, so 0.0 and 1.0 are unreachable and the number of underlying
        draws per variate is exactly one.
        """
        # the words integers(0, 2**64, dtype=np.uint64) returns; a Python int for size None
        raw = self._gen.bit_generator.random_raw(size)
        return ((raw >> 11) + 0.5) / 2**53

    def __repr__(self):
        return f"RngStream(root_seed={self.root_seed}, path={self.path!r})"


def integer(value, name: str) -> int:
    """``value``, an integer of any type (a NumPy one too) but not a bool, as an
    int within the doubles, so that a message can print it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if abs(real(value := operator.index(value), name)) == math.inf:
        raise ConfigError(f"{name} must be {'at most' if value > 0 else 'at least minus'} the "
                          f"largest double, got an integer of {value.bit_length()} bits")
    return value


def real(value, name: str) -> float:
    """``value``, a real number of any type (a NumPy one too) but not a bool, as a
    float; an int past the doubles is an infinity, for the caller's range check."""
    if type(value) is float:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def fraction(value, name: str) -> float:
    """``value`` as :func:`real`, inside the open interval (0, 1)."""
    if not 0 < (value := real(value, name)) < 1:
        raise ConfigError(f"{name} must be in (0, 1), got {value}")
    return value


def positive(value, name: str) -> float:
    """``value`` as :func:`real`, above 0 and finite."""
    if not 0 < (value := real(value, name)) < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def count(value, name: str) -> int:
    """``value`` as :func:`integer`, at least 1."""
    if (value := integer(value, name)) < 1:
        raise ConfigError(f"{name} must be at least 1, got {value}")
    return value


def seed(value, name: str) -> int:
    """``value`` as :func:`integer`, in [0, 2**64): a stream keys its
    generator on the seed's 64 bits, so a wider range would give two seeds
    one stream."""
    if not 0 <= (value := integer(value, name)) < 2**64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {value}")
    return value


def pair(value, name: str, convert) -> tuple:
    """``value``, two values of any iterable, as a tuple of each through
    ``convert``, one of the conversions above."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a pair, got {value!r}") from None
    return convert(first, name), convert(second, name)


def grid(values, name: str):
    """``values``, one number or a nonempty sequence or 1-D array of them, as
    a nonempty sequence.  Its values are not converted yet: a caller bounds
    the grid's size first, then puts each value through a conversion."""
    if isinstance(values, np.ndarray):
        values = np.atleast_1d(values)
    elif not isinstance(values, (list, tuple, range)):
        values = [values]
    if len(values) == 0:
        raise ConfigError(f"the {name} grid must be nonempty")
    return values


class Laplace:
    """The noise law Laplace(0, sensitivity/epsilon), on floats or elementwise on arrays.
    Slotted with a plain ``__init__``: one is built per release; frozen setattrs cost ~6%."""

    __slots__ = ("epsilon", "sensitivity")

    def __init__(self, epsilon, sensitivity):
        self.epsilon = positive(epsilon, "epsilon")
        self.sensitivity = positive(sensitivity, "sensitivity")

    def sample(self, stream: RngStream, size=None):
        """Inverse-CDF draws, one 64-bit word each; a float when ``size`` is omitted."""
        out = self.quantile(stream.uniform_open(size))
        return float(out) if size is None else out

    def quantile(self, q):
        t = q - 0.5  # abs, not np.abs: no ufunc call on a float, and the same value
        return -(self.sensitivity / self.epsilon) * np.sign(t) * np.log1p(-2.0 * abs(t))

    def loglik(self, x):
        """The log density less its constant, which a posterior normalises away."""
        return -(self.epsilon / self.sensitivity) * np.abs(x)

    def cdf(self, x):
        tail = 0.5 * np.exp(-(self.epsilon / self.sensitivity) * np.abs(x))
        return np.where(x < 0, tail, 1.0 - tail)

    @property
    def variance(self) -> float:
        scale = self.sensitivity / self.epsilon  # scale * scale is inf where scale**2 raises
        return 2.0 * scale * scale


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget spent per release: 0 < epsilon < inf."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", positive(self.epsilon, "epsilon"))

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
        object.__setattr__(self, "M", integer(self.M, "M"))
        object.__setattr__(self, "seed", seed(self.seed, "seed"))
        if self.M < 2:
            raise ConfigError(f"M must be at least 2, got {self.M}")
        object.__setattr__(self, "prior", pair(self.prior, "prior", positive))

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
        if not math.isfinite(value := real(self.value, "value")):
            raise ConfigError(f"value must be finite, got {value}")
        object.__setattr__(self, "value", value)
        for name in ("epsilon_spent", "sensitivity"):
            object.__setattr__(self, name, positive(getattr(self, name), name))
        if not (isinstance(self.mechanism, str) and isinstance(self.timestamp, str)):
            raise ConfigError("mechanism and timestamp must be strings")

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
        return cls(*_FIELDS(json.loads(line)))


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
        self.cap = None if cap is None else positive(cap, "budget cap")
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
    """Release ``true_value`` plus noise drawn from ``Laplace(epsilon, sensitivity)``.

    ``sensitivity`` bounds the change of ``true_value`` between neighbouring
    datasets: datasets that differ by substituting one row, N being public.

    The budget check runs before any noise is sampled; a refused release
    consumes neither budget nor randomness.  The returned value is never
    clamped or rounded — consumers must expect releases outside the range
    of the underlying statistic.
    """
    law = Laplace(params.epsilon, sensitivity)
    ledger.check(params.epsilon)
    if ledger.cap is None:
        warnings.warn(
            "releasing against a ledger with no budget cap; "
            "total privacy loss is unbounded",
            UncappedBudgetWarning,
            stacklevel=2,
        )
    release = NoisyRelease(
        value=true_value + law.sample(stream),
        epsilon_spent=params.epsilon,
        sensitivity=law.sensitivity,
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
