"""Delimited-table ingestion and categorical encoding."""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IngestionError

COLUMN_KINDS = ("numeric", "categorical")
_MISSING = {"", "na", "nan", "null"}


@dataclass(frozen=True)
class Dataset:
    """Named numeric columns of common length; rows are individuals.

    Columns are stored read-only so that views handed to parallel workers
    cannot mutate shared state.
    """

    columns: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        if not self.columns:
            raise IngestionError("dataset must have at least one column")
        frozen = {}
        length = None
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise IngestionError(f"column {name!r} is not one-dimensional")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise IngestionError(
                    f"column {name!r} has length {arr.shape[0]}, expected {length}"
                )
            if not np.all(np.isfinite(arr)):
                raise IngestionError(f"column {name!r} contains non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen[str(name)] = arr
        if length < 1:
            raise IngestionError("dataset must have at least one row")
        object.__setattr__(self, "columns", frozen)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @property
    def n_rows(self) -> int:
        return next(iter(self.columns.values())).shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise IngestionError(f"no column named {name!r}") from None


def read_schema(path) -> dict[str, str]:
    """Read a JSON schema file mapping column name to 'numeric'|'categorical'."""
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict) or not raw:
        raise IngestionError("schema must be a non-empty JSON object")
    schema = {}
    for name, kind in raw.items():
        if kind not in COLUMN_KINDS:
            raise IngestionError(
                f"schema column {name!r} has unknown kind {kind!r}; "
                f"expected one of {COLUMN_KINDS}"
            )
        schema[str(name)] = kind
    return schema


def _not_utf8(path, exc: UnicodeDecodeError) -> IngestionError:
    return IngestionError(
        f"{path}: not UTF-8 text ({exc.reason} 0x{exc.object[exc.start]:02x})")


def encode_categoricals(header, rows, schema) -> Dataset:
    """Turn a parsed raw table into a numeric Dataset.

    Categorical columns become one indicator column per non-reference
    level, named ``<column>_<level>``; the reference level is the first in
    sorted order.  Numeric columns pass through.  Missing or unparseable
    cells raise IngestionError naming the offending row and column.
    """
    header = [str(h) for h in header]
    if len(set(header)) != len(header):
        raise IngestionError("duplicate column names in header")
    for name in schema:
        if name not in header:
            raise IngestionError(f"schema column {name!r} not present in table")
    if not rows:
        raise IngestionError("table has a header but no data rows")

    raw_columns: dict[str, list[str]] = {name: [] for name in header}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise IngestionError(
                f"row {i + 1} has {len(row)} fields, expected {len(header)}"
            )
        for name, cell in zip(header, row):
            cell = cell.strip()
            if cell.lower() in _MISSING:
                raise IngestionError(f"missing value at row {i + 1}, column {name!r}")
            raw_columns[name].append(cell)

    out: dict[str, np.ndarray] = {}
    for name in header:
        kind = schema.get(name, "numeric")
        cells = raw_columns[name]
        if kind == "numeric":
            values = np.empty(len(cells))
            for i, cell in enumerate(cells):
                try:
                    values[i] = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"non-numeric value {cell!r} at row {i + 1}, column {name!r}"
                    ) from None
            out[name] = values
        else:
            levels = sorted(set(cells))
            if len(levels) < 2:
                raise IngestionError(
                    f"categorical column {name!r} is constant (single level {levels[0]!r})"
                )
            out.update(_indicators(name, cells, levels))
    return Dataset(out)


def _indicators(name, cells, levels) -> dict[str, np.ndarray]:
    """``<name>_<level>`` indicators for every level but the reference, ``levels[0]``."""
    code = {level: k for k, level in enumerate(levels)}
    codes = np.fromiter(map(code.__getitem__, cells), np.intp, len(cells))
    return {f"{name}_{level}": (codes == k).astype(np.float64)
            for k, level in enumerate(levels[1:], start=1)}


def _read_columns(path, header, skiprows, schema, delimiter) -> Dataset:
    """The data rows parsed in bulk by numpy.  Raises ValueError, TypeError
    or IngestionError wherever the per-cell path might differ: a header it
    refuses, a row of the wrong length, a cell numpy cannot parse, a
    non-finite number, a constant column, a level that is padded, a
    missing token or holds a NUL (which csv refuses before Python 3.11)."""
    if len(set(header)) != len(header) or not set(schema) <= set(header):
        raise ValueError("header left to the per-cell path")
    kinds = [schema.get(name, "numeric") for name in header]
    dtype = [(f"f{i}", "f8" if kind == "numeric" else "O") for i, kind in enumerate(kinds)]
    # newline="" as for csv: a quoted line break stays as written
    with open(path, encoding="utf-8", newline="") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a table with no data rows warns
        table = np.loadtxt(fh, dtype, comments=None, delimiter=delimiter,
                           skiprows=skiprows, quotechar='"', ndmin=1)
    out: dict[str, np.ndarray] = {}
    for i, (name, kind) in enumerate(zip(header, kinds)):
        cells = table[f"f{i}"]
        if kind == "numeric":
            out[name] = cells
            continue
        levels = sorted(set(cells))
        if len(levels) < 2 or any(level != level.strip() or "\0" in level
                                  or level.lower() in _MISSING for level in levels):
            raise ValueError(f"column {name!r} left to the per-cell path")
        out.update(_indicators(name, cells, levels))
    return Dataset(out)


def read_table(path, schema, delimiter: str = ",") -> Dataset:
    """Read a delimited text file (header row required) into a Dataset.

    ``schema`` may be a mapping or a path to a JSON schema file.  The data
    rows are parsed in bulk by numpy; when that parse fails or meets a cell
    the per-cell path might treat differently, the table is re-read cell by
    cell (``encode_categoricals``), which words every error and also reads
    cells numpy refuses but ``float`` accepts (``1_000``, full-width digits).
    Non-UTF-8 bytes and fields over csv's size limit raise IngestionError;
    a ``delimiter`` that is not one character raises ConfigError.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    if not isinstance(schema, dict):
        schema = read_schema(schema)
    path = os.fspath(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
            try:
                return _read_columns(path, header, reader.line_num, schema, delimiter)
            except (ValueError, TypeError, IngestionError):
                pass  # numpy refuses the delimiter or a cell, or a check above failed
            rows = [row for row in reader if row]
        except StopIteration:
            raise IngestionError(f"{path}: empty file, expected a header row") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        except csv.Error as exc:
            raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None
    return encode_categoricals(header, rows, schema)
