"""Delimited-table ingestion and categorical encoding."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError

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
    with open(os.fspath(path), encoding="utf-8") as fh:
        raw = json.load(fh)
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
            # reference level = levels[0]; indicators for the rest
            for level in levels[1:]:
                out[f"{name}_{level}"] = np.array(
                    [1.0 if cell == level else 0.0 for cell in cells]
                )
    return Dataset(out)


def read_table(path, schema, delimiter: str = ",") -> Dataset:
    """Read a delimited text file (header row required) into a Dataset.

    ``schema`` may be a mapping or a path to a JSON schema file.
    """
    if not isinstance(schema, dict):
        schema = read_schema(schema)
    with open(os.fspath(path), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file, expected a header row") from None
        rows = [row for row in reader if row]
    return encode_categoricals(header, rows, schema)
