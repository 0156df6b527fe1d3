"""Finite real sequences: convolution, forward differences, and CSV ingestion.

Desk-scale stand-in for doubly infinite signals. Convolution is computed
directly (no FFT); the boundary mode decides how the window is extended,
with "valid" avoiding any extension so norm inequalities can be tested
without edge artifacts.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .kernels import GeneralKernel, SymmetricKernel, full_weights

__all__ = [
    "TimeSeries",
    "CsvFormatError",
    "BOUNDARY_MODES",
    "convolve",
    "derivative",
    "l2_norm",
    "read_csv",
    "read_table",
    "write_csv",
]

BOUNDARY_MODES = ("reflect", "zero", "extend", "valid")


class CsvFormatError(ValueError):
    """Raised for unparseable rows, missing columns, or malformed headers."""


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered finite real values with optional pass-through labels."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("series needs at least one value")
        if not np.all(np.isfinite(v)):
            raise ValueError("series values must be finite")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != v.size:
                raise ValueError("labels must match values in length")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def convolve(u: SymmetricKernel | GeneralKernel, f: TimeSeries, boundary: str = "reflect") -> TimeSeries:
    """Local average u * f on the window, under the chosen boundary mode.

    reflect/zero/extend pad the input by the half width and return a series
    of the same length; valid returns only positions where the kernel sits
    entirely inside the window (length shrinks by 2n).
    """
    if boundary not in BOUNDARY_MODES:
        raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")
    n = u.half_width
    w = full_weights(u)
    v = f.values
    if boundary == "valid":
        if v.size < 2 * n + 1:
            raise ValueError("series shorter than the kernel support")
        out = np.convolve(v, w, mode="valid")
        labels = f.labels[n : v.size - n] if f.labels is not None else None
        return TimeSeries(out, labels)
    if n == 0:
        return TimeSeries(w[0] * v, f.labels)
    if boundary == "zero":
        padded = np.pad(v, n)
    elif boundary == "extend":
        padded = np.pad(v, n, mode="edge")
    else:
        padded = np.pad(v, n, mode="reflect")
    return TimeSeries(np.convolve(padded, w, mode="valid"), f.labels)


def derivative(f: TimeSeries, m: int) -> TimeSeries:
    """m-th forward difference; length shrinks by m."""
    if m < 1:
        raise ValueError("difference order must be at least 1")
    if len(f) < m + 1:
        raise ValueError("series too short for this difference order")
    out = np.diff(f.values, m)
    labels = f.labels[: out.size] if f.labels is not None else None
    return TimeSeries(out, labels)


def l2_norm(f) -> float:
    """Euclidean norm of a TimeSeries or plain array."""
    v = f.values if isinstance(f, TimeSeries) else np.asarray(f, dtype=float)
    return float(np.linalg.norm(v))


def _column_index(path, fields: list[str], column: str) -> int:
    if fields.count(column) != 1:
        problem = "appears more than once" if column in fields else "not found"
        raise CsvFormatError(f"{path}: column {column!r} {problem} (have {fields})")
    return fields.index(column)


def read_table(path: str | os.PathLike, column: str) -> tuple[list[str], list[list[str]], TimeSeries]:
    """Header, rows (lists of cells) and one numeric column of a data CSV.

    Blank lines are skipped and short rows padded with empty cells. A long
    row, a value column missing or named twice, or a value cell that is not
    a finite number raises CsvFormatError naming the file line ("row N").
    """
    rows: list[list[str]] = []
    values: list[float] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        fields = next(reader, [])
        j = _column_index(path, fields, column)
        for row in reader:
            if not row:
                continue
            if len(row) > len(fields):
                raise CsvFormatError(
                    f"{path} row {reader.line_num}: {len(row)} fields but the header has {len(fields)}"
                )
            row.extend([""] * (len(fields) - len(row)))
            try:
                val = float(row[j])
            except ValueError:
                val = math.nan
            if not math.isfinite(val):
                raise CsvFormatError(
                    f"{path} row {reader.line_num}: {column}={row[j]!r} is not a finite number"
                )
            rows.append(row)
            values.append(val)
    if not values:
        raise CsvFormatError(f"{path}: no data rows")
    return fields, rows, TimeSeries(np.asarray(values))


def read_csv(path: str | os.PathLike, column: str, label_column: str | None = None) -> TimeSeries:
    """Read one numeric column (and optionally a label column) from a CSV file."""
    fields, rows, ts = read_table(path, column)
    if label_column is None:
        return ts
    k = _column_index(path, fields, label_column)
    return TimeSeries(ts.values, tuple(row[k] for row in rows))


def write_csv(path: str | os.PathLike, f: TimeSeries, column: str = "value") -> None:
    """Write the series with 17 significant digits, so a read round-trips exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if f.labels is not None:
            writer.writerow(["label", column])
            for lab, v in zip(f.labels, f.values):
                writer.writerow([lab, f"{v:.17g}"])
        else:
            writer.writerow([column])
            for v in f.values:
                writer.writerow([f"{v:.17g}"])
