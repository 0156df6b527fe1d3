"""Finite real sequences: convolution, forward differences, and CSV ingestion.

Desk-scale stand-in for doubly infinite signals. Convolution is computed
directly (no FFT); the boundary mode decides how the window is extended,
with "valid" avoiding any extension so norm inequalities can be tested
without edge artifacts.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import os
import shutil
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .kernels import GeneralKernel, SymmetricKernel, full_weights

__all__ = [
    "TimeSeries",
    "CsvFormatError",
    "CsvSource",
    "Rows",
    "BOUNDARY_MODES",
    "convolve",
    "derivative",
    "l2_norm",
    "read_csv",
    "write_csv",
]

BOUNDARY_MODES = ("reflect", "zero", "extend", "valid")
_BLOCK = 1 << 16  # value cells per bulk conversion, and floats per formatting batch


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


def _changed(path) -> CsvFormatError:
    return CsvFormatError(f"{path}: changed while it was read")


class Rows:
    """One pass over a data CSV: `fields` is the header; iterating yields the data rows.

    This loop holds the row rules of every data CSV: blank lines are
    skipped, short rows are padded with empty cells, and a row longer than
    the header or a line that csv.reader rejects (a cell over its field
    limit) raises CsvFormatError naming its file line ("row N").
    `line_num` is the file line on which the last row read ends.
    """

    def __init__(self, text, path):
        self.path = path
        self._reader = csv.reader(text)
        try:
            self.fields: list[str] = next(self._reader, [])
        except csv.Error as exc:
            raise self._malformed(exc) from None

    @property
    def line_num(self) -> int:
        return self._reader.line_num

    def _malformed(self, exc: csv.Error) -> CsvFormatError:
        return CsvFormatError(f"{self.path} row {self.line_num}: {exc}")

    def __iter__(self):
        reader, width = self._reader, len(self.fields)
        try:
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    if len(row) > width:
                        raise CsvFormatError(
                            f"{self.path} row {reader.line_num}: {len(row)} fields but the header has {width}"
                        )
                    row.extend([""] * (width - len(row)))
                yield row
        except csv.Error as exc:
            raise self._malformed(exc) from None


class CsvSource:
    """A data CSV held open for several passes, each from its first byte.

    An input that is not a regular file (a pipe, /dev/stdin) cannot be read
    twice, so its bytes are first copied into an unnamed temporary file; so
    are those of a file about to be overwritten (`spool=True`).
    """

    def __init__(self, path: str | os.PathLike, spool: bool = False):
        self.path = path
        fh = open(path, "rb")
        if spool or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            with fh:
                copy = tempfile.TemporaryFile()
                try:
                    shutil.copyfileobj(fh, copy)
                except BaseException:
                    copy.close()
                    raise
            fh = copy
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    @contextmanager
    def rows(self):
        """A new pass over the file, as Rows."""
        self._fh.seek(0)  # the duplicate descriptor below shares this offset
        with open(os.dup(self._fh.fileno()), newline="", encoding="utf-8-sig") as text:
            yield Rows(text, self.path)

    def values(self, column: str) -> np.ndarray:
        """Pass 1: the finite numbers of one column, one per data row.

        A missing or duplicated column, a long row, or a value cell that is
        not a finite number raises CsvFormatError naming the file line of
        the first such row. Cells are converted a block of 2^16 at a time;
        only when a block fails is the file read again, row by row, to find
        that row.
        """
        with self.rows() as rows:
            j = _column_index(self.path, rows.fields, column)
            try:
                values = _bulk_values(rows, j)
            except ValueError:
                values = None
        if values is None:
            with self.rows() as rows:
                _raise_first_bad_value(rows, j, column)
            raise _changed(self.path)
        if not values.size:
            raise CsvFormatError(f"{self.path}: no data rows")
        return values

    def cells(self, column: str) -> list[str]:
        """The text cells of one column, one per data row."""
        with self.rows() as rows:
            k = _column_index(self.path, rows.fields, column)
            return [row[k] for row in rows]

    def write_column(self, out, column: str, values: np.ndarray, offset: int = 0) -> None:
        """Pass 2: write the file to the text stream `out` with `values` in `column`.

        Every column so named is overwritten, or one is appended if there
        is none. The first and last `offset` data rows are left out, so
        `values` holds one number per remaining row, written with 17
        significant digits. Other cells pass through csv.writer unchanged.
        """
        writer = csv.writer(out)
        with self.rows() as rows:
            slots = [j for j, name in enumerate(rows.fields) if name == column]
            writer.writerow(rows.fields if slots else rows.fields + [column])
            it = iter(rows)
            head = sum(1 for _ in itertools.islice(it, offset))
            numbers = _floats(values)
            writer.writerows(_filled(itertools.islice(it, values.size), numbers, slots))
            if head != offset or next(numbers, None) is not None or sum(1 for _ in it) != offset:
                raise _changed(self.path)


def _bulk_values(rows: Rows, j: int) -> np.ndarray:
    """Value cells parsed block by block; ValueError if a block has a bad cell."""
    cell = operator.itemgetter(j)
    it = iter(rows)
    blocks = []
    while cells := list(map(cell, itertools.islice(it, _BLOCK))):
        block = np.fromiter(map(float, cells), float, len(cells))
        if not np.isfinite(block).all():
            raise ValueError("non-finite value")
        blocks.append(block)
    return np.concatenate(blocks) if blocks else np.empty(0)


def _raise_first_bad_value(rows: Rows, j: int, column: str) -> None:
    for row in rows:
        try:
            val = float(row[j])
        except ValueError:
            val = math.nan
        if not math.isfinite(val):
            raise CsvFormatError(
                f"{rows.path} row {rows.line_num}: {column}={row[j]!r} is not a finite number"
            )


def _floats(values: np.ndarray):
    """The values as Python floats, converted a block at a time."""
    return itertools.chain.from_iterable(
        values[i : i + _BLOCK].tolist() for i in range(0, values.size, _BLOCK)
    )


def _filled(rows, numbers, slots: list[int]):
    if not slots:
        for row, v in zip(rows, numbers):
            row.append(f"{v:.17g}")
            yield row
    else:
        for row, v in zip(rows, numbers):
            cell = f"{v:.17g}"
            for j in slots:
                row[j] = cell
            yield row


def read_csv(path: str | os.PathLike, column: str, label_column: str | None = None) -> TimeSeries:
    """Read one numeric column (and optionally a label column) from a CSV file.

    The row rules and errors are those of `Rows` and `CsvSource.values`.
    """
    with CsvSource(path) as source:
        values = source.values(column)
        if label_column is None:
            return TimeSeries(values)
        labels = source.cells(label_column)
    if len(labels) != values.size:
        raise _changed(path)
    return TimeSeries(values, tuple(labels))


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
