"""Finite real sequences: convolution, forward differences, and CSV ingestion.

Desk-scale stand-in for doubly infinite signals. Convolution is computed
directly (no FFT); the boundary mode decides how the window is extended,
with "valid" avoiding any extension so norm inequalities can be tested
without edge artifacts.

A data CSV is read through `Rows`, whose csv.reader loop defines its rows.
Pass 1 of `CsvSource` reads plain blocks, then that loop; so does pass 2
when it appends its column, its one fast path. A block is one string from
one read of 2^16 characters finished to the next line end. A plain block
(no quote, NUL, lone CR or over-long line, and the header's number of
commas on every non-blank line) is split on commas in pass 1. In pass 2
its non-blank lines, with `%` escaped, each followed by a cell spec, form
one template that a single `%` call fills with the block's values. That
gives the rows, output bytes and error messages of the loop without
running it row by row. The first block that is not plain, or in pass 1 a
plain block with a bad cell, goes with the rest of the file to the loop.
Pass 2 writes a column filled in place by the loop from the first row.
"""

from __future__ import annotations

import array
import csv
import io
import itertools
import math
import os
import shutil
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .chebyshev import finite_vector, integer, reals
from .kernels import GeneralKernel, SymmetricKernel, full_weights

__all__ = [
    "TimeSeries",
    "CsvFormatError",
    "convolve",
    "derivative",
    "l2_norm",
    "read_csv",
    "write_csv",
]

BOUNDARY_MODES = ("reflect", "zero", "extend", "valid")
_BLOCK = 1 << 16  # floats per formatting batch
_CELL = "%.17g"  # every written number: 17 significant digits, so a read round-trips exactly
_APPENDED = f",{_CELL}\r\n"  # what pass 2 adds to each plain line
_CHARS = 1 << 16  # characters per block of whole lines; larger blocks raised peak RSS in `smooth`
_NORM_LO, _NORM_HI = 2.0**-400, 2.0**400  # in this range no square overflowed, and none lost to underflow shows


class CsvFormatError(ValueError):
    """Raised for unparseable rows, missing columns, or malformed headers."""


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered finite real values with optional pass-through labels."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        v = finite_vector(self.values, "series values", "series needs at least one value")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != v.size:
                raise ValueError("labels must match values in length")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def _series(f) -> TimeSeries:
    """f itself if it is a TimeSeries; anything else, a plain array too, raises ValueError naming it."""
    if not isinstance(f, TimeSeries):
        raise ValueError("f must be a TimeSeries")
    return f


def convolve(u: SymmetricKernel | GeneralKernel, f: TimeSeries, boundary: str = "reflect") -> TimeSeries:
    """Local average u * f on the window, under the chosen boundary mode.

    reflect/zero/extend pad the input by the half width and return a series
    of the same length; valid returns only positions where the kernel sits
    entirely inside the window (length shrinks by 2n).
    """
    if boundary not in BOUNDARY_MODES:
        raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")
    w = full_weights(u)
    n = u.half_width
    v = _series(f).values
    if boundary == "valid":
        if v.size < 2 * n + 1:
            raise ValueError("series shorter than the kernel support")
        out = np.convolve(v, w, mode="valid")
        labels = f.labels[n : v.size - n] if f.labels is not None else None
        return TimeSeries(out, labels)
    if boundary == "zero":
        padded = np.pad(v, n)
    elif boundary == "extend":
        padded = np.pad(v, n, mode="edge")
    else:
        padded = np.pad(v, n, mode="reflect")
    return TimeSeries(np.convolve(padded, w, mode="valid"), f.labels)


def derivative(f: TimeSeries, m: int) -> TimeSeries:
    """m-th forward difference; length shrinks by m."""
    f = _series(f)
    m = integer(m, "difference order")
    if m < 1:
        raise ValueError("difference order must be at least 1")
    if len(f) < m + 1:
        raise ValueError("series too short for this difference order")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.diff(f.values, m)
    labels = f.labels[: out.size] if f.labels is not None else None
    try:
        return TimeSeries(out, labels)
    except ValueError as exc:  # finite values whose difference is not
        raise ValueError(f"the order-{m} difference of this series overflows double precision") from exc


def l2_norm(f) -> float:
    """Euclidean norm of a TimeSeries or plain array.

    The sum of squares is one `np.einsum`, which calls no BLAS and makes no
    temporary: its value does not depend on the BLAS thread count. A norm
    outside [2^-400, 2^400] may have lost squares to overflow or underflow,
    so it is recomputed from the values scaled by a power of two, which is
    exact. A norm past the largest double is inf.
    """
    v = (f.values if isinstance(f, TimeSeries) else reals(f, "f")).ravel()
    with np.errstate(over="ignore"):
        norm = math.sqrt(np.einsum("i,i->", v, v))
        if _NORM_LO <= norm <= _NORM_HI or not v.size:
            return norm
        _, e = np.frexp(np.max(np.abs(v)))
        scaled = np.ldexp(v, -e)
        return float(np.ldexp(math.sqrt(np.einsum("i,i->", scaled, scaled)), e))


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
    skipped (the header is the first non-blank row), short rows are padded
    with empty cells, and a row longer than the header or a line that
    csv.reader rejects (a cell over its field limit) raises CsvFormatError
    naming its file line ("row N").
    `line_num` is the file line on which the last row read ends.
    """

    def __init__(self, text, path):
        self.path = path
        self._text = text
        self._base = 0  # file lines before those that self._reader reads
        self._reader = csv.reader(text)
        try:
            self.fields: list[str] = next(filter(None, self._reader), [])
        except csv.Error as exc:
            raise self._malformed(exc) from None

    @property
    def line_num(self) -> int:
        return self._base + self._reader.line_num

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
                            f"{self.path} row {self.line_num}: {len(row)} fields but the header has {width}"
                        )
                    row.extend([""] * (width - len(row)))
                yield row
        except csv.Error as exc:
            raise self._malformed(exc) from None

    def resume(self, lines, line: int) -> None:
        """Make the row loop read `lines`, the first of them file line `line`, then the rest of the file."""
        self._base, self._reader = line - 1, csv.reader(itertools.chain(lines, self._text))

    def blocks(self):
        """The plain blocks of data rows, each a run of whole lines.

        Each block is one read of `_CHARS` characters, completed by a
        readline when it ends inside a line. A plain block is yielded as
        (line, lines): its lines without line ends, blank ones included, the
        first of them file line `line`. Its rows are its non-blank lines
        split on commas, as csv.reader reads them; a block with none is
        skipped. The first block that is not plain (a quote, a NUL, a lone
        CR, a line at the field limit, or a non-blank line with another
        number of commas) goes to `resume`, as does a plain block where the
        caller stops (pass 1, at a bad cell). Iterating this object then
        gives the rows of the rest of the file: none after the last block.
        """
        width, limit = len(self.fields), csv.field_size_limit()
        line = self.line_num + 1
        while text := self._text.read(_CHARS):
            if text[-1] != "\n":
                text += self._text.readline()
            lines = text.replace("\r", "").split("\n")
            if text[-1] == "\n":
                del lines[-1]
            odd = set(map(str.count, filter(None, lines), itertools.repeat(","))) - {width - 1}
            long = len(text) >= limit and max(map(len, io.StringIO(text, newline=""))) >= limit
            if odd or long or '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
                # the text layer's newline="" splitting, which str.splitlines does not follow
                self.resume(io.StringIO(text, newline=""), line)
                return
            if any(lines):  # pass 1 would take the empty join of a blank block for one bad cell
                yield line, lines
            line += len(lines)


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
        the first such row. The file is read once.
        """
        with self.rows() as rows:
            j = _column_index(self.path, rows.fields, column)
            width, values = len(rows.fields), array.array("d")  # one buffer: freed block arrays stayed in RSS
            for line, part in rows.blocks():
                start = len(values)
                try:
                    values.extend(map(float, ",".join(filter(None, part)).split(",")[j::width]))
                    if np.isfinite(np.frombuffer(values[start:])).all():
                        continue
                except ValueError:
                    pass
                del values[start:]  # a bad cell: the row loop, from this block on, names the first one
                rows.resume(part, line)
                break
            for row in rows:  # what the blocks left
                try:
                    if math.isfinite(val := float(row[j])):
                        values.append(val)
                        continue
                except ValueError:
                    pass
                raise CsvFormatError(f"{self.path} row {rows.line_num}: {column}={row[j]!r} is not a finite number")
        if not values:
            raise CsvFormatError(f"{self.path}: no data rows")
        return np.frombuffer(values)

    def cells(self, column: str) -> list[str]:
        """The text cells of one column, one per data row."""
        with self.rows() as rows:
            k = _column_index(self.path, rows.fields, column)
            return [row[k] for row in rows]

    def write_column(self, out, column: str, values: np.ndarray, offset: int) -> None:
        """Pass 2: write the file to the text stream `out` with `values` in `column`.

        Every column so named is overwritten, or one is appended if there
        is none. The first and last `offset` data rows are left out, so
        `values` holds one number per remaining row, written with 17
        significant digits. Other cells pass through csv.writer unchanged.
        The one fast path is the appended column: the non-blank lines of a
        plain block are written as they were, plus the cell, by one `%`
        call on a template. A column filled in place goes through the row
        loop and csv.writer, a row at a time.
        """
        writer = csv.writer(out)
        with self.rows() as rows:
            slots = [j for j, name in enumerate(rows.fields) if name == column]
            writer.writerow(rows.fields if slots else rows.fields + [column])
            seen = 0  # data rows read
            for _, part in () if slots else rows.blocks():  # a column filled in place takes the row loop
                batch = list(filter(None, part))
                lo, hi = (min(max(edge - seen, 0), len(batch)) for edge in (offset, offset + values.size))
                if hi > lo:
                    template = "\n".join(batch[lo:hi]).replace("%", "%%").replace("\n", _APPENDED) + _APPENDED
                    out.write(template % tuple(values[seen + lo - offset : seen + hi - offset].tolist()))
                seen += len(batch)
            it = iter(rows)  # what the blocks left, as csv.reader reads it
            seen += sum(1 for _ in itertools.islice(it, max(offset - seen, 0)))
            k = min(max(seen - offset, 0), values.size)
            cells = _cells(values[k:])
            writer.writerows(_filled(itertools.islice(it, values.size - k), cells, slots))
            # a cell left unused is a row missing from the file
            seen += values.size - k - sum(1 for _ in cells) + sum(1 for _ in it)
        if seen != values.size + 2 * offset:
            raise _changed(self.path)


def _cells(values: np.ndarray):
    """The values as `_CELL` cells, formatted a block at a time."""
    return itertools.chain.from_iterable(
        [_CELL % v for v in values[i : i + _BLOCK].tolist()] for i in range(0, values.size, _BLOCK)
    )


def _filled(rows, cells, slots: list[int]):
    if not slots:
        for row, cell in zip(rows, cells):
            row.append(cell)
            yield row
    else:
        for row, cell in zip(rows, cells):
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
    f = _series(f)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        cells = _cells(f.values)
        if f.labels is not None:
            writer.writerow(["label", column])
            writer.writerows(zip(f.labels, cells))
        else:
            writer.writerow([column])
            writer.writerows(zip(cells))
