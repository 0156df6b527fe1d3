import csv
import io
import itertools
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from smoothkit import cli, series
from smoothkit.kernels import GeneralKernel, constant_kernel, epanechnikov_kernel, triangle_kernel, write_kernel_csv
from smoothkit.multiplier import operator_norm
from smoothkit.series import (
    BOUNDARY_MODES,
    CsvFormatError,
    CsvSource,
    TimeSeries,
    convolve,
    derivative,
    l2_norm,
    read_csv,
    write_csv,
)


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries([])
        with pytest.raises(ValueError):
            TimeSeries([1.0, math.nan])
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], labels=("a",))

    def test_labels_pass_through(self):
        ts = TimeSeries([1.0, 2.0], labels=["a", "b"])
        assert ts.labels == ("a", "b")
        assert len(ts) == 2


class TestConvolve:
    def test_identity_kernel(self):
        f = TimeSeries([0.0, 3.0, 0.0])
        for mode in ("reflect", "zero", "extend", "valid"):
            assert_allclose(convolve(constant_kernel(0), f, mode).values, f.values)
        # a half-width-0 kernel scales every value by its one weight, exactly
        u = GeneralKernel(0, [1 + 5e-10])
        g = TimeSeries([0.1, -2.7, 1e300], labels=["a", "b", "c"])
        for mode in BOUNDARY_MODES:
            out = convolve(u, g, mode)
            assert out.values.tolist() == (u.weights[0] * g.values).tolist()
            assert out.labels == g.labels

    def test_three_point_average_zero_boundary(self):
        f = TimeSeries([0.0, 3.0, 0.0])
        assert_allclose(convolve(constant_kernel(1), f, "zero").values, [1.0, 1.0, 1.0])

    def test_constant_input_extend(self):
        f = TimeSeries(np.full(11, 2.5))
        for u in (constant_kernel(3), triangle_kernel(2), epanechnikov_kernel(4)):
            assert_allclose(convolve(u, f, "extend").values, f.values, rtol=1e-15)

    def test_valid_shrinks(self):
        f = TimeSeries(np.arange(10.0), labels=[str(i) for i in range(10)])
        out = convolve(constant_kernel(2), f, "valid")
        assert len(out) == 6
        assert out.labels == tuple(str(i) for i in range(2, 8))

    def test_valid_requires_length(self):
        with pytest.raises(ValueError):
            convolve(constant_kernel(2), TimeSeries([1.0, 2.0]), "valid")

    def test_unknown_boundary(self):
        with pytest.raises(ValueError):
            convolve(constant_kernel(1), TimeSeries([1.0, 2.0, 3.0]), "wrap")

    def test_orientation_of_general_kernel(self):
        # u * f at k sums u(l) f(k - l); an off-center delta shifts right
        u = GeneralKernel(1, [0.0, 0.0, 1.0])  # u(1) = 1
        f = TimeSeries([0.0, 1.0, 0.0, 0.0])
        out = convolve(u, f, "zero")
        assert_allclose(out.values, [0.0, 0.0, 1.0, 0.0])


class TestDerivative:
    def test_first_difference(self):
        assert_allclose(derivative(TimeSeries([1.0, 2.0, 4.0]), 1).values, [1.0, 2.0])

    def test_second_difference(self):
        assert_allclose(derivative(TimeSeries([1.0, 2.0, 4.0]), 2).values, [1.0])

    def test_annihilates_affine(self):
        ramp = TimeSeries(3.0 * np.arange(20.0) - 5.0)
        assert_allclose(derivative(ramp, 2).values, np.zeros(18), atol=1e-12)

    def test_matches_stencil(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=30)
        lap = derivative(TimeSeries(v), 2).values
        assert_allclose(lap, v[2:] - 2 * v[1:-1] + v[:-2], rtol=1e-15)

    def test_too_short(self):
        with pytest.raises(ValueError):
            derivative(TimeSeries([1.0, 2.0]), 2)

    def test_overflow_names_the_order(self):
        with pytest.raises(ValueError, match="order-2 difference of this series overflows double precision"):
            derivative(TimeSeries([1.7e308, -1.7e308, 1.7e308]), 2)


class TestNorm:
    def test_pythagorean(self):
        assert l2_norm(TimeSeries([0.0, 3.0, 4.0])) == 5.0

    def test_impulse(self):
        assert l2_norm(TimeSeries([1.0])) == 1.0

    def test_plain_array(self):
        assert l2_norm([3.0, 4.0]) == 5.0

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 2.0**-1070, 1e307])
    def test_squares_neither_underflow_nor_overflow(self, scale):
        assert l2_norm(TimeSeries([3.0 * scale, 4.0 * scale])) == pytest.approx(5.0 * scale, rel=1e-15, abs=0)

    def test_norm_past_the_largest_double_is_inf(self):
        assert l2_norm([1.7e308, -1.7e308]) == math.inf

    def test_zero(self):
        assert l2_norm([0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("exponent", [-390, -100, 0, 100, 390])
    def test_ordinary_range_is_the_unscaled_norm(self, exponent):
        v = np.random.default_rng(exponent + 400).normal(size=50) * 2.0**exponent
        assert l2_norm(v) == math.sqrt(np.einsum("i,i->", v, v))


# cells for generated CSV text: numbers as float() reads them, and cells that are not finite numbers;
# \x0b, \x0c, \x85 and \u2028 are whitespace to float() and line ends to str.splitlines, not to csv
_NUMBERS = ["1", " 2.5 ", "-0", "1e-320", "+4_0", "1_0", '"3"', "\x0b1\x85", "\u20282\x0c"]
_OTHERS = ["nan", "-inf", "", "abc", "0x10", '"a,b"', '"x\ny"']
# pass-through cells that a format template must copy as they are
_TEXT = ["50%", "%s", "%%d", "%(t)s", "{}", "{0}", "a\x0bb", "\x85", "\u2028", "\x1e"]


@st.composite
def _csv_text(draw):
    header = draw(st.sampled_from(["value", "t,value", "value,t,note", "\ufefft,value,note"]))
    width = header.count(",") + 1
    j = header.lstrip("\ufeff").split(",").index("value")
    cell = [st.sampled_from(_NUMBERS + _TEXT)] * width
    cell[j] = st.sampled_from(_NUMBERS)
    full = st.tuples(*cell).map(list)
    other = st.lists(st.sampled_from(_NUMBERS + _OTHERS), max_size=width + 1)
    lead = [",".join(["0.5"] * width)] * draw(st.integers(0, 70))  # so the first bad row can lie deep
    lines = draw(st.lists(st.one_of(full, full, other).map(",".join), max_size=30))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header, *lead, *lines]) + newline


def _values_by_rows(source, column):
    """Reference for CsvSource.values: all rows read first, then each cell given to float()."""
    with source.rows() as rows:
        j = rows.fields.index(column)
        numbered, error = [], None
        try:
            for row in rows:
                numbered.append((rows.line_num, row[j]))
        except CsvFormatError as exc:
            error = str(exc)
    values = []
    for line, cell in numbered:
        try:
            v = float(cell)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            return f"{source.path} row {line}: {column}={cell!r} is not a finite number"
        values.append(v)
    return error or values or f"{source.path}: no data rows"


def _write_by_rows(source, column, values, offset):
    """Reference for CsvSource.write_column: the Rows loop and csv.writer, a row at a time.

    Returns the text written and the message of the error that stopped it, or None.
    """
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    cells = (f"{v:.17g}" for v in values.tolist())
    try:
        with source.rows() as rows:
            slots = [j for j, name in enumerate(rows.fields) if name == column]
            writer.writerow(rows.fields if slots else rows.fields + [column])
            it = iter(rows)
            head = sum(1 for _ in itertools.islice(it, offset))
            for row, cell in zip(itertools.islice(it, values.size), cells):
                for j in slots:
                    row[j] = cell
                writer.writerow(row if slots else row + [cell])
            if head != offset or next(cells, None) is not None or sum(1 for _ in it) != offset:
                raise CsvFormatError(f"{source.path}: changed while it was read")
    except CsvFormatError as exc:
        return out.getvalue(), str(exc)
    return out.getvalue(), None


def _written(source, column, values, offset):
    out = io.StringIO(newline="")
    try:
        source.write_column(out, column, values, offset)
    except CsvFormatError as exc:
        return out.getvalue(), str(exc)
    return out.getvalue(), None


def _row_count(source):
    """The data rows that Rows reads before its first error."""
    count = 0
    with source.rows() as rows:
        try:
            for _ in rows:
                count += 1
        except CsvFormatError:
            pass
    return count


# characters per block of whole lines: small sizes put block ends, and the
# hand-off to the row loop, at every row of the short generated files
_BLOCK_CHARS = st.sampled_from([1, 7, 40, 1 << 16])

# lines at the edge of what a plain block may hold, each placed where it falls
# in a block after the first; the header is "value,t"
_PAST_FIRST_BLOCK = {
    "quoted_newline": ['70000.5,"a\nb"'],
    "lone_cr": ["70000.5,a\r70000.75,b"],
    "nul": ["70000.5,a\x00b"],
    "long_cell": ["70000.5," + "7" * 200_000],
    "short_then_long_row": ["70000.5", "70001.5,a,b"],
    "whitespace_line": ["   "],
    "nan": ["nan,70000"],
    # pass 1 hands the plain block with the nan to the row loop, which could read on into the quoted row
    "nan_then_quoted_newline": ["nan,70000", "70000.5,a", '70001.5,"a\nb"'],
    "crlf": ["70000.5,a\r", "70001.5,b\r"],
    "no_line_end": None,
}


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        values = [0.1, -1.0 / 3.0, 1e-17, 12345.678901234567, 2.0**-40]
        write_csv(path, TimeSeries(values))
        back = read_csv(path, "value")
        assert_allclose(back.values, values, rtol=0, atol=0)

    def test_round_trip_with_labels(self, tmp_path):
        path = tmp_path / "series.csv"
        ts = TimeSeries([1.5, 2.5], labels=["2024-01-01", "2024-01-02"])
        write_csv(path, ts)
        back = read_csv(path, "value", label_column="label")
        assert back.labels == ts.labels
        assert_allclose(back.values, ts.values)

    def test_known_length(self, tmp_path):
        path = tmp_path / "lake.csv"
        rows = "\n".join(f"{i},{i * 0.5}" for i in range(14))
        path.write_text(f"day,level\n{rows}\n")
        assert len(read_csv(path, "level")) == 14

    def test_missing_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1.0\n")
        with pytest.raises(CsvFormatError, match="'height'"):
            read_csv(path, "height")

    def test_bad_row_named(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1.0\nabc\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            read_csv(path, "value")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\nnan\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            read_csv(path, "value")

    @pytest.mark.parametrize(
        "text, label, needle",
        [
            ("value,value\n1,2\n", None, "'value' appears more than once"),
            ("label,value,label\na,1,b\n", "label", "'label' appears more than once"),
            ("value\n1\n2,3\n", None, "row 3"),
            # csv.reader rejects a cell longer than 131072 characters
            ("value\n1\n" + "1" * 200_000 + "\n", None, "row 3: field larger than field limit"),
            ("1" * 200_000 + "\n1\n", None, "row 1: field larger than field limit"),
        ],
        ids=["duplicated_value", "duplicated_label", "long_row", "long_cell", "long_header_cell"],
    )
    def test_malformed_table(self, tmp_path, text, label, needle):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=needle):
            read_csv(path, "value", label_column=label)

    def test_rows_pad_and_skip(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text('t,value,note\n0,1.5,"a, b"\n\n1,2.5\n')
        with CsvSource(path) as source:
            with source.rows() as rows:
                assert rows.fields == ["t", "value", "note"]
                assert list(rows) == [["0", "1.5", "a, b"], ["1", "2.5", ""]]
            # every pass starts again at the first byte
            with source.rows() as rows:
                assert len(list(rows)) == 2
        ts = read_csv(path, "value")
        assert ts.values.tolist() == [1.5, 2.5]
        assert ts.labels is None
        assert read_csv(path, "value", label_column="note").labels == ("a, b", "")

    def test_error_names_file_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1\n\n\nabc\n")
        with pytest.raises(CsvFormatError, match="row 5"):
            read_csv(path, "value")

    @pytest.mark.parametrize(
        "bad, needle",
        [
            ("inf", "value='inf' is not a finite number"),
            ('""', "value='' is not a finite number"),
            ("1,2", "2 fields but the header has 1"),
        ],
        ids=["infinite", "empty", "long_row"],
    )
    @pytest.mark.parametrize("where", [3, 70_000])
    def test_first_error_in_any_block(self, tmp_path, bad, needle, where):
        # the error must name the first bad row, near the start of the file
        # or past row 2^16
        lines = [f"{i}.25" for i in range(70_001)]
        lines[where - 2] = bad
        lines[-1] = "nan"  # a later error must not win
        path = tmp_path / "series.csv"
        path.write_text("value\n" + "\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match=f"row {where}: {needle}"):
            read_csv(path, "value")

    def test_bulk_values_match_per_row_float(self, tmp_path):
        cells = ["1", " 2.5 ", "-0", "1e-320", "3", "+4_0", "1E+2", "\u0665"]
        path = tmp_path / "series.csv"
        path.write_text("value\n" + "\n".join(cells) + "\n", encoding="utf-8")
        got = read_csv(path, "value").values
        assert got.tolist() == [float(c) for c in cells]

    @pytest.mark.parametrize(
        "bad, where", [(False, 3), (True, 3), (True, 70_002)], ids=["good", "bad", "bad_past_first_block"]
    )
    def test_values_reads_the_file_once(self, tmp_path, monkeypatch, bad, where):
        path = tmp_path / "series.csv"
        lines = ["1"] * (where - 2) + ["abc" if bad else "2", "3"]
        path.write_text("value\n" + "\n".join(lines) + "\n")
        passes = []
        rows = CsvSource.rows

        def counted(source):
            passes.append(source)
            return rows(source)

        monkeypatch.setattr(CsvSource, "rows", counted)
        with CsvSource(path) as source:
            if bad:
                with pytest.raises(CsvFormatError, match=f"row {where}: value='abc' is not a finite number"):
                    source.values("value")
            else:
                assert source.values("value").tolist() == [1.0, 2.0, 3.0]
        assert len(passes) == 1

    @settings(max_examples=150, deadline=None)
    @given(text=_csv_text(), chars=_BLOCK_CHARS)
    def test_values_match_rows_and_float(self, tmp_path_factory, text, chars):
        path = tmp_path_factory.mktemp("generated") / "series.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with CsvSource(path) as source, mock.patch.object(series, "_CHARS", chars):
            expected = _values_by_rows(source, "value")
            try:
                got = source.values("value").tolist()
            except CsvFormatError as exc:
                got = str(exc)
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(
        text=_csv_text(),
        column=st.sampled_from(["smoothed", "value", "t"]),
        offset=st.sampled_from([0, 2]),
        extra=st.sampled_from([0, 0, 0, 1, -1]),
        chars=_BLOCK_CHARS,
    )
    def test_write_column_matches_rows_and_csv_writer(self, tmp_path_factory, text, column, offset, extra, chars):
        # "value" and "t" are filled in place where the header names them; extra != 0 is a changed file
        path = tmp_path_factory.mktemp("generated") / "series.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with CsvSource(path) as source, mock.patch.object(series, "_CHARS", chars):
            values = np.arange(max(_row_count(source) - 2 * offset + extra, 0)) / 3
            assert _written(source, column, values, offset) == _write_by_rows(source, column, values, offset)

    @pytest.mark.parametrize("case", list(_PAST_FIRST_BLOCK))
    def test_both_passes_past_the_first_block(self, tmp_path, case):
        # one case crosses a real block after 70 000 rows; the others reach
        # the same transitions after 40 rows in blocks of 40 characters
        rows, chars = (70_000, series._CHARS) if case == "quoted_newline" else (40, 40)
        lines = [f"{i}.25,{i}" for i in range(rows + 5)]
        lines[rows:rows] = _PAST_FIRST_BLOCK[case] or []
        path = tmp_path / "series.csv"
        path.write_text("\n".join(["value,t", *lines]) + ("" if case == "no_line_end" else "\n"), newline="")
        with CsvSource(path) as source, mock.patch.object(series, "_CHARS", chars):
            expected = _values_by_rows(source, "value")
            try:
                got = source.values("value").tolist()
            except CsvFormatError as exc:
                got = str(exc)
            assert got == expected
            values = np.arange(_row_count(source) - 4) / 3
            for column in ("smoothed", "t"):
                assert _written(source, column, values, 2) == _write_by_rows(source, column, values, 2)

    def test_a_block_of_blank_lines_leaves_the_blocks_plain(self, tmp_path):
        # the second block of 40 characters is blank lines only; no pass hands it to the row loop
        path = tmp_path / "series.csv"
        path.write_text("value,t\n0.5,0\n" + "\n" * 100 + "1.5,1\n")
        handed_off = AssertionError("handed to the row loop")
        with CsvSource(path) as source, mock.patch.object(series, "_CHARS", 40):
            with mock.patch.object(series.Rows, "resume", side_effect=handed_off):
                assert source.values("value").tolist() == [0.5, 1.5]
                written = _written(source, "smoothed", np.array([2.5, 3.5]), 0)
            assert written == _write_by_rows(source, "smoothed", np.array([2.5, 3.5]), 0)

    def test_header_is_the_first_non_blank_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("\n\r\nt,value\n0,1.5\n\n1,abc\n")
        with CsvSource(path) as source:
            with source.rows() as rows:
                assert rows.fields == ["t", "value"]
            with pytest.raises(CsvFormatError, match="row 6: value='abc' is not a finite number"):
                source.values("value")

    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, TimeSeries([0.1, -1.0 / 3.0, 2.0**-40, 1e300, 5e-324]), column="x")
        assert path.read_bytes() == (
            b"x\r\n0.10000000000000001\r\n-0.33333333333333331\r\n9.0949470177292824e-13\r\n"
            b"1.0000000000000001e+300\r\n4.9406564584124654e-324\r\n"
        )
        write_csv(path, TimeSeries([1.5, -0.0, 100.0], labels=["a,b", 'q"', "line\nbreak"]))
        assert path.read_bytes() == b'label,value\r\n"a,b",1.5\r\n"q""",-0\r\n"line\nbreak",100\r\n'

    def test_written_numbers_share_one_format(self, tmp_path):
        # write_csv, pass 2's template and its in-place cells all write these 17-digit cells
        values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, -1.0 / 3.0])
        cells = [b"-0", b"4.9406564584124654e-324", b"1.7976931348623157e+308", b"0.10000000000000001"]
        cells.append(b"-0.33333333333333331")
        path = tmp_path / "series.csv"
        write_csv(path, TimeSeries(values), column="x")
        assert path.read_bytes() == b"x\r\n" + b"".join(c + b"\r\n" for c in cells)
        with CsvSource(path) as source:
            assert source.values("x").tolist() == values.tolist()
            appended, error = _written(source, "y", values, 0)
            assert error is None
            assert appended.encode() == b"x,y\r\n" + b"".join(c + b"," + c + b"\r\n" for c in cells)
            assert _written(source, "x", values, 0) == (path.read_bytes().decode(), None)
        # so do a kernel file and the asympt table, each with "\n" line ends
        weights = np.array([-0.0, 5e-324, 0.1, -1.0 / 3.0, 1.0 - 0.1 + 1.0 / 3.0])
        kernel_cells = [cells[0], cells[1], cells[3], cells[4], b"1.2333333333333334"]
        write_kernel_csv(GeneralKernel(2, weights), tmp_path / "kernel.csv")
        assert (tmp_path / "kernel.csv").read_bytes() == b"k,weight\n" + b"".join(
            b"%d,%s\n" % (k, c) for k, c in zip(range(-2, 3), kernel_cells)
        )
        assert cli.main(["asympt", "--n", "2", "64", "4096", "--output", str(tmp_path / "asympt.csv")]) == 0
        header, *lines = (tmp_path / "asympt.csv").read_bytes().decode().split("\n")
        assert header == "n,optimal_scaled,epanechnikov_ratio,epanechnikov_vs_limit"
        assert len(lines) == 4 and lines[-1] == ""
        for line in lines[:-1]:
            assert all(c == series._CELL % float(c) for c in line.split(","))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv(tmp_path / "absent.csv", "value")

    def test_labels_of_a_file_that_grew_after_its_values(self, tmp_path, monkeypatch):
        path = tmp_path / "grows.csv"
        path.write_text("label,value\na,1\nb,2\n")
        values = CsvSource.values

        def values_then_append(source, column):
            out = values(source, column)
            with open(path, "a") as fh:
                fh.write("c,3\n")
            return out

        monkeypatch.setattr(CsvSource, "values", values_then_append)
        with pytest.raises(CsvFormatError, match="changed while it was read$"):
            read_csv(path, "value", label_column="label")

    @pytest.fixture
    def failing_spool(self, monkeypatch):
        """stdin is a pipe whose copy into a temporary file raises; yields the error and the files made."""
        error, made = OSError(28, "No space left on device"), []
        temporary = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda: made.append(temporary()) or made[-1])
        monkeypatch.setattr(series.shutil, "copyfileobj", mock.Mock(side_effect=error))
        read_end, write_end = os.pipe()
        os.write(write_end, b"t,level\n0,1\n")
        os.close(write_end)
        saved = os.dup(0)
        os.dup2(read_end, 0)
        os.close(read_end)
        try:
            yield error, made
        finally:
            os.dup2(saved, 0)
            os.close(saved)

    def test_failed_spool_closes_its_copy(self, failing_spool):
        error, made = failing_spool
        with pytest.raises(OSError) as info:
            CsvSource("/dev/stdin")
        assert info.value is error
        assert len(made) == 1 and made[0].closed

    def test_failed_spool_is_an_io_error_in_smooth(self, capsys, failing_spool):
        _, made = failing_spool
        code = cli.main(["smooth", "--input", "/dev/stdin", "--column", "level", "--type", "constant", "--n", "1"])
        assert (code, *capsys.readouterr()) == (3, "", "smoothkit: [Errno 28] No space left on device\n")
        assert len(made) == 1 and made[0].closed


class TestSmoothingInequality:
    def test_end_to_end(self):
        rng = np.random.default_rng(2024)
        kernels = [
            constant_kernel(10),
            triangle_kernel(10),
            epanechnikov_kernel(10),
        ]
        bounds = [operator_norm(u, 2).value for u in kernels]
        for _ in range(20):
            f = TimeSeries(rng.normal(size=1024))
            fn = l2_norm(f)
            for u, c in zip(kernels, bounds):
                smooth = convolve(u, f, "valid")
                assert l2_norm(derivative(smooth, 2)) <= c * fn * (1 + 1e-9)

    def test_mean_preserved_for_constants(self):
        f = TimeSeries(np.full(50, 7.25))
        out = convolve(triangle_kernel(4), f, "extend")
        assert_allclose(out.values, f.values, rtol=1e-15)
