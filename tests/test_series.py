import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from smoothkit.kernels import GeneralKernel, constant_kernel, epanechnikov_kernel, triangle_kernel
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
        assert l2_norm(v) == float(np.linalg.norm(v))


# cells for generated CSV text: numbers as float() reads them, and cells that are not finite numbers
_NUMBERS = ["1", " 2.5 ", "-0", "1e-320", "+4_0", "1_0", '"3"']
_OTHERS = ["nan", "-inf", "", "abc", "0x10", '"a,b"', '"x\ny"']


@st.composite
def _csv_text(draw):
    header = draw(st.sampled_from(["value", "t,value", "value,t,note", "\ufefft,value,note"]))
    width = header.count(",") + 1
    full = st.lists(st.sampled_from(_NUMBERS), min_size=width, max_size=width)
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

    @pytest.mark.parametrize("bad", [False, True], ids=["good", "bad"])
    def test_values_reads_the_file_once(self, tmp_path, monkeypatch, bad):
        path = tmp_path / "series.csv"
        path.write_text("value\n1\n" + ("abc" if bad else "2") + "\n3\n")
        passes = []
        rows = CsvSource.rows

        def counted(source):
            passes.append(source)
            return rows(source)

        monkeypatch.setattr(CsvSource, "rows", counted)
        with CsvSource(path) as source:
            if bad:
                with pytest.raises(CsvFormatError, match="row 3: value='abc' is not a finite number"):
                    source.values("value")
            else:
                assert source.values("value").tolist() == [1.0, 2.0, 3.0]
        assert len(passes) == 1

    @settings(max_examples=150, deadline=None)
    @given(text=_csv_text())
    def test_values_match_rows_and_float(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("generated") / "series.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with CsvSource(path) as source:
            expected = _values_by_rows(source, "value")
            try:
                got = source.values("value").tolist()
            except CsvFormatError as exc:
                got = str(exc)
        assert got == expected

    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, TimeSeries([0.1, -1.0 / 3.0, 2.0**-40, 1e300, 5e-324]), column="x")
        assert path.read_bytes() == (
            b"x\r\n0.10000000000000001\r\n-0.33333333333333331\r\n9.0949470177292824e-13\r\n"
            b"1.0000000000000001e+300\r\n4.9406564584124654e-324\r\n"
        )
        write_csv(path, TimeSeries([1.5, -0.0, 100.0], labels=["a,b", 'q"', "line\nbreak"]))
        assert path.read_bytes() == b'label,value\r\n"a,b",1.5\r\n"q""",-0\r\n"line\nbreak",100\r\n'

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv(tmp_path / "absent.csv", "value")


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
