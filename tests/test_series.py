import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothkit.kernels import GeneralKernel, constant_kernel, epanechnikov_kernel, triangle_kernel
from smoothkit.multiplier import operator_norm
from smoothkit.series import (
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


class TestNorm:
    def test_pythagorean(self):
        assert l2_norm(TimeSeries([0.0, 3.0, 4.0])) == 5.0

    def test_impulse(self):
        assert l2_norm(TimeSeries([1.0])) == 1.0

    def test_plain_array(self):
        assert l2_norm([3.0, 4.0]) == 5.0


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
        # cells are converted 2^16 at a time; the error must still name the
        # first bad row, in the first block or a later one
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
