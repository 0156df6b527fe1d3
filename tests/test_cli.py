import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from smoothkit import asymptotics, chebyshev, cli, extremal, kernels, multiplier, series, suites
from smoothkit.kernels import constant_kernel, epanechnikov_kernel, read_kernel_csv, write_kernel_csv
from smoothkit.multiplier import closed_form_c2, operator_norm
from test_series import _values_by_rows, _write_by_rows


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelCommand:
    def test_constant(self, capsys):
        code, out, _ = run(capsys, "kernel", "--type", "constant", "--n", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,weight"
        ks, ws = zip(*(line.split(",") for line in lines[1:]))
        assert list(ks) == ["-1", "0", "1"]
        assert all(abs(float(w) - 1 / 3) < 1e-15 for w in ws)

    def test_epanechnikov(self, capsys):
        code, out, _ = run(capsys, "kernel", "--type", "epanechnikov", "--n", "2")
        assert code == 0
        ws = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        np.testing.assert_allclose(ws, [0.0, 0.3, 0.4, 0.3, 0.0], atol=1e-15)

    def test_degenerate_epanechnikov(self, capsys):
        code, _, err = run(capsys, "kernel", "--type", "epanechnikov", "--n", "0")
        assert code == 2
        assert "half width" in err

    def test_missing_type(self, capsys):
        code, _, err = run(capsys, "kernel")
        assert code == 2

    def test_optimal_at_max_half_width(self, capsys):
        code, out, err = run(capsys, "kernel", "--type", "optimal", "--n", "4096")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 8194
        assert lines[0] == "k,weight"
        assert abs(sum(float(line.split(",")[1]) for line in lines[1:]) - 1.0) <= 1e-9

    def test_reader_closing_stdout_at_once(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "smoothkit.cli", "kernel", "--type", "optimal", "--n", "4096"],
                stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestKernelFileErrors:
    """A kernel file is a CSV: every problem with its content exits 3 and names the file."""

    @pytest.fixture
    def data_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,level\n0,1\n1,2\n2,3\n")
        return path

    @pytest.fixture(params=["norm", "smooth"])
    def command(self, request, data_csv):
        if request.param == "norm":
            return ["norm"]
        return ["smooth", "--input", str(data_csv), "--column", "level"]

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("weight,k\n0,1\n", ": expected header 'k,weight'"),
            ("", ": expected header 'k,weight'"),
            ("k,weight\n-1,0.25\n0\n1,0.25\n", " row 3: cannot parse ['0', '']"),
            ("k,weight\n0,1,2\n", " row 2: 3 fields but the header has 2"),
            ("k,weight\n0,abc\n", " row 2: cannot parse ['0', 'abc']"),
            ("k,weight\n-1,0.5\n1,0.5\n", ": indices must run contiguously from -n to n"),
            ("k,weight\n-1,nan\n0,0.5\n1,0.5\n", ": kernel weights must be finite"),
            ("k,weight\n-1,0.5\n0,0.5\n1,0.5\n", ": kernel weights must sum to 1"),
            ('k,weight\n-1,0.25\n"0\n",0.5\n1,x\n', " row 5: cannot parse ['1', 'x']"),
            ("k,weight\n0," + "1" * 200_000 + "\n", " row 2: field larger than field limit (131072)"),
        ],
        ids=["header", "empty", "short_row", "long_row", "unparseable", "index_gap",
             "nan_weight", "unnormalized", "after_multiline_record", "cell_over_field_limit"],
    )
    def test_defect_exits_3(self, capsys, tmp_path, command, text, needle):
        path = tmp_path / "k.csv"
        path.write_text(text)
        with pytest.raises(series.CsvFormatError):
            read_kernel_csv(path)
        code, out, err = run(capsys, *command, "--file", str(path))
        assert (code, out) == (3, "")
        assert err == f"smoothkit: {path}{needle}\n"

    def test_half_width_cap(self, capsys, tmp_path, command):
        path = tmp_path / "k.csv"
        write_kernel_csv(constant_kernel(4096), path)
        assert read_kernel_csv(path).half_width == 4096
        write_kernel_csv(constant_kernel(4097), path)
        code, out, err = run(capsys, *command, "--file", str(path))
        assert (code, out) == (3, "")
        assert err == f"smoothkit: {path} row 8195: more than 8193 rows (half width > 4096)\n"


class TestNormCommand:
    def test_optimal_gap_near_zero(self, capsys):
        code, out, _ = run(capsys, "norm", "--type", "optimal", "--n", "10", "--order", "2")
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 2
        assert report["half_width"] == 10
        assert abs(report["value"] - closed_form_c2(10)) <= 1e-9 * closed_form_c2(10)
        assert report["closed_form"] == pytest.approx(closed_form_c2(10), rel=1e-15)
        assert abs(report["gap"]) <= 1e-9

    def test_triangle_value(self, capsys):
        code, out, _ = run(capsys, "norm", "--type", "triangle", "--n", "3", "--order", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.25, abs=1e-12)

    def test_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "k.csv"
        code, out, _ = run(
            capsys, "kernel", "--type", "constant", "--n", "4", "--output", str(path)
        )
        assert code == 0
        code, out, _ = run(capsys, "norm", "--file", str(path), "--order", "1")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(2.0 / 9.0, abs=1e-10)
        library = operator_norm(read_kernel_csv(path), 1).value
        assert abs(report["value"] - library) <= 1e-12

    def test_polynomial_method_needs_symmetry(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("k,weight\n-1,0\n0,0.3\n1,0.7\n")
        code, _, err = run(
            capsys, "norm", "--file", str(path), "--order", "2", "--method", "polynomial"
        )
        assert code == 2
        assert "symmetric" in err

    def test_polynomial_method_matches_torus(self, capsys):
        code, out, _ = run(
            capsys, "norm", "--type", "epanechnikov", "--n", "6", "--method", "polynomial"
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "polynomial_form"
        torus = operator_norm(epanechnikov_kernel(6), 2).value
        assert report["value"] == pytest.approx(torus, rel=1e-9)

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "norm", "--file", str(tmp_path / "missing.csv"), "--order", "2")
        assert code == 3

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("k,weight\n0,1.0\n")
        code, _, err = run(capsys, "norm", "--type", "constant", "--n", "1", "--file", str(path))
        assert code == 2

    def test_byte_order_mark_file(self, capsys, tmp_path):
        plain = tmp_path / "k.csv"
        run(capsys, "kernel", "--type", "triangle", "--n", "5", "--output", str(plain))
        bom = tmp_path / "k_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(capsys, "norm", "--file", str(plain), "--order", "2")
        assert expected[0] == 0
        assert run(capsys, "norm", "--file", str(bom), "--order", "2") == expected


class TestSmoothCommand:
    @pytest.fixture
    def noise_csv(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "noise.csv"
        rows = "\n".join(f"{i},{v:.17g}" for i, v in enumerate(rng.normal(size=400)))
        path.write_text(f"t,level\n{rows}\n")
        return path

    def test_constant_column_unchanged(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{i},4.5" for i in range(30))
        path.write_text(f"t,level\n{rows}\n")
        code, out, err = run(
            capsys,
            "smooth",
            "--input",
            str(path),
            "--column",
            "level",
            "--type",
            "triangle",
            "--n",
            "3",
            "--boundary",
            "extend",
        )
        assert code == 0
        smoothed = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
        np.testing.assert_allclose(smoothed, np.full(30, 4.5), rtol=1e-15)

    def test_noise_obeys_sharp_bound(self, capsys, noise_csv):
        code, out, err = run(
            capsys,
            "smooth",
            "--input",
            str(noise_csv),
            "--column",
            "level",
            "--type",
            "optimal",
            "--n",
            "10",
            "--boundary",
            "valid",
        )
        assert code == 0
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["rayleigh_quotient"] <= closed_form_c2(10)
        assert len(out.strip().splitlines()) == 1 + 400 - 20

    def test_missing_column(self, capsys, noise_csv):
        code, _, err = run(
            capsys,
            "smooth",
            "--input",
            str(noise_csv),
            "--column",
            "height",
            "--type",
            "constant",
            "--n",
            "2",
        )
        assert code == 3
        assert "height" in err

    def test_unparseable_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,level\n0,1.0\n1,abc\n")
        code, _, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level",
            "--type", "constant", "--n", "1",
        )
        assert code == 3
        assert "row 3" in err

    def test_determinism(self, capsys, noise_csv):
        args = (
            "smooth", "--input", str(noise_csv), "--column", "level",
            "--type", "epanechnikov", "--n", "5",
        )
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args)
        assert (code1, out1, err1) == (code2, out2, err2)

    def test_file_kernel_source(self, capsys, noise_csv, tmp_path):
        path = tmp_path / "k.csv"
        code, _, _ = run(capsys, "kernel", "--type", "triangle", "--n", "2", "--output", str(path))
        assert code == 0
        code, out, _ = run(
            capsys, "smooth", "--input", str(noise_csv), "--column", "level",
            "--file", str(path),
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 401

    def test_valid_boundary_needs_length(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("level\n1.0\n2.0\n")
        code, _, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level",
            "--type", "constant", "--n", "3", "--boundary", "valid",
        )
        assert code == 2
        assert "shorter" in err

    def test_overflowing_difference_comes_before_output(self, capsys, tmp_path):
        path = tmp_path / "alternating.csv"
        path.write_text("level\n" + "".join(f"{1.7e308 * (-1) ** k!r}\n" for k in range(8)))
        code, out, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level",
            "--type", "constant", "--n", "0",
        )
        assert (code, out) == (2, "")
        assert err == "smoothkit: the order-2 difference of this series overflows double precision\n"

    def test_huge_ramp_gives_a_finite_summary(self, capsys, tmp_path):
        path = tmp_path / "ramp.csv"
        path.write_text("level\n" + "".join(f"{1e200 * k!r}\n" for k in range(20)))
        code, out, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level",
            "--type", "constant", "--n", "0",
        )
        assert code == 0
        assert len(out.splitlines()) == 21

        def not_json(name):
            raise ValueError(f"{name} is not JSON")

        summary = json.loads(err, parse_constant=not_json)
        assert summary["input_l2"] == pytest.approx(1e200 * math.sqrt(sum(k * k for k in range(20))), rel=1e-15)
        assert all(math.isfinite(v) for v in summary.values())

    def test_norm_past_the_largest_double_is_left_out(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("level\n" + "1.7e308\n" * 5)
        code, out, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level",
            "--type", "constant", "--n", "0",
        )
        assert code == 0
        assert out.splitlines() == ["level,smoothed"] + ["1.7e308,1.6999999999999999e+308"] * 5
        assert json.loads(err) == {"laplacian_input_l2": 0.0, "laplacian_smoothed_l2": 0.0}

    def test_zero_column_leaves_out_the_ratios(self, capsys, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text("level\n0\n0\n0\n0\n")
        code, out, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level",
            "--type", "optimal", "--n", "1",
        )
        assert code == 0
        assert out.splitlines()[1:] == ["0,0"] * 4
        assert json.loads(err) == {"input_l2": 0.0, "laplacian_input_l2": 0.0, "laplacian_smoothed_l2": 0.0}

    def test_csv_rules_byte_exact(self, capsys, tmp_path):
        # quoted comma, blank line, short row and an existing "smoothed" column
        path = tmp_path / "mixed.csv"
        path.write_bytes(
            b't,level,smoothed,note\r\n0,1.5,old,"a, b"\r\n\r\n1,2.5,old\r\n2,4,old,"c"\r\n3,8,old,d\r\n'
        )
        code, out, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level",
            "--type", "constant", "--n", "1", "--boundary", "extend",
        )
        assert code == 0
        assert out == (
            "t,level,smoothed,note\r\n"
            '0,1.5,1.8333333333333333,"a, b"\r\n'
            "1,2.5,2.6666666666666665,\r\n"
            "2,4,4.833333333333333,c\r\n"
            "3,8,6.6666666666666661,d\r\n"
        )
        assert err == (
            '{"input_l2": 9.40744386111339, "laplacian_input_l2": 2.5495097567963922, '
            '"laplacian_smoothed_l2": 1.3743685418725535, "rayleigh_quotient": 0.14609372770786797, '
            '"laplacian_ratio": 0.5390716933750933}\n'
        )

    def test_blank_lines_before_the_headers(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("t,level\n0,1\n1,4\n2,2\n")
        kernel = tmp_path / "k.csv"
        kernel.write_text("k,weight\n-1,0.25\n0,0.5\n1,0.25\n")
        argv = ("smooth", "--input", str(data), "--column", "level", "--file", str(kernel))
        expected = run(capsys, *argv)
        assert expected[0] == 0
        data.write_text("\n" + data.read_text())
        kernel.write_text("\r\n\n" + kernel.read_text())
        assert run(capsys, *argv) == expected

    def test_unrelated_duplicate_columns_pass_through(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,level\n1,2,3\n4,5,6\n")
        code, out, _ = run(
            capsys, "smooth", "--input", str(path), "--column", "level",
            "--type", "constant", "--n", "0",
        )
        assert code == 0
        assert out == "a,a,level,smoothed\r\n1,2,3,3\r\n4,5,6,6\r\n"

    @pytest.mark.parametrize("header", ["level,t", "t,level"])
    def test_byte_order_mark_input(self, capsys, tmp_path, header):
        # the mark belongs to the file, never to the first column's name or the output header
        values = [f"{v:.17g}" for v in np.random.default_rng(8).normal(size=200)]
        rows = [(v, i) if header == "level,t" else (i, v) for i, v in enumerate(values)]
        text = header + "\n" + "".join(f"{a},{b}\n" for a, b in rows)
        plain = tmp_path / "plain.csv"
        plain.write_text(text)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        argv = ("--column", "level", "--type", "optimal", "--n", "6")
        expected = run(capsys, "smooth", "--input", str(plain), *argv)
        assert expected[0] == 0
        assert run(capsys, "smooth", "--input", str(bom), *argv) == expected

    @pytest.fixture(params=["type", "file"])
    def kernel_source(self, request, tmp_path):
        if request.param == "type":
            return ["--type", "constant", "--n", "1"]
        path = tmp_path / "k.csv"
        path.write_text("k,weight\n0,1\n")
        return ["--file", str(path)]

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("t,level\n0,1\n1,nan\n2,3\n", "row 3"),
            ("level,t,level\n1,0,10\n2,1,20\n", "'level' appears more than once"),
            ("t,level\n0,1\n1,2,3\n2,3\n", "row 3"),
            (
                "t,level\n0,1\n1," + "1" * 200_000 + "\n2,3\n",
                "bad.csv row 3: field larger than field limit (131072)",
            ),
        ],
        ids=["nan_cell", "duplicated_column", "long_row", "cell_over_field_limit"],
    )
    def test_malformed_csv_is_io_error(self, capsys, tmp_path, kernel_source, text, needle):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, out, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level", *kernel_source
        )
        assert code == 3
        assert out == ""
        assert needle in err

    def test_input_not_utf8_is_io_error(self, capsys, tmp_path, kernel_source):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,level\n0,1\xe9\n")
        code, out, err = run(
            capsys, "smooth", "--input", str(path), "--column", "level", *kernel_source
        )
        assert (code, out) == (3, "")
        assert "can't decode byte 0xe9" in err


def _child_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _walk_csv(path, rows, seed=5):
    level = np.cumsum(np.random.default_rng(seed).standard_normal(rows))
    path.write_text("t,level\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(level)))
    return path


class TestSmoothStreaming:
    """smooth reads its input twice: values first, then the rows it writes."""

    ARGS = ("--column", "level", "--type", "epanechnikov", "--n", "7", "--boundary", "valid")

    @pytest.fixture
    def walk(self, tmp_path):
        return _walk_csv(tmp_path / "walk.csv", 3000)

    @pytest.fixture
    def expected(self, capsys, walk):
        code, out, err = run(capsys, "smooth", "--input", str(walk), *self.ARGS)
        assert code == 0
        return out.encode(), err.encode()

    def test_stdin_pipe_is_spooled(self, walk, expected):
        proc = subprocess.run(
            [sys.executable, "-m", "smoothkit.cli", "smooth", "--input", "/dev/stdin", *self.ARGS],
            input=walk.read_bytes(), capture_output=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == expected

    def test_fifo_is_spooled(self, capsys, tmp_path, walk, expected):
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(walk.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        code, out, err = run(capsys, "smooth", "--input", str(fifo), *self.ARGS)
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert code == 0
        assert (out.encode(), err.encode()) == expected

    def test_output_over_its_own_input(self, capsys, tmp_path, walk, expected):
        same = tmp_path / "same.csv"
        same.write_bytes(walk.read_bytes())
        code, out, err = run(capsys, "smooth", "--input", str(same), *self.ARGS, "--output", str(same))
        assert code == 0
        assert out == ""
        assert (same.read_bytes(), err.encode()) == expected

    def test_reader_closing_stdout_early(self, tmp_path):
        walk = _walk_csv(tmp_path / "long.csv", 20_000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "smoothkit.cli", "smooth", "--input", str(walk), *self.ARGS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        try:
            assert proc.stdout.readline() == b"t,level,smoothed\r\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["rayleigh_quotient"] > 0

    @pytest.mark.parametrize(
        "last, needle",
        [
            ("70000,nan", "row 70002: level='nan' is not a finite number"),
            ("70000,1,2", "row 70002: 3 fields but the header has 2"),
        ],
        ids=["non_finite", "long_row"],
    )
    def test_error_on_last_row_comes_before_output(self, capsys, tmp_path, last, needle):
        path = tmp_path / "bad.csv"
        path.write_text("t,level\n" + "".join(f"{i},{i}.5\n" for i in range(70_000)) + last + "\n")
        out_path = tmp_path / "out.csv"
        for output in ((), ("--output", str(out_path))):
            code, out, err = run(capsys, "smooth", "--input", str(path), *self.ARGS, *output)
            assert code == 3
            assert out == ""
            assert err == f"smoothkit: {path} {needle}\n"
            assert not out_path.exists()

    @pytest.mark.parametrize("boundary", series.BOUNDARY_MODES)
    def test_bytes_match_the_row_loop(self, capsys, monkeypatch, tmp_path, boundary):
        # one real-size file crosses 2^16-character blocks; the others cross
        # blocks of 256 characters, about 10 rows each
        if boundary == "reflect":
            walk = _walk_csv(tmp_path / "walk.csv", 70_000)
        else:
            walk = _walk_csv(tmp_path / "walk.csv", 300)
            monkeypatch.setattr(series, "_CHARS", 256)
        argv = ("--column", "level", "--type", "epanechnikov", "--n", "7", "--boundary", boundary)
        code, out, err = run(capsys, "smooth", "--input", str(walk), *argv)
        assert code == 0
        with series.CsvSource(walk) as source:
            ts = series.TimeSeries(_values_by_rows(source, "level"))
            smoothed = series.convolve(epanechnikov_kernel(7), ts, boundary)
            offset = 7 if boundary == "valid" else 0
            assert (out, None) == _write_by_rows(source, "smoothed", smoothed.values, offset)
        l2_in = series.l2_norm(ts)
        lap_in, lap_out = (series.l2_norm(series.derivative(f, 2)) for f in (ts, smoothed))
        summary = {
            "input_l2": l2_in, "laplacian_input_l2": lap_in, "laplacian_smoothed_l2": lap_out,
            "rayleigh_quotient": lap_out / l2_in, "laplacian_ratio": lap_out / lap_in,
        }
        assert err == json.dumps(summary) + "\n"

    @pytest.mark.parametrize("change", ["append", "truncate"])
    def test_input_changed_between_passes(self, capsys, monkeypatch, tmp_path, walk, change):
        convolve = series.convolve

        def convolve_then_edit(*args, **kwargs):
            text = walk.read_text()
            walk.write_text(text + "3000,1\n" if change == "append" else text[: len(text) // 2])
            return convolve(*args, **kwargs)

        monkeypatch.setattr(series, "convolve", convolve_then_edit)
        code, _, err = run(capsys, "smooth", "--input", str(walk), *self.ARGS)
        assert code == 3
        assert err == f"smoothkit: {walk}: changed while it was read\n"

    def test_memory_bounded_by_the_value_column(self, tmp_path):
        # 3e5 rows: holding every row as strings grew the peak RSS by 139 MB
        walk = _walk_csv(tmp_path / "big.csv", 300_000)
        code = (
            "import resource, sys\n"
            "from smoothkit import cli\n"
            "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = rss()\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, (rss() - before) / 1024)\n"
        )
        # Linux carries the spawning process's peak RSS over into the child's
        # ru_maxrss, so a bare interpreter spawns the child instead of pytest
        launch = "import subprocess, sys; raise SystemExit(subprocess.call([sys.executable, *sys.argv[1:]]))"
        argv = ["smooth", "--input", str(walk), "--column", "level", "--type", "optimal",
                "--n", "64", "--output", str(tmp_path / "out.csv")]
        proc = subprocess.run(
            [sys.executable, "-c", launch, "-c", code, *argv],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        rc, growth_mb = proc.stdout.split()
        assert rc == "0", proc.stderr
        assert float(growth_mb) <= 60.0


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "extremal", "--n-max", "8")
        assert code == 0
        summary = json.loads(out)
        assert summary["all_passed"]
        assert summary["suites"]["extremal"]["passed"]

    def test_injected_bug_fails(self, capsys, monkeypatch):
        original = extremal.alpha_closed_form
        monkeypatch.setattr(extremal, "alpha_closed_form", lambda d: -original(d))
        code, out, _ = run(capsys, "verify", "--suite", "extremal", "--n-max", "4")
        assert code == 1
        assert not json.loads(out)["all_passed"]

    def test_construction_self_check_is_a_failed_check(self, capsys, monkeypatch):
        original = extremal.transform
        monkeypatch.setattr(extremal, "transform", lambda v: original(np.asarray(v) * 1.001))
        code, out, _ = run(capsys, "verify", "--suite", "extremal", "--n-max", "4")
        assert code == 1
        checks = json.loads(out)["suites"]["extremal"]["checks"]
        assert [c["name"] for c in checks] == ["construction_self_check"]
        assert checks[0]["detail"].startswith("ConstructionError: S(1) = ")

    def test_other_exception_in_a_suite_is_an_internal_error(self, capsys, monkeypatch):
        # only the construction's self-check is a failed check; a crash in a check is not
        original = multiplier.closed_form_c2
        monkeypatch.setattr(multiplier, "closed_form_c2", lambda n: 0.0 if n == 3 else original(n))
        code, out, err = run(capsys, "verify", "--suite", "multiplier", "--n-max", "8")
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err == "smoothkit: internal error: ZeroDivisionError: float division by zero\n"

    def test_epanechnikov_ratio_off_its_limit_fails(self, capsys, monkeypatch):
        original = asymptotics.epanechnikov_ratio
        monkeypatch.setattr(asymptotics, "epanechnikov_ratio", lambda n: 1.02 * original(n))
        code, out, _ = run(capsys, "verify", "--suite", "asymptotics")
        assert code == 1
        checks = json.loads(out)["suites"]["asymptotics"]["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == ["epanechnikov_ratio_reported"]

    def test_tolerances_are_fixed(self, capsys, monkeypatch):
        # no environment variable scales a tolerance, whatever it holds
        monkeypatch.delenv("SMOOTHKIT_TOL_SCALE", raising=False)
        plain = run(capsys, "verify", "--suite", "all", "--n-max", "16")
        assert plain[0] == 0
        assert list(json.loads(plain[1])) == ["n_max", "suites", "all_passed"]
        for raw in ("1e-30", "zero"):
            monkeypatch.setenv("SMOOTHKIT_TOL_SCALE", raw)
            assert run(capsys, "verify", "--suite", "all", "--n-max", "16") == plain

    def test_report_lists_every_check_in_order(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "16")
        assert code == 0
        suites = json.loads(out)["suites"]
        assert [(name, [c["name"] for c in s["checks"]]) for name, s in suites.items()] == [
            (
                "extremal",
                ["alpha_monotone_decreasing", "equioscillation", "alternation_count"],
            ),
            (
                "multiplier",
                [
                    "optimal_matches_closed_form",
                    "constant_first_order",
                    "triangle_second_order",
                    "dual_path_agreement",
                    "sharp_lower_bound",
                    "first_order_lower_bound",
                    "symmetrization_contraction",
                    "rayleigh_below_norm",
                    "optimal_scaled_limit",
                ],
            ),
            (
                "asymptotics",
                [
                    "mu_constants",
                    "mu_is_maximum",
                    "difference_identity",
                    "beat_bound",
                    "scaled_symbol_convergence",
                    "series_vs_trig_form",
                    "interval_split_bound",
                    "epanechnikov_ratio_reported",
                ],
            ),
        ]
        details = {c["name"]: c["detail"] for s in suites.values() for c in s["checks"]}
        for name, prefix, limit in (
            ("optimal_matches_closed_form", "n <= 16, worst rel err ", 1e-9),
            ("constant_first_order", "worst abs err ", 1e-9),
            ("triangle_second_order", "worst abs err ", 1e-9),
            ("difference_identity", "n <= 16, worst residual/n^2 ", 1e-8),
        ):
            assert details[name].startswith(prefix)
            assert 0.0 <= float(details[name][len(prefix):]) <= limit
        # the certificate's sweep gives its worst residual and both ends' worst distance from alpha
        number = r"([0-9.e+-]+)"
        worst = re.fullmatch(
            rf"d <= 16, worst residual/min\(1, alpha\) {number}, worst upper/alpha - 1 {number}, "
            rf"worst \(alpha - lower\)/alpha {number}",
            details["equioscillation"],
        )
        assert worst, details["equioscillation"]
        assert all(0.0 <= float(value) <= 1e-9 for value in worst.groups())

    @pytest.mark.parametrize("n_max", ["-5", "0", "4097"])
    def test_n_max_out_of_range_is_usage_error(self, capsys, n_max):
        code, out, err = run(capsys, "verify", "--suite", "all", "--n-max", n_max)
        assert code == 2
        assert out == ""
        assert "n_max must be in [1, 4096]" in err


class TestAsymptCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "asympt", "--n", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,optimal_scaled,epanechnikov_ratio,epanechnikov_vs_limit"
        n, scaled, ratio, rel = lines[1].split(",")
        assert n == "64"
        assert float(scaled) == pytest.approx(
            closed_form_c2(64) * 65**2 / math.pi, rel=1e-15
        )
        assert float(rel) == pytest.approx(1.0, abs=1e-3)

    def test_range_error(self, capsys):
        code, _, err = run(capsys, "asympt", "--n", "1")
        assert code == 2


class TestInternalError:
    def test_unexpected_exception_exits_4_without_traceback(self, capsys, monkeypatch):
        def broken(n):
            raise ArithmeticError("round-trip check failed")

        monkeypatch.setattr(kernels, "optimal_kernel", broken)
        code, out, err = run(capsys, "kernel", "--type", "optimal", "--n", "8")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "smoothkit: internal error: ArithmeticError: round-trip check failed\n"


class TestFailedConstruction:
    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--type", "optimal", "--n", "5"],
            ["norm", "--type", "optimal", "--n", "5"],
            ["smooth", "--type", "optimal", "--n", "5", "--input", "{data}", "--column", "level"],
        ],
        ids=["kernel", "norm", "smooth"],
    )
    def test_self_check_failure_exits_1(self, capsys, monkeypatch, tmp_path, argv):
        data = tmp_path / "data.csv"
        data.write_text("t,level\n" + "".join(f"{i},{i * i}\n" for i in range(20)))
        original = extremal.transform
        monkeypatch.setattr(extremal, "transform", lambda v: original(np.asarray(v) * 1.001))
        code, out, err = run(capsys, *(a.format(data=data) for a in argv))
        assert (code, out) == (cli.EXIT_VERIFY, "")
        assert err.startswith("smoothkit: S(1) = ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestArgumentRanges:
    """Half widths past 4096 and orders outside [1, 1023] are usage errors, each one line."""

    @pytest.fixture(params=["kernel", "norm", "smooth"])
    def command(self, request, tmp_path):
        if request.param == "smooth":
            path = tmp_path / "data.csv"
            path.write_text("t,level\n0,1\n1,2\n2,3\n")
            return ["smooth", "--input", str(path), "--column", "level"]
        return [request.param]

    @pytest.mark.parametrize("kind", cli.KERNEL_TYPES)
    def test_named_kernel_past_max_half_width(self, capsys, command, kind):
        code, out, err = run(capsys, *command, "--type", kind, "--n", "4097")
        assert (code, out) == (2, "")
        assert err == "smoothkit: half width must be in [0, 4096]\n"

    @pytest.mark.parametrize("kind", ["constant", "triangle", "epanechnikov"])
    def test_named_kernel_at_max_half_width(self, capsys, kind):
        code, out, err = run(capsys, "kernel", "--type", kind, "--n", "4096")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 8194

    @pytest.mark.parametrize("order", ["0", "1024", "100000000"])
    def test_order_out_of_range(self, capsys, order):
        code, out, err = run(capsys, "norm", "--type", "constant", "--n", "1", "--order", order)
        assert (code, out) == (2, "")
        assert err == "smoothkit: difference order must be in [1, 1023]\n"

    def test_symbol_overflow(self, capsys, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("k,weight\n-1,5\n0,-9\n1,5\n")
        code, out, err = run(capsys, "norm", "--file", str(path), "--order", "1023")
        assert (code, out) == (2, "")
        assert err == "smoothkit: the order-1023 symbol of this kernel overflows double precision\n"
        code, out, err = run(capsys, "norm", "--file", str(path), "--order", "1019")
        assert (code, err) == (0, "")
        assert out == (
            '{"order": 1019, "half_width": 1, "value": 1.0673802988245e+308, '
            '"argmax_xi": 3.141592653589793, "method": "torus_grid"}\n'
        )


class TestDeterminism:
    def test_norm_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "norm", "--type", "optimal", "--n", "12")
        code2, out2, _ = run(capsys, "norm", "--type", "optimal", "--n", "12")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_kernel_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "kernel", "--type", "optimal", "--n", "9")
        code2, out2, _ = run(capsys, "kernel", "--type", "optimal", "--n", "9")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "all", "--n-max", "8")
        code2, out2, _ = run(capsys, "verify", "--suite", "all", "--n-max", "8")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_asympt_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "asympt", "--n", "16", "64")
        code2, out2, _ = run(capsys, "asympt", "--n", "16", "64")
        assert code1 == code2 == 0
        assert out1 == out2


class TestDependencies:
    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, smoothkit, smoothkit.cli; print('scipy' in sys.modules)"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "False\n"


_X = np.linspace(-1.0, 0.5, 4)

# documented ValueErrors of the library, each with the start of its message
_LIBRARY_ERRORS = {
    "polynomial_norm_of_general_kernel": (
        lambda: multiplier.operator_norm_via_polynomial(kernels.GeneralKernel(0, [1.0])),
        "polynomial form needs a symmetric kernel",
    ),
    "closed_form_c2_negative": (lambda: closed_form_c2(-1), "half width must be nonnegative"),
    "wave_packet_empty": (lambda: multiplier.wave_packet(1.0, 1.0, 0), "length must be positive"),
    "wave_packet_nan_sigma": (lambda: multiplier.wave_packet(1.0, math.nan, 100), "sigma must be finite"),
    "wave_packet_inf_sigma": (lambda: multiplier.wave_packet(1.0, math.inf, 100), "sigma must be finite"),
    "wave_packet_nan_xi_star": (lambda: multiplier.wave_packet(math.nan, 1.0, 100), "xi_star must be finite"),
    "wave_packet_inf_xi_star": (lambda: multiplier.wave_packet(math.inf, 1.0, 100), "xi_star must be finite"),
    "wave_packet_huge_xi_star": (
        lambda: multiplier.wave_packet(1e308, 1.0, 100),
        r"xi_star is too large: xi_star \* \(length - 1\) overflows",
    ),
    "wave_packet_tiny_sigma": (
        lambda: multiplier.wave_packet(1.0, 1e-170, 10),
        r"sigma is too small: \(length - 1\)\^2 / \(8 sigma\^2\) overflows",
    ),
    "verify_equioscillation_nan": (
        lambda: extremal.verify_equioscillation(extremal.build_solution(2), math.nan),
        "tolerance must be finite",
    ),
    "verify_equioscillation_inf": (
        lambda: extremal.verify_equioscillation(extremal.build_solution(2), math.inf),
        "tolerance must be finite",
    ),
    "constant_kernel_negative": (lambda: constant_kernel(-1), "half width must be nonnegative"),
    "triangle_kernel_negative": (lambda: kernels.triangle_kernel(-1), "half width must be nonnegative"),
    "derivative_order_0": (
        lambda: series.derivative(series.TimeSeries([1.0, 2.0]), 0),
        "difference order must be at least 1",
    ),
    "transform_empty": (lambda: chebyshev.transform([]), "transform needs a non-empty 1-D sample vector"),
    "transform_nan": (lambda: chebyshev.transform([math.nan]), "samples must be finite"),
    "transform_overflow": (
        lambda: chebyshev.transform([1.797e308, 1.797e308]),
        "samples overflow the transform's FFT",
    ),
    "clenshaw_eval_nan": (
        lambda: chebyshev.clenshaw_eval(chebyshev.ChebSeries([1.0, 2.0]), math.nan),
        r"evaluation point outside \[-1, 1\] beyond the clamp band",
    ),
    "clenshaw_eval_overflow": (
        lambda: chebyshev.clenshaw_eval(chebyshev.ChebSeries([1e308] * 3), [1.0, 0.5]),
        "Clenshaw evaluation of this series overflows double precision",
    ),
    "verify_identity_order_0": (lambda: asymptotics.verify_identity(0, _X), "half width must be at least 1"),
    "verify_identity_below_minus_1": (
        lambda: asymptotics.verify_identity(3, -1.5),
        r"x must lie in \[-1, 1\)",
    ),
    "verify_identity_nan": (lambda: asymptotics.verify_identity(4, math.nan), r"x must lie in \[-1, 1\)"),
    "beat_bound_order_0": (lambda: asymptotics.beat_bound_check(0, _X), "order must be at least 1"),
    "beat_bound_nan": (lambda: asymptotics.beat_bound_check(4, math.nan), r"x must lie in \[-1, 1\)"),
    "scaled_symbol_order_0": (lambda: asymptotics.scaled_symbol(0, _X), "half width must be at least 1"),
    "scaled_symbol_inf": (lambda: asymptotics.scaled_symbol(4, math.inf), "alpha must be finite"),
    "sinc_cos_gap_inf": (lambda: asymptotics.sinc_cos_gap(math.inf), "alpha must be finite"),
    "unknown_suite": (lambda: suites.run_suite("bogus"), "unknown suite 'bogus'; choose from"),
    "polynomial_norm_overflow": (
        lambda: multiplier.operator_norm_via_polynomial(kernels.SymmetricKernel(2, [1.0, 5e307, -5e307])),
        "the weighted maximum of this polynomial overflows double precision",
    ),
    "symmetric_kernel_2d_weights": (
        lambda: kernels.SymmetricKernel(1, [[0.5], [0.25]]),
        r"symmetric kernel needs half_width \+ 1 weights",
    ),
    "general_kernel_2d_weights": (
        lambda: kernels.GeneralKernel(1, [[0.25, 0.5, 0.25]]),
        r"general kernel needs 2 \* half_width \+ 1 weights",
    ),
    "rayleigh_quotient_of_an_array": (
        lambda: multiplier.rayleigh_quotient(constant_kernel(2), 2, np.arange(8.0)),
        "f must be a TimeSeries",
    ),
    "convolve_an_array": (lambda: series.convolve(constant_kernel(2), np.arange(8.0)), "f must be a TimeSeries"),
    "derivative_of_an_array": (lambda: series.derivative(np.arange(8.0), 1), "f must be a TimeSeries"),
    # the check comes before the file is opened, so os.devnull is never written
    "write_csv_of_an_array": (lambda: series.write_csv(os.devnull, np.arange(3.0)), "f must be a TimeSeries"),
    "operator_norm_of_a_list": (
        lambda: operator_norm([0.5, 0.5], 1),
        "u must be a SymmetricKernel or a GeneralKernel",
    ),
    "lower_bound_check_overflow": (
        lambda: extremal.minimax_lower_bound_check(chebyshev.ChebSeries([1e308, -1e308, 1.0]), 2),
        "the weighted maximum of this polynomial overflows double precision",
    ),
    # a GeneralKernel's 2n + 1 weights are not half-width weights; read as them, these would sum to 1.75
    "to_polynomial_of_a_general_kernel": (
        lambda: kernels.to_polynomial(kernels.GeneralKernel(1, [0.25, 0.5, 0.25])),
        "u must be a SymmetricKernel",
    ),
    # the check comes before the file is opened, so os.devnull is never written
    "write_kernel_csv_of_a_list": (
        lambda: write_kernel_csv([0.5], os.devnull),
        "u must be a SymmetricKernel or a GeneralKernel",
    ),
    "verify_equioscillation_of_a_series": (
        lambda: extremal.verify_equioscillation(chebyshev.ChebSeries([1.0]), 1e-9),
        "sol must be an ExtremalSolution",
    ),
    "lower_bound_check_of_a_list": (lambda: extremal.minimax_lower_bound_check([1.0], 1), "p must be a ChebSeries"),
    "weighted_max_of_a_list": (lambda: extremal.weighted_max([1.0]), "p must be a ChebSeries"),
    "time_series_2d_values": (
        lambda: series.TimeSeries([[1.0, 2.0]]),
        "TimeSeries needs a non-empty 1-D list of values",
    ),
    "time_series_empty": (lambda: series.TimeSeries([]), "TimeSeries needs a non-empty 1-D list of values"),
}

# each size or order argument of the library, as a call on it and the name its ValueError gives
_F = series.TimeSeries(np.arange(8.0) ** 2)
_SIZES = {
    "alpha_closed_form": (extremal.alpha_closed_form, "degree"),
    "build_solution": (extremal.build_solution, "degree"),
    "optimal_kernel": (kernels.optimal_kernel, "half width"),
    "constant_kernel": (constant_kernel, "half width"),
    "triangle_kernel": (kernels.triangle_kernel, "half width"),
    "epanechnikov_kernel": (epanechnikov_kernel, "half width"),
    "SymmetricKernel": (lambda n: kernels.SymmetricKernel(n, [0.25, 0.25, 0.125, 0.0]), "half width"),
    "GeneralKernel": (lambda n: kernels.GeneralKernel(n, [1 / 7] * 7), "half width"),
    "operator_norm": (lambda m: operator_norm(constant_kernel(2), m), "difference order"),
    "rayleigh_quotient": (lambda m: multiplier.rayleigh_quotient(constant_kernel(2), m, _F), "difference order"),
    "derivative": (lambda m: series.derivative(_F, m), "difference order"),
    "closed_form_c2": (closed_form_c2, "half width"),
    "wave_packet": (lambda length: multiplier.wave_packet(1.0, 0.25, length), "length"),
    "cheb_nodes": (chebyshev.cheb_nodes, "node count"),
    "epanechnikov_series": (asymptotics.epanechnikov_series, "half width"),
    "scaled_symbol": (lambda n: asymptotics.scaled_symbol(n, 1.0), "half width"),
    "verify_identity": (lambda n: asymptotics.verify_identity(n, 0.5), "half width"),
    "beat_bound_check": (lambda n: asymptotics.beat_bound_check(n, 0.5), "order"),
    "epanechnikov_ratio": (asymptotics.epanechnikov_ratio, "half width"),
    "run_suite": (lambda n: suites.run_suite("asymptotics", n_max=n), "n_max"),
    "run_suites": (lambda n: suites.run_suites(["asymptotics"], n_max=n), "n_max"),
    "minimax_lower_bound_check": (
        lambda d: extremal.minimax_lower_bound_check(chebyshev.ChebSeries([1.0]), d),
        "degree",
    ),
}

# each real scalar or real array argument of the library, as a call on it that returns
# something comparable, the name its ValueError gives, and a value it accepts;
# the value is a whole number, so that np.float32 and np.int64 hold it exactly
_REALS = {
    "ChebSeries": (lambda c: chebyshev.ChebSeries(c).coeffs, "ChebSeries coefficients", [1, 2]),
    "transform": (lambda v: chebyshev.transform(v).coeffs, "samples", [1, 2, 3]),
    "clenshaw_eval": (lambda x: chebyshev.clenshaw_eval(chebyshev.ChebSeries([1, 2]), x), "x", [-1, 0, 1]),
    "TimeSeries": (lambda v: series.TimeSeries(v).values, "series values", [1, 2, 3]),
    "l2_norm": (series.l2_norm, "f", [3, 4]),
    "SymmetricKernel": (lambda w: kernels.SymmetricKernel(1, w).weights, "kernel weights", [1, 0]),
    "GeneralKernel": (lambda w: kernels.GeneralKernel(1, w).weights, "kernel weights", [0, 1, 0]),
    "sinc_cos_gap": (asymptotics.sinc_cos_gap, "alpha", [0, 2]),
    "scaled_symbol": (lambda a: asymptotics.scaled_symbol(4, a), "alpha", [0, 2]),
    "verify_identity": (lambda x: asymptotics.verify_identity(4, x), "x", [-1, 0]),
    "beat_bound_check": (lambda x: asymptotics.beat_bound_check(4, x), "x", [-1, 0]),
    "verify_equioscillation": (
        lambda tol: extremal.verify_equioscillation(extremal.build_solution(2), tol).failed, "tolerance", 1
    ),
    "wave_packet_xi_star": (lambda xi: multiplier.wave_packet(xi, 1.0, 16).values, "xi_star", 1),
    "wave_packet_sigma": (lambda sigma: multiplier.wave_packet(1.0, sigma, 16).values, "sigma", 2),
}

# documented CLI errors: arguments, exit code, stderr message;
# {header_only} is a kernel file with a header and no rows
_NORM_POLY = ["norm", "--type", "optimal", "--n", "4", "--method", "polynomial"]
_CLI_ERRORS = {
    "type_without_n": (["norm", "--type", "constant"], 2, "--type needs --n"),
    "polynomial_order_3": (
        _NORM_POLY + ["--order", "3"], 2, "the polynomial method applies to --order 2 only"
    ),
    "no_kernel": (["norm"], 2, "a kernel source (--type/--n or --file) is required"),
    "no_kernel_rows": (["norm", "--file", "{header_only}"], 3, "{header_only}: no kernel rows"),
}


class TestDocumentedErrors:
    @pytest.mark.parametrize("case", list(_LIBRARY_ERRORS))
    def test_library(self, case):
        call, message = _LIBRARY_ERRORS[case]
        with pytest.raises(ValueError, match=f"^{message}"):
            call()

    @pytest.mark.parametrize("case", list(_SIZES))
    def test_size_is_an_integer(self, case):
        call, name = _SIZES[case]
        for value in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
                call(value)
        call(np.int64(3))

    @pytest.mark.parametrize("case", list(_REALS))
    def test_values_are_real(self, case):
        call, name, good = _REALS[case]
        for value in (object(), None, "1", 1j, 1 + 0j, np.array([1 + 1j])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy casts complex to real with only a warning
                with pytest.raises(ValueError, match=f"^{name} must be (a real number|real numbers)$"):
                    call(value)
        expected = call(np.float64(good))
        for kind in (np.float32, np.int64):
            np.testing.assert_array_equal(call(kind(good)), expected)

    @pytest.mark.parametrize("case", list(_CLI_ERRORS))
    def test_cli(self, capsys, tmp_path, case):
        argv, code, message = _CLI_ERRORS[case]
        header_only = tmp_path / "k.csv"
        header_only.write_text("k,weight\n")
        got = run(capsys, *(a.format(header_only=header_only) for a in argv))
        assert got == (code, "", f"smoothkit: {message.format(header_only=header_only)}\n")
