"""A fixed corpus of in-process CLI runs, each printed as its exit code and the hashes of its output.

Run it from a checkout as `python tests/corpus.py`; it puts the
checkout's `src` first on the path, and pytest does not collect it. Every
input file is generated from fixed seeds into a temporary directory, which is
the working directory of every run, so no path in an output depends on where
it ran. Each case prints one line:

    exit sha256(stdout) sha256(stderr) sha256(--output file, or -) argv

Run it on two trees and diff the outputs to count the cases a change moves.
It is not an equality check across machines: the hashes depend on numpy's
FFT and BLAS builds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from smoothkit import cli, kernels  # noqa: E402
from test_cli import _CLI_ERRORS  # noqa: E402

TYPES = cli.KERNEL_TYPES
HALF_WIDTHS = (*range(41), 64, 255, 256, 1023, 1024, 2047, 2048, 4095, 4096)
ORDERS = (1, 2, 3, 4, 5, 1019, 1023)
BOUNDARIES = ("reflect", "zero", "extend", "valid")
WALK_ROWS = (1, 2, 3, 5, 17, 300, 3000)


def _walk(rows: int, seed: int) -> list[str]:
    level = np.cumsum(np.random.default_rng(seed).standard_normal(rows))
    return [f"{i},{v!r}" for i, v in enumerate(level.tolist())]


def _kernel_file(weights) -> str:
    n = (len(weights) - 1) // 2
    return "k,weight\n" + "".join(f"{k},{w!r}\n" for k, w in zip(range(-n, n + 1), weights))


def write_inputs() -> None:
    """The input files of `cases`, in the working directory."""
    files = {f"walk_{rows}.csv": "t,level\n" + "\n".join(_walk(rows, rows)) + "\n" for rows in WALK_ROWS}
    files["big.csv"] = "t,level\n" + "\n".join(_walk(70_000, 7)) + "\n"  # crosses 2^16-character blocks
    walk = _walk(300, 300)
    body = [line.split(",") for line in walk]
    files["quoted.csv"] = "t,label,level\n" + "".join(
        f'{t},"q,{t}",{v}\n' if int(t) % 50 == 0 else f"{t},p%{t},{v}\n" for t, v in body
    )
    files["blank.csv"] = "\n" + "t,level\n" + "".join(line + "\n" + "\n" * (i % 3 == 0) for i, line in enumerate(walk))
    files["crlf.csv"] = "t,level\r\n" + "\r\n".join(walk) + "\r\n"
    files["bom.csv"] = "\ufefft,level\n" + "\n".join(walk) + "\n"
    files["inplace.csv"] = "t,smoothed,level\n" + "".join(f"{t},0,{v}\n" for t, v in body)
    files["nan.csv"] = "t,level\n" + "\n".join(walk[:200] + ["200,nan"] + walk[201:]) + "\n"
    files["long_row.csv"] = "t,level\n" + "\n".join(walk[:100] + ["100,1,2"] + walk[101:]) + "\n"
    files["short_row.csv"] = "t,level\n" + "\n".join(walk[:100] + ["100"] + walk[101:]) + "\n"
    files["header_only.csv"] = "t,level\n"
    files["k_header_only.csv"] = "k,weight\n"
    rng = np.random.default_rng(15)
    for n in range(1, 31):
        w = rng.standard_normal(2 * n + 1)
        files[f"general_{n}.csv"] = _kernel_file((w / w.sum()).tolist())
        w = w + w[::-1]
        files[f"symmetric_{n}.csv"] = _kernel_file((w / w.sum()).tolist())
    for n in (256, 1024):  # optimal weights to 8 digits: many near-tied peaks
        files[f"rounded_{n}.csv"] = _kernel_file([float(f"{w:.8f}") for w in kernels.optimal_kernel(n).weights])
    for name, text in files.items():
        Path(name).write_text(text, newline="")
    Path("latin1.csv").write_bytes(b"t,level\n0,1\xe9\n")


def cases():
    """Every argv of the corpus, in a fixed order."""
    for kind in TYPES:
        for n in HALF_WIDTHS:
            yield ["kernel", "--type", kind, "--n", str(n)]
        yield ["kernel", "--type", kind, "--n", "10", "--output", "out.csv"]
    for kind in TYPES:
        for n in HALF_WIDTHS:
            for m in ORDERS:
                yield ["norm", "--type", kind, "--n", str(n), "--order", str(m)]
            yield ["norm", "--type", kind, "--n", str(n), "--method", "polynomial"]
    for n in range(1, 31):
        for m in (1, 2, 3):
            yield ["norm", "--file", f"general_{n}.csv", "--order", str(m)]
        yield ["norm", "--file", f"symmetric_{n}.csv"]
        yield ["norm", "--file", f"symmetric_{n}.csv", "--method", "polynomial"]
    for n in (256, 1024):
        yield ["norm", "--file", f"rounded_{n}.csv"]
        yield ["norm", "--file", f"rounded_{n}.csv", "--method", "polynomial"]
    smooth = ["smooth", "--column", "level", "--input"]
    named = (("constant", "1"), ("triangle", "3"), ("epanechnikov", "7"), ("optimal", "64"))
    for rows in WALK_ROWS:
        for boundary in BOUNDARIES:
            for kind, n in named:
                yield [*smooth, f"walk_{rows}.csv", "--type", kind, "--n", n, "--boundary", boundary]
    edge = ("big", "quoted", "blank", "crlf", "bom", "inplace", "nan", "long_row", "short_row", "header_only", "latin1")
    for name in edge:
        for boundary in BOUNDARIES:
            for kind, n in (("optimal", "4"), ("triangle", "1")):
                yield [*smooth, f"{name}.csv", "--type", kind, "--n", n, "--boundary", boundary]
    for n in (1, 2, 5, 30):
        for boundary in BOUNDARIES:
            yield [*smooth, "walk_300.csv", "--file", f"general_{n}.csv", "--boundary", boundary]
    yield [*smooth, "walk_300.csv", "--type", "optimal", "--n", "4", "--output", "out.csv"]
    yield [*smooth, "quoted.csv", "--type", "optimal", "--n", "4", "--output", "out.csv"]
    yield [*smooth, "walk_300.csv", "--type", "optimal", "--n", "4000"]
    yield ["smooth", "--column", "absent", "--input", "walk_300.csv", "--type", "optimal", "--n", "4"]
    yield [*smooth, "absent.csv", "--type", "optimal", "--n", "4"]
    yield ["verify", "--suite", "all"]
    yield ["verify", "--suite", "all", "--output", "out.csv"]
    for suite in ("extremal", "multiplier", "asymptotics"):
        for n_max in (1, 16):
            yield ["verify", "--suite", suite, "--n-max", str(n_max)]
    for n_max in (1608, 1609, 4096):
        yield ["verify", "--suite", "extremal", "--n-max", str(n_max)]
    for n_max in (0, 4097):
        yield ["verify", "--n-max", str(n_max)]
    for ns in (["2", "64", "4096"], ["16", "64"], ["1024", "4096"], ["1"], ["4097"]):
        yield ["asympt", "--n", *ns]
    for case in _CLI_ERRORS.values():
        yield [a.format(header_only="k_header_only.csv") for a in case[0]]
    yield ["norm", "--type", "optimal", "--n", "4", "--file", "general_1.csv"]
    yield ["norm", "--type", "bogus", "--n", "4"]
    yield ["norm", "--file", "general_3.csv", "--method", "polynomial"]
    yield ["kernel", "--type", "optimal", "--n", "4097"]
    yield ["kernel", "--n", "4"]
    yield ["smooth", "--column", "level", "--type", "optimal", "--n", "4"]


def run(argv: list[str]) -> tuple[int, str, str, str | None]:
    """argv's exit code and its stdout, stderr and --output text (None for no file)."""
    out, err = io.StringIO(), io.StringIO()
    path = Path(argv[argv.index("--output") + 1]) if "--output" in argv else None
    if path is not None:
        path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    written = path.read_text() if path is not None and path.exists() else None
    return code, out.getvalue(), err.getvalue(), written


def main() -> int:
    sha = lambda text: "-" if text is None else hashlib.sha256(text.encode()).hexdigest()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs()
            for case in cases():
                code, out, err, written = run(case)
                print(f"{code} {sha(out)} {sha(err)} {sha(written)} {' '.join(case)}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
