"""Command-line interface: kernel files, norms, CSV smoothing, verification, asymptotic tables.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or CSV
format error, 4 internal error (reported in one line, without a traceback).
CSV output carries 17 significant digits; JSON uses shortest round-trip
floats. All computations use fixed grids and seeds, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import asymptotics, kernels, multiplier, series, suites
from .chebyshev import MAX_DEGREE

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

KERNEL_TYPES = ("optimal", "epanechnikov", "constant", "triangle")

TOL_SCALE_ENV = "SMOOTHKIT_TOL_SCALE"


class UsageError(Exception):
    pass


def _named_kernel(kind: str, n: int | None) -> kernels.SymmetricKernel:
    if n is None:
        raise UsageError("--type needs --n")
    if n > MAX_DEGREE:
        raise UsageError(f"half width must be in [0, {MAX_DEGREE}]")
    return getattr(kernels, f"{kind}_kernel")(n)


def _load_kernel(args, need_symmetric: bool):
    """Kernel from --type/--n or --file."""
    if args.file is not None:
        general = kernels.read_kernel_csv(args.file)
        if not need_symmetric:
            return general
        w = general.weights
        if general.half_width and float(np.max(np.abs(w - w[::-1]))) > 1e-9:
            raise UsageError("polynomial method needs a symmetric kernel")
        return kernels.symmetrize(general)
    return _named_kernel(args.type, args.n)


@contextmanager
def _output(path: str | None):
    """The --output file, or stdout; a reader that closes stdout early ends the output quietly."""
    if path is not None:
        with open(path, "w", newline="") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; silence the flush at interpreter exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print(text: str, path: str | None) -> None:
    with _output(path) as fh:
        fh.write(text)


def cmd_kernel(args) -> int:
    if args.type is None:
        raise UsageError("kernel needs --type and --n")
    kern = _named_kernel(args.type, args.n)
    buf = io.StringIO()
    kernels.write_kernel_csv(kern, buf)
    _print(buf.getvalue(), args.output)
    return EXIT_OK


def cmd_norm(args) -> int:
    use_polynomial = args.method == "polynomial"
    if use_polynomial and args.order != 2:
        raise UsageError("the polynomial method applies to --order 2 only")
    kern = _load_kernel(args, need_symmetric=use_polynomial)
    if use_polynomial:
        bound = multiplier.operator_norm_via_polynomial(kern)
    else:
        bound = multiplier.operator_norm(kern, args.order)
    report = {
        "order": bound.order,
        "half_width": kern.half_width,
        "value": bound.value,
        "argmax_xi": bound.argmax_xi,
        "method": bound.method,
    }
    if args.type == "optimal" and args.order == 2:
        closed = multiplier.closed_form_c2(kern.half_width)
        report["closed_form"] = closed
        report["gap"] = bound.value - closed
    _print(json.dumps(report) + "\n", args.output)
    return EXIT_OK


def cmd_smooth(args) -> int:
    kern = _load_kernel(args, need_symmetric=False)
    # writing over the input would truncate it before the second pass reads it
    overwrite = (
        args.output is not None and os.path.exists(args.output) and os.path.samefile(args.input, args.output)
    )
    with series.CsvSource(args.input, spool=overwrite) as source:
        ts = series.TimeSeries(source.values(args.column))
        smoothed = series.convolve(kern, ts, boundary=args.boundary)
        offset = kern.half_width if args.boundary == "valid" else 0
        with _output(args.output) as fh:
            source.write_column(fh, "smoothed", smoothed.values, offset)

    summary = {"input_l2": series.l2_norm(ts)}
    if len(ts) >= 3:
        lap_in = series.l2_norm(series.derivative(ts, 2))
        summary["laplacian_input_l2"] = lap_in
    if len(smoothed) >= 3:
        lap_out = series.l2_norm(series.derivative(smoothed, 2))
        summary["laplacian_smoothed_l2"] = lap_out
        summary["rayleigh_quotient"] = lap_out / summary["input_l2"]
        if summary.get("laplacian_input_l2"):
            summary["laplacian_ratio"] = lap_out / summary["laplacian_input_l2"]
    sys.stderr.write(json.dumps(summary) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    raw = os.environ.get(TOL_SCALE_ENV)
    tol_scale = 1.0
    if raw:
        try:
            tol_scale = float(raw)
        except ValueError:
            raise UsageError(f"{TOL_SCALE_ENV} must be a number, got {raw!r}") from None
        if tol_scale <= 0:
            raise UsageError(f"{TOL_SCALE_ENV} must be positive")
        if not math.isfinite(tol_scale):
            raise UsageError(f"{TOL_SCALE_ENV} must be finite, got {raw!r}")
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    summary = suites.run_suites(names, n_max=args.n_max, tol_scale=tol_scale)
    _print(json.dumps(summary, indent=2) + "\n", args.output)
    return EXIT_OK if summary["all_passed"] else EXIT_VERIFY


def cmd_asympt(args) -> int:
    mu = asymptotics.compute_mu()
    lines = ["n,optimal_scaled,epanechnikov_ratio,epanechnikov_vs_limit"]
    for n in args.n:
        if not 2 <= n <= MAX_DEGREE:
            raise UsageError(f"asymptotic rows need 2 <= n <= {MAX_DEGREE}")
        scaled = multiplier.closed_form_c2(n) * (n + 1) ** 2 / math.pi
        ratio = asymptotics.epanechnikov_ratio(n)
        lines.append(
            f"{n},{scaled:.17g},{ratio:.17g},{ratio / mu.three_mu_over_pi:.17g}"
        )
    _print("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _add_kernel_source(parser: argparse.ArgumentParser, file_allowed: bool = True) -> None:
    parser.add_argument("--type", choices=KERNEL_TYPES, help="named kernel family")
    parser.add_argument("--n", type=int, help="kernel half width")
    if file_allowed:
        parser.add_argument("--file", help="kernel CSV file (header k,weight)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothkit",
        description="Optimal averaging kernels, sharp smoothing constants, and CSV smoothing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="emit a kernel file (header k,weight)")
    _add_kernel_source(p, file_allowed=False)
    p.add_argument("--output", help="path to write (default stdout)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("norm", help="sharp constant of a kernel as a JSON report")
    _add_kernel_source(p)
    p.add_argument("--order", type=int, default=2, help="difference order m (default 2)")
    p.add_argument(
        "--method",
        choices=("torus", "polynomial"),
        default="torus",
        help="frequency-grid search or the order-2 polynomial form",
    )
    p.add_argument("--output", help="path to write (default stdout)")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("smooth", help="convolve a CSV column with a kernel")
    _add_kernel_source(p)
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--column", required=True, help="numeric column to smooth")
    p.add_argument(
        "--boundary",
        choices=series.BOUNDARY_MODES,
        default="reflect",
        help="window extension mode (default reflect)",
    )
    p.add_argument("--output", help="path to write (default stdout)")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("verify", help="run invariant suites; exit 0 iff all pass")
    p.add_argument(
        "--suite",
        choices=suites.SUITE_NAMES + ("all",),
        default="all",
        help="which suite to run",
    )
    p.add_argument("--n-max", type=int, default=64, help="half-width/degree ceiling")
    p.add_argument("--output", help="path to write (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asympt", help="asymptotic-constant table as CSV")
    p.add_argument("--n", type=int, nargs="+", required=True, help="half widths (each >= 2)")
    p.add_argument("--output", help="path to write (default stdout)")
    p.set_defaults(func=cmd_asympt)

    return parser


def _fail(message, code: int) -> int:
    sys.stderr.write(f"smoothkit: {message}\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.func in (cmd_norm, cmd_smooth):
        if args.file is not None and args.type is not None:
            return _fail("give either --type/--n or --file, not both", EXIT_USAGE)
        if args.file is None and args.type is None:
            return _fail("a kernel source (--type/--n or --file) is required", EXIT_USAGE)
    try:
        return args.func(args)
    except (series.CsvFormatError, OSError, UnicodeError) as exc:
        return _fail(exc, EXIT_IO)
    except (UsageError, ValueError) as exc:
        return _fail(exc, EXIT_USAGE)
    except Exception as exc:
        return _fail(f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    raise SystemExit(main())
