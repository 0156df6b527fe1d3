"""Measured process of the benchmark: runs one workload against the library in-process.

    python3 perfbench/child.py probe --workload W --work DIR
    python3 perfbench/child.py run --workload W --work DIR --seconds S --trace 0|1

Both modes first cap the address space (the memory guard), so a blow-up
surfaces as MemoryError in the op that caused it. `probe` is one set-up
sample: a fresh interpreter imports numpy, scipy.fft and smoothkit and makes
the workload's set-up calls; it prints the import times. `run` repeats the
workload's pass about `--seconds` long, at least 3 times and 100 ops
(untraced), or runs each op of one pass untraced and traced back to back
(traced), and writes result.json into DIR.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer

ADDRESS_SPACE_LIMIT = 3 << 30  # bytes; the machine has about 7 GiB
MIN_SAMPLES = 100
MIN_PASSES = 3


def _import_library():
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.fft  # noqa: F401

    t2 = time.perf_counter()
    import smoothkit

    t3 = time.perf_counter()
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(smoothkit.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported smoothkit from {smoothkit.__file__}, not from {src}")
    import smoothkit.cli  # noqa: F401  (the package does not import its CLI)

    return smoothkit, {"numpy_s": t1 - t0, "scipy_fft_s": t2 - t1, "smoothkit_self_s": t3 - t2}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    import ctypes
    import re

    maps = Path("/proc/self/maps").read_text()
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_op(op, i, tracer=None):
    """Run one op; returns (latency_s, result, error). A traced op runs inside a root span."""
    result, error = None, None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.span("op", i):
                result = op.run()
    except Exception as exc:  # a failed op is counted, and the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is None and op.collect is not None:
        result = op.collect(result)
    return latency, result, error


def run_traced(ops, order, tracer, acc):
    """Run each op untraced and traced, back to back, then probe it.

    Pairing the two runs of an op keeps slow drift of the machine out of
    the tracing overhead, and alternating which goes first cancels the
    benefit of running second. Probes run with tracing switched off.
    """
    base, traced = [None] * len(ops), [None] * len(ops)
    for i in order:
        op = ops[i]
        for with_trace in ((False, True) if i % 2 else (True, False)):
            tracer.enabled = with_trace
            (traced if with_trace else base)[i] = run_op(op, i, tracer if with_trace else None)
        tracer.enabled = False
        if traced[i][2] is None and op.probe is not None:
            op.probe(traced[i][1], acc, base[i][0])
    return base, traced


def judge(ops, samples):
    """(status, reason) per op: "ok", "fail" (raised or self-reported) or "wrong"."""
    by_key = {op.key: r for op, (_, r, err) in zip(ops, samples) if op.key and err is None}
    verdicts = []
    for op, (_, result, error) in zip(ops, samples):
        if error is not None:
            verdicts.append(("fail", error))
            continue
        try:
            verdicts.append(op.check(result, by_key) or ("ok", ""))
        except Exception as exc:  # a result of an unexpected shape is a wrong result
            verdicts.append(("wrong", f"check raised {type(exc).__name__}: {exc}"))
    return verdicts


def _tracer_targets():
    import numpy as np
    from smoothkit import asymptotics, chebyshev, cli, extremal, gridsearch, kernels, multiplier, series

    def clenshaw_terms(args, kwargs, out):
        s = args[0] if args else kwargs["s"]
        return int(np.size(out)) * s.coeffs.size

    def convolve_macs(args, kwargs, out):
        u = args[0] if args else kwargs["u"]
        return len(out) * (2 * u.half_width + 1)

    def certificate_failed(args, kwargs, out):
        return int(not out.passed)

    return [
        (chebyshev, "clenshaw_eval", clenshaw_terms),
        (chebyshev, "transform", None),
        (chebyshev, "deflate_at_one", None),
        (extremal, "build_solution", None),
        (extremal, "verify_equioscillation", certificate_failed),
        (kernels, "optimal_kernel", None),
        (kernels, "epanechnikov_kernel", None),
        (kernels, "constant_kernel", None),
        (kernels, "triangle_kernel", None),
        (kernels, "symmetrize", None),
        (kernels, "read_kernel_csv", None),
        (kernels, "write_kernel_csv", None),
        (multiplier, "operator_norm", None),
        (multiplier, "operator_norm_via_polynomial", None),
        (multiplier, "symbol_magnitude", None),
        (gridsearch, "refine_grid_max", None),
        (asymptotics, "compute_mu", None),
        (asymptotics, "epanechnikov_ratio", None),
        (series, "convolve", convolve_macs),
        (series, "read_csv", None),
        (series, "write_csv", None),
        (series, "l2_norm", None),
        (series, "derivative", None),
        (cli, "main", None),
    ]


def layer_metrics(tracer, acc, n_ops, overhead):
    """Per-layer metrics of one traced pass; times and work are per op of the pass.

    `overhead` is the median over ops of traced over untraced latency.
    """
    per_op_ms = 1e3 / n_ops

    def ms(name):
        return tracer.total(name) * per_op_ms

    return {
        "multiplier.grid_eval_ms": acc["grid_eval_s"] * per_op_ms,
        "multiplier.polish_ms": acc["polish_s"] * per_op_ms,
        "multiplier.grid_points": acc["grid_points"] / n_ops,
        "multiplier.operator_norm_ms": ms("multiplier.operator_norm"),
        "multiplier.polynomial_norm_ms": ms("multiplier.operator_norm_via_polynomial"),
        "gridsearch.refine_ms": ms("gridsearch.refine_grid_max"),
        "gridsearch.vector_evals": acc["vector_evals"] / n_ops,
        "gridsearch.scalar_evals": acc["scalar_evals"] / n_ops,
        "asymptotics.compute_mu_ms": ms("asymptotics.compute_mu"),
        "chebyshev.clenshaw_ms": ms("chebyshev.clenshaw_eval"),
        "chebyshev.clenshaw_terms": tracer.count("chebyshev.clenshaw_eval") / n_ops,
        "chebyshev.transform_ms": ms("chebyshev.transform"),
        "chebyshev.deflate_ms": ms("chebyshev.deflate_at_one"),
        "extremal.build_solution_ms": ms("extremal.build_solution"),
        "extremal.verify_equioscillation_ms": ms("extremal.verify_equioscillation"),
        "extremal.deflate_failures": tracer.errors("chebyshev.deflate_at_one"),
        "extremal.certificate_failures": tracer.count("extremal.verify_equioscillation"),
        "kernels.optimal_kernel_ms": ms("kernels.optimal_kernel"),
        "kernels.write_kernel_csv_ms": ms("kernels.write_kernel_csv"),
        "kernels.read_kernel_csv_ms": ms("kernels.read_kernel_csv"),
        "series.convolve_ms": ms("series.convolve"),
        "series.convolve_macs": tracer.count("series.convolve") / n_ops,
        "series.read_csv_ms": acc["read_csv_s"] * per_op_ms,
        "series.write_csv_ms": acc["write_csv_s"] * per_op_ms,
        "cli.smooth_ms": ms("cli.main"),
        "cli.kernel_load_ms": tracer.child_total("cli.main", ("kernels.",)) * per_op_ms,
        "cli.smooth_self_ms": tracer.self_time("cli.main") * per_op_ms,
        "trace.overhead_ratio": overhead,
        "trace.decomposition_drift": len(acc["drift"]),
    }


def _summary(ops, passes):
    """Counts, failures and raw latencies; passes holds per op (latency_s, (status, reason))."""
    failures = {}
    for run in passes:
        for op, (_, (st, reason)) in zip(ops, run):
            if st != "ok":
                failures.setdefault(op.label, {"op": op.label, "n": op.n, "status": st, "reason": reason})
    statuses = [st for run in passes for _, (st, _) in run]
    return {
        "attempted": len(statuses),
        "failed": sum(st != "ok" for st in statuses),
        "wrong": sum(st == "wrong" for st in statuses),
        "latency_s": [[lat for lat, _ in run] for run in passes],
        "ok": [[v[0] == "ok" for _, v in run] for run in passes],
        "rows": [op.rows for op in ops],
        "failures": sorted(failures.values(), key=lambda f: (f["n"], f["op"])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sk, imports = _import_library()
    import workloads

    ops, orders = workloads.load(args.workload, sk, args.work)
    if args.mode == "probe":
        print(json.dumps(imports))
        return 0

    result = {"blas_threads": _blas_threads(), "ops_per_pass": len(ops)}
    if not args.trace:
        count = max(MIN_PASSES, round(args.seconds / workloads.PASS_SECONDS[args.workload]),
                    -(-MIN_SAMPLES // len(ops)))
        passes = []
        start = time.perf_counter()
        for p in range(count):
            run = [None] * len(ops)
            for i in orders[p % len(orders)]:
                run[i] = run_op(ops[i], i)
            passes.append([(r[0], v) for r, v in zip(run, judge(ops, run))])
        result["passes"] = len(passes)
        result["timed_phase_s"] = time.perf_counter() - start
        result.update(_summary(ops, passes))
    else:
        tracer = Tracer()
        tracer.wrap([m for name, m in sys.modules.items() if name.split(".")[0] == "smoothkit"],
                    _tracer_targets())
        acc = {"grid_eval_s": 0.0, "polish_s": 0.0, "grid_points": 0, "vector_evals": 0,
               "scalar_evals": 0, "read_csv_s": 0.0, "write_csv_s": 0.0, "drift": []}
        base, traced = run_traced(ops, orders[0], tracer, acc)
        overhead = statistics.median(t[0] / b[0] for b, t in zip(base, traced))
        result["layers"] = layer_metrics(tracer, acc, len(ops), overhead)
        result["drift"] = acc["drift"]
        result["passes"] = 2
        result.update(_summary(ops, [[(r[0], v) for r, v in zip(run, judge(ops, run))] for run in (base, traced)]))
        out_dir = Path(__file__).resolve().parent / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}.jsonl", [op.label for op in ops])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
