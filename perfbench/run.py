"""smoothkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload norms|construct|smooth --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/smoothkit; nothing needs
building. The script writes the workload's seeded inputs under
perfbench/_work, times SETUP_PROBES fresh interpreters that import smoothkit
and make the workload's set-up calls, then runs the workload in one child
process under an address-space limit (see child.py). It prints an
environment line and a report line, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end_to_end ones of BENCHMARK.json, with --trace 1 the per_layer
ones; the names and units come from that file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170.0  # the whole invocation must end within 180 s
BLAS_THREAD_TIMEOUT = "4"  # log2 of the cycles an idle OpenBLAS worker spins


def _fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # Idle OpenBLAS workers otherwise spin for 2^28 cycles after each threaded
    # call. On a 2-CPU machine the spinning worker slows the measured thread:
    # op_p50_ms on norms read 39-112% higher and swung with the op order.
    # With 2^4 cycles idle workers sleep; threaded calls still use them all.
    env["OPENBLAS_THREAD_TIMEOUT"] = BLAS_THREAD_TIMEOUT
    return env


def _child(args: list[str], deadline: float) -> tuple[float, str]:
    """Run child.py to completion; returns (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=_child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return wall, proc.stdout


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment(blas_threads) -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": openblas,
        "blas_threads": blas_threads,
        "blas_thread_timeout_log2_cycles": int(BLAS_THREAD_TIMEOUT),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l3": (_read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "unknown").strip(),
    }


def end_to_end(res: dict, setup_walls: list[float]) -> dict:
    """End-to-end metrics of an untraced run.

    Throughput is that of the median pass: each op's latency is its median
    over the run's passes, so a slow spell of the machine during a minority
    of passes does not count. Percentiles pool every successful op of every
    pass.
    """
    per_op_s = [statistics.median(col) for col in zip(*res["latency_s"])]
    ok_share = [sum(col) / len(col) for col in zip(*res["ok"])]
    pass_s = sum(per_op_s)
    pooled_ms = sorted(
        1e3 * lat
        for lats, oks in zip(res["latency_s"], res["ok"])
        for lat, ok in zip(lats, oks) if ok
    )
    return {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": sum(ok_share) / pass_s,
        "rows_per_s": sum(k * r for k, r in zip(ok_share, res["rows"])) / pass_s,
        "op_p50_ms": statistics.median(pooled_ms),
        "op_p90_ms": statistics.quantiles(pooled_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smoothkit" / "__init__.py").is_file():
        return _fail(f"no smoothkit sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workloads.generate(args.workload, args.seed, work)
        common = ["--workload", args.workload, "--work", str(work)]
        # the first probe also fills the bytecode cache; it is not counted
        probes = [_child(["probe", *common], deadline) for _ in range(SETUP_PROBES + 1)][1:]
        _child(["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        res = json.loads((work / "result.json").read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        imports = [json.loads(out) for _, out in probes]
        values = {f"import.{k}": statistics.median(p[k] for p in imports) for k in imports[0]}
        values.update(res["layers"])
    else:
        values = end_to_end(res, [wall for wall, _ in probes])
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        return _fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")

    print(json.dumps({"environment": environment(res["blas_threads"])}))
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": res["passes"], "ops_per_pass": res["ops_per_pass"],
        "latency_samples": sum(map(sum, res["ok"])),
        "attempted": res["attempted"], "failed": res["failed"], "wrong": res["wrong"],
        "fail_ratio": res["failed"] / res["attempted"],
        "failed_n": sorted({f["n"] for f in res["failures"]}),
        "failures": res["failures"],
    }
    if args.trace:
        report["decomposition_drift"] = res["drift"]
    else:
        report["timed_phase_s"] = res["timed_phase_s"]
        report["setup_walls_s"] = [wall for wall, _ in probes]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
