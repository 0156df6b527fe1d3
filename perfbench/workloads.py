"""The benchmark's workloads: seeded inputs, the ops that use them, and their checks.

`generate` runs in the parent before anything is timed. It imports numpy
only, never smoothkit, and writes the op list (spec.json) plus the input
kernels and CSV files. `load` runs in the measured child: it makes the
workload's set-up calls into the library and returns the ops.

Each workload repeats a fixed pass of ops. The seed changes the random
kernel weights, the random-walk CSVs and the op orders, never the mix of
sizes, so every seed costs about the same and reports the same metrics.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _clock
from typing import Any, Callable

import numpy as np

WORKLOADS = ("norms", "construct", "smooth")
# Seconds one pass takes on the reference machine (see README.md). A run of
# --seconds S makes round(S / PASS_SECONDS) passes, at least three, so the
# amount of work is fixed by S and does not depend on the machine's speed.
PASS_SECONDS = {"norms": 4.5, "construct": 10.0, "smooth": 6.0}
# Each pass runs the ops in another seeded order, so that what an op follows
# (say, a BLAS call whose worker threads still spin) averages out over a run.
ORDERS = 16

# -- norms -------------------------------------------------------------------

NAMED = ("optimal", "epanechnikov", "triangle", "constant")
SYM_FAMILIES = NAMED + ("random_sym",)
SYM_N = (10, 64, 512, 2048)
GEN_N = (10, 64, 512, 1024)
SMALL_N = (10, 64)
# one pass holds every small (n <= 64) case and this fixed set of large ones,
# so about four ops in five are small
LARGE_TORUS = (
    ("optimal", 512, 2), ("optimal", 2048, 2),
    ("epanechnikov", 512, 1), ("epanechnikov", 2048, 3),
    ("triangle", 512, 2), ("triangle", 2048, 1),
    ("constant", 512, 1), ("constant", 2048, 2),
    ("random_sym", 512, 3), ("random_sym", 2048, 2),
    ("random_gen", 512, 2), ("random_gen", 1024, 1),
)
LARGE_POLY = (("optimal", 2048), ("random_sym", 2048))
MU_OPS = 2
RATIO_N = (10, 64)

# -- construct ---------------------------------------------------------------

CONSTRUCT_N = tuple(range(0, 257)) + tuple(range(320, 4097, 64)) + (4095,)
CERT_TOL = 1e-9

# -- smooth ------------------------------------------------------------------

WALKS = {"walk_a": 10_000, "walk_b": 10_000, "walk_c": 20_000, "walk_d": 50_000, "walk_e": 100_000}
KERNEL_FILES = (("optimal", 2048), ("epanechnikov", 2048))
# (source, CSV file) per op. n = 2048 for one op in five, named by --type and
# by --file, once on each file size. Over the pass: 15 ops on 10^4 rows,
# 6 on 2*10^4, 3 on 5*10^4 and 1 on 10^5.
SMOOTH_OPS = (
    (("type", "optimal", 2048), "walk_a"), (("type", "optimal", 2048), "walk_d"),
    (("file", "optimal", 2048), "walk_b"), (("file", "optimal", 2048), "walk_e"),
    (("file", "epanechnikov", 2048), "walk_c"),
) + tuple(
    (("type", NAMED[i % 4], (4, 16, 64)[i % 3]), f)
    for i, f in enumerate(("walk_a",) * 7 + ("walk_b",) * 6 + ("walk_c",) * 5 + ("walk_d",) * 2)
)
BOUNDARIES = ("reflect", "zero", "extend", "valid")


def _norms_ops() -> list[dict]:
    ops = [{"kind": "torus", "family": f, "n": n, "m": m}
           for f in SYM_FAMILIES for n in SMALL_N for m in (1, 2, 3)]
    ops += [{"kind": "torus", "family": "random_gen", "n": n, "m": m}
            for n in SMALL_N for m in (1, 2, 3)]
    ops += [{"kind": "poly", "family": f, "n": n} for f in SYM_FAMILIES for n in SMALL_N]
    ops += [{"kind": "torus", "family": f, "n": n, "m": m} for f, n, m in LARGE_TORUS]
    ops += [{"kind": "poly", "family": f, "n": n} for f, n in LARGE_POLY]
    ops += [{"kind": "mu", "n": 0}] * MU_OPS
    ops += [{"kind": "ratio", "n": n} for n in RATIO_N]
    return ops


def _smooth_ops() -> list[dict]:
    return [
        {"file": f, "source": list(source), "boundary": BOUNDARIES[i % 4]}
        for i, (source, f) in enumerate(SMOOTH_OPS)
    ]


def generate(name: str, seed: int, work: Path) -> None:
    """Write the seeded inputs of one workload into `work`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "norms":
        arrays = {}
        for n in SYM_N:
            w = rng.uniform(0.1, 1.0, n + 1)
            arrays[f"sym{n}"] = w / (w[0] + 2.0 * w[1:].sum())
        for n in GEN_N:
            w = rng.uniform(0.1, 1.0, 2 * n + 1)
            arrays[f"gen{n}"] = w / w.sum()
        np.savez(work / "kernels.npz", **arrays)
        ops = _norms_ops()
    elif name == "construct":
        ops = [{"n": n} for n in CONSTRUCT_N]
    else:
        for fname, rows in WALKS.items():
            level = np.cumsum(rng.standard_normal(rows))
            lines = [f"{i},{v:.17g}" for i, v in enumerate(level)]
            (work / f"{fname}.csv").write_text("t,level\n" + "\n".join(lines) + "\n")
        ops = _smooth_ops()
    spec = {"ops": ops, "orders": [rng.permutation(len(ops)).tolist() for _ in range(ORDERS)]}
    (work / "spec.json").write_text(json.dumps(spec))


# -- ops -----------------------------------------------------------------------


@dataclass
class Op:
    """One timed call and how to judge it.

    `check(result, results)` returns None when the result matches its
    reference, else (status, reason): "fail" when the library itself
    signalled the failure, "wrong" when it returned a wrong answer.
    `results` maps op keys to results of the same pass, for cross-checks.
    """

    label: str
    n: int
    rows: int
    run: Callable[[], Any]
    check: Callable[[Any, dict], tuple[str, str] | None]
    key: tuple = ()
    collect: Callable[[Any], Any] | None = None  # untimed, right after run
    probe: Callable[[Any, dict, float], None] | None = None  # traced pass only


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * abs(b)


def c2(n: int) -> float:
    """Sharp order-2 constant C2(n), from the closed form in PAPER.md."""
    half = math.pi / (2 * n + 2)
    return 4.0 * math.sin(half) / ((n + 1) * (1.0 + math.cos(half)))


def fft_grid_max(weights: np.ndarray, m: int) -> float:
    """Largest symbol sample on the torus grid of 16(n+m)+64 points, via numpy's FFT.

    An independent lower bound for the polished maximum of operator_norm.
    """
    n = (weights.size - 1) // 2
    count = 16 * (n + m) + 64
    xi = 2.0 * math.pi * np.arange(count) / count
    return float(np.max((2.0 * np.abs(np.sin(0.5 * xi))) ** m * np.abs(np.fft.fft(weights, count))))


def _load_norms(sk, work: Path, spec: dict) -> list[Op]:
    arrays = np.load(work / "kernels.npz")
    kerns = {(f, n): getattr(sk.kernels, f"{f}_kernel")(n) for f in NAMED for n in SYM_N}
    kerns.update({("random_sym", n): sk.kernels.SymmetricKernel(n, arrays[f"sym{n}"]) for n in SYM_N})
    kerns.update({("random_gen", n): sk.kernels.GeneralKernel(n, arrays[f"gen{n}"]) for n in GEN_N})
    ops = []
    for o in spec["ops"]:
        kind, n = o["kind"], o["n"]
        if kind == "torus":
            ops.append(_torus_op(sk, kerns[(o["family"], n)], o["family"], o["m"]))
        elif kind == "poly":
            u = kerns[(o["family"], n)]
            ops.append(Op(
                f"poly {o['family']} n={n}", n, 2 * n + 1,
                run=lambda u=u: sk.multiplier.operator_norm_via_polynomial(u),
                check=lambda r, res, k=("torus", o["family"], n, 2): _check_poly(r, res.get(k)),
            ))
        elif kind == "mu":
            ops.append(Op("compute_mu", 0, 0, run=lambda: sk.asymptotics.compute_mu(), check=_check_mu))
        else:
            ops.append(Op(
                f"epanechnikov_ratio n={n}", n, 2 * n + 1,
                run=lambda n=n: sk.asymptotics.epanechnikov_ratio(n),
                check=lambda r, res, k=("torus", "epanechnikov", n, 2), n=n: _check_ratio(r, res.get(k), n),
            ))
    return ops


def _torus_op(sk, u, family: str, m: int) -> Op:
    n = u.half_width
    weights = np.asarray(sk.kernels.full_weights(u))

    def check(r, _results):
        lower = fft_grid_max(weights, m)
        if not r.value >= lower * (1.0 - 1e-9):
            return "wrong", f"value {r.value!r} below the FFT grid maximum {lower!r}"
        if m == 2 and family == "optimal" and not _rel_close(r.value, c2(n), 1e-9):
            return "wrong", f"value {r.value!r} != C2({n}) = {c2(n)!r}"
        if m == 2 and family == "triangle" and not _rel_close(r.value, 4.0 / (n + 1) ** 2, 1e-9):
            return "wrong", f"value {r.value!r} != 4/(n+1)^2"
        if m == 1 and family == "constant" and not _rel_close(r.value, 2.0 / (2 * n + 1), 1e-9):
            return "wrong", f"value {r.value!r} != 2/(2n+1)"
        if m == 2 and family.startswith("random") and not r.value >= c2(n) - 1e-9:
            return "wrong", f"value {r.value!r} below C2({n})"
        return None

    def probe(r, acc, base_latency):
        """Split operator_norm into grid evaluation and refine_grid_max, outside the op."""
        count = 16 * (n + m) + 64
        grid = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        evals = [0, 0]  # scalar, vector

        def counted(xi):
            evals[np.ndim(xi) > 0] += 1
            return sk.multiplier.symbol_magnitude(u, m, xi)

        t0 = _clock()
        sk.multiplier.symbol_magnitude(u, m, grid)
        t1 = _clock()
        value, xi = sk.gridsearch.refine_grid_max(counted, grid)
        if value != r.value or xi != r.argmax_xi:
            acc["drift"].append(f"torus {family} n={n} m={m}")
            return
        acc["grid_eval_s"] += t1 - t0
        acc["polish_s"] += base_latency - (t1 - t0)
        acc["grid_points"] += count
        acc["scalar_evals"] += evals[0]
        acc["vector_evals"] += evals[1]

    return Op(
        f"torus {family} n={n} m={m}", n, 2 * n + 1,
        run=lambda: sk.multiplier.operator_norm(u, m),
        check=check, key=("torus", family, n, m), probe=probe,
    )


def _check_poly(r, torus):
    if torus is None:
        return "fail", "no torus result to compare with"
    if not _rel_close(r.value, torus.value, 1e-9):
        return "wrong", f"polynomial {r.value!r} != torus {torus.value!r}"
    return None


def _check_mu(r, _results):
    if abs(r.three_mu_over_pi - 1.015) > 0.001:
        return "wrong", f"3 mu / pi = {r.three_mu_over_pi!r}, not within 0.001 of 1.015"
    return None


def _check_ratio(r, torus, n):
    if torus is None:
        return "fail", "no torus result to compare with"
    expect = torus.value * n * n / math.pi
    if not _rel_close(r, expect, 1e-12):
        return "wrong", f"ratio {r!r} != n^2 C / pi = {expect!r}"
    return None


def _load_construct(sk, work: Path, spec: dict) -> list[Op]:
    def run(n):
        sol = sk.extremal.build_solution(n)
        report = sk.extremal.verify_equioscillation(sol, CERT_TOL)
        u = sk.kernels.optimal_kernel(n)
        buf = io.StringIO()
        sk.kernels.write_kernel_csv(u, buf)
        return report.passed, report.grid_max / report.alpha - 1.0, buf.getvalue()

    def check(r, _results, n):
        passed, excess, text = r
        if not passed:
            return "fail", f"certificate failed: grid_max/alpha - 1 = {excess:.3g}"
        lines = text.splitlines()
        if lines[:1] != ["k,weight"] or len(lines) != 2 * n + 2:
            return "wrong", "kernel file has the wrong header or row count"
        if abs(sum(float(line.split(",")[1]) for line in lines[1:]) - 1.0) > 1e-9:
            return "wrong", "kernel file weights do not sum to 1"
        return None

    return [
        Op(f"construct n={o['n']}", o["n"], 2 * o["n"] + 1,
           run=lambda n=o["n"]: run(n), check=lambda r, res, n=o["n"]: check(r, res, n))
        for o in spec["ops"]
    ]


def _kernel_file(work: Path, kind: str, n: int) -> Path:
    return work / f"kernel_{kind}_{n}.csv"


def _load_smooth(sk, work: Path, spec: dict) -> list[Op]:
    from smoothkit import cli

    for kind, n in KERNEL_FILES:
        rc = cli.main(["kernel", "--type", kind, "--n", str(n), "--output", str(_kernel_file(work, kind, n))])
        if rc != 0:
            raise RuntimeError(f"smoothkit kernel --type {kind} --n {n} exited {rc}")
    out = work / "out.csv"
    series_cache: dict[str, Any] = {}
    ref_cache: dict[int, np.ndarray] = {}

    def read_series(fname):
        if fname not in series_cache:
            series_cache[fname] = sk.series.read_csv(work / f"{fname}.csv", "level")
        return series_cache[fname]

    def collect(rc):
        if rc != 0:
            return rc, None
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            col = next(reader).index("smoothed")
            return rc, np.array([float(row[col]) for row in reader])

    ops = []
    for i, o in enumerate(spec["ops"]):
        how, kind, n = o["source"]
        if how == "type":
            source = ["--type", kind, "--n", str(n)]
        else:
            source = ["--file", str(_kernel_file(work, kind, n))]
        path = work / f"{o['file']}.csv"
        argv = ["smooth", "--input", str(path), "--column", "level", *source,
                "--boundary", o["boundary"], "--output", str(out)]

        def run(argv=argv):
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        def reference(i=i, how=how, kind=kind, n=n, o=o):
            if i not in ref_cache:
                if how == "type":
                    u = getattr(sk.kernels, f"{kind}_kernel")(n)
                else:
                    u = sk.kernels.read_kernel_csv(_kernel_file(work, kind, n))
                ref_cache[i] = sk.series.convolve(u, read_series(o["file"]), o["boundary"]).values
            return ref_cache[i]

        def check(r, _results, reference=reference):
            rc, got = r
            if rc != 0:
                return "fail", f"exit code {rc}"
            ref = reference()
            if got.shape != ref.shape or not np.array_equal(got, ref):
                return "wrong", "smoothed column differs from series.convolve"
            return None

        def probe(r, acc, _base, path=path, reference=reference):
            """Time series' own CSV reader and writer on the op's files."""
            t0 = _clock()
            sk.series.read_csv(path, "level")
            t1 = _clock()
            sk.series.write_csv(work / "probe.csv", sk.series.TimeSeries(reference()), "smoothed")
            acc["read_csv_s"] += t1 - t0
            acc["write_csv_s"] += _clock() - t1

        ops.append(Op(
            f"smooth {o['file']} {how} {kind} n={n} {o['boundary']}", n, WALKS[o["file"]],
            run=run, check=check, collect=collect, probe=probe,
        ))
    return ops


def load(name: str, sk, work: Path) -> tuple[list[Op], list[list[int]]]:
    """Make the workload's set-up calls into the library; returns the ops and the pass orders."""
    spec = json.loads((work / "spec.json").read_text())
    loader = {"norms": _load_norms, "construct": _load_construct, "smooth": _load_smooth}[name]
    return loader(sk, work, spec), spec["orders"]
