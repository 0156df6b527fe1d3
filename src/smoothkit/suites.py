"""Named invariant suites behind the `verify` command.

Each suite re-checks the library's mathematical contracts at a configurable
half-width ceiling and returns structured pass/fail results. Randomized
sweeps use fixed seeds so identical invocations produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, extremal, kernels, multiplier, series
from .chebyshev import MAX_DEGREE, clenshaw_eval, integer

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_suites"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _draw(rng, size: int, floor: float, total) -> np.ndarray:
    """rng.normal(size) divided by total(draw), drawn again while |total| <= floor."""
    while True:
        w = rng.normal(size=size)
        t = total(w)
        if abs(t) > floor:
            return w / t


def _random_symmetric(rng, n: int) -> kernels.SymmetricKernel:
    return kernels.SymmetricKernel(n, _draw(rng, n + 1, 0.1, lambda w: w[0] + 2.0 * w[1:].sum()))


def _random_general(rng, n: int) -> kernels.GeneralKernel:
    return kernels.GeneralKernel(n, _draw(rng, 2 * n + 1, 0.1, np.sum))


def run_extremal_suite(n_max: int) -> list[CheckResult]:
    checks: list[CheckResult] = []

    alphas = [extremal.alpha_closed_form(d) for d in range(n_max + 1)]
    decreasing = all(a > b for a, b in zip(alphas, alphas[1:]))
    checks.append(CheckResult("alpha_monotone_decreasing", decreasing, f"d <= {n_max}"))

    # each certificate condition's measure, as the detail labels it
    labels = {"upper": "upper/alpha - 1", "S(1)": "|S(1) - 1|"}
    # the largest residual/min(1, alpha), upper/alpha - 1 and (alpha - lower)/alpha over all d; a passing sweep
    # proves max |(1 - x) p| >= alpha (1 - 1e-9) for every p of degree d <= n_max with p(1) = 1 (de la Vallee Poussin)
    worst = [0.0, 0.0, 0.0]
    # (d, measure) per failing d, grouped by the condition it fails
    failed = {name: [] for name in extremal.CONDITIONS}
    for d in range(n_max + 1):
        report = extremal.verify_equioscillation(extremal.build_solution(d), 1e-9)
        alpha, measures = report.alpha, dict(zip(extremal.CONDITIONS, report.measures))
        values = (float(np.max(report.residuals)) / min(1.0, alpha), measures["upper"], (alpha - report.lower) / alpha)
        worst = [max(w, v) for w, v in zip(worst, values)]
        for name in report.failed:
            failed[name].append((d, measures[name]))
    detail = (
        f"d <= {n_max}, worst residual/min(1, alpha) {worst[0]:.3g}, worst upper/alpha - 1 {worst[1]:.3g}, "
        f"worst (alpha - lower)/alpha {worst[2]:.3g}"
    )
    for name, group in failed.items():
        if group:
            detail += f"; {name} failed at {len(group)} d from d = {group[0][0]}, "
            detail += f"largest {labels[name]} {max(value for _, value in group):.3g}"
    checks.append(CheckResult("equioscillation", not any(failed.values()), detail))

    count_ok = True
    for d in (1, 2, 3, 5, 8, 13):
        N = d + 1
        # open at theta = 0: q(1) = 0 exactly, so its sampled sign is noise
        theta = np.linspace(0.0, math.pi, 50 * N + 1)[1:]
        vals = clenshaw_eval(extremal.build_solution(d).q, np.cos(theta))
        changes = int(np.sum(np.signbit(vals[:-1]) != np.signbit(vals[1:])))
        # N alternation points give N - 1 strict sign changes
        count_ok &= changes == N - 1
    checks.append(CheckResult("alternation_count", count_ok, "d in {1,2,3,5,8,13}"))
    return checks


def run_multiplier_suite(n_max: int) -> list[CheckResult]:
    checks: list[CheckResult] = []
    cap = min(n_max, 64)

    c2 = multiplier.closed_form_c2
    # name, kernel family, difference order, tolerance, detail label, error of the norm at n
    sweeps = (
        ("optimal_matches_closed_form", kernels.optimal_kernel, 2, 1e-9,
         f"n <= {cap}, worst rel err", lambda n, got: abs(got - c2(n)) / c2(n)),
        ("constant_first_order", kernels.constant_kernel, 1, 1e-10,
         "worst abs err", lambda n, got: abs(got - 2.0 / (2 * n + 1))),
        ("triangle_second_order", kernels.triangle_kernel, 2, 1e-9,
         "worst abs err", lambda n, got: abs(got - 4.0 / (n + 1) ** 2)),
    )
    for name, family, m, tol, label, error in sweeps:
        worst = 0.0
        for n in range(cap + 1):
            worst = max(worst, error(n, multiplier.operator_norm(family(n), m).value))
        checks.append(CheckResult(name, worst <= tol, f"{label} {worst:.3g}"))

    rng = np.random.default_rng(911)
    dual_worst = 0.0
    sharp_ok = True
    for i in range(100):
        n = 1 + i % 16
        u = _random_symmetric(rng, n)
        torus = multiplier.operator_norm(u, 2).value
        poly = multiplier.operator_norm_via_polynomial(u).value
        dual_worst = max(dual_worst, abs(torus - poly) / torus)
        sharp_ok &= torus >= multiplier.closed_form_c2(n) - 1e-9
    checks.append(
        CheckResult("dual_path_agreement", dual_worst <= 1e-9, f"worst rel gap {dual_worst:.3g}")
    )
    checks.append(CheckResult("sharp_lower_bound", sharp_ok, "100 random symmetric kernels"))

    rng = np.random.default_rng(424242)
    first_ok = True
    for n in (2, 5, 10):
        bound = 2.0 / (2 * n + 1) - 1e-9
        for _ in range(200):
            u = _random_general(rng, n)
            first_ok &= multiplier.operator_norm(u, 1).value >= bound
    checks.append(CheckResult("first_order_lower_bound", first_ok, "200 per n in {2,5,10}"))

    rng = np.random.default_rng(77)
    contraction_ok = True
    for i in range(100):
        u = _random_general(rng, 1 + i % 12)
        before = multiplier.operator_norm(u, 2).value
        after = multiplier.operator_norm(kernels.symmetrize(u), 2).value
        contraction_ok &= after <= before + 1e-9
    checks.append(CheckResult("symmetrization_contraction", contraction_ok, "100 random kernels"))

    rng = np.random.default_rng(1234)
    rayleigh_ok = True
    for i in range(500):
        m = 1 + i % 3
        n = 1 + i % 8
        u = _random_symmetric(rng, n) if i % 2 else _random_general(rng, n)
        f = series.TimeSeries(rng.normal(size=128))
        bound = multiplier.operator_norm(u, m).value
        rayleigh_ok &= multiplier.rayleigh_quotient(u, m, f) <= bound + 1e-9
    checks.append(CheckResult("rayleigh_below_norm", rayleigh_ok, "500 random signal/kernel pairs"))

    scaled = {
        n: multiplier.closed_form_c2(n) * (n + 1) ** 2 / math.pi for n in (64, 256, 1024, 2048)
    }
    checks.append(
        CheckResult(
            "optimal_scaled_limit",
            0.99 <= scaled[2048] <= 1.01,
            ", ".join(f"n={n}: {v:.6f}" for n, v in scaled.items()),
        )
    )
    return checks


def run_asymptotics_suite(n_max: int) -> list[CheckResult]:
    checks: list[CheckResult] = []
    mu = asymptotics.compute_mu()

    mu_ok = (
        abs(mu.three_mu_over_pi - 1.015) <= 0.001
        and mu.mu >= 1.0 + 1.0 / 16.0
        and abs(mu.mu - asymptotics.sinc_cos_gap(mu.alpha_star)) <= 1e-12
    )
    checks.append(
        CheckResult(
            "mu_constants",
            mu_ok,
            f"mu={mu.mu:.6f} at alpha={mu.alpha_star:.6f}, 3mu/pi={mu.three_mu_over_pi:.6f}",
        )
    )

    rng = np.random.default_rng(5150)
    mu_max_ok = bool(np.all(asymptotics.sinc_cos_gap(rng.uniform(0, 16, 1000)) <= mu.mu))
    checks.append(CheckResult("mu_is_maximum", mu_max_ok, "1000 random frequencies"))

    rng = np.random.default_rng(60601)
    top = min(n_max, 512)
    resid = [
        np.max(asymptotics.verify_identity(n, rng.uniform(-1.0, 1.0 - 1e-9, 100))) / (n * n)
        for n in range(1, top + 1)
    ]
    worst = float(np.max(resid))  # np.max keeps a nan, which fails the check
    detail = f"n <= {top}, worst residual/n^2 {worst:.3g}"
    checks.append(CheckResult("difference_identity", worst <= 1e-8, detail))

    rng = np.random.default_rng(31337)
    beat_ok = True
    for n in range(1, 65):
        x = rng.uniform(-1.0, 1.0 - 1e-9, 1000)
        beat_ok &= asymptotics.beat_bound_check(n, x)
        beat_ok &= asymptotics.beat_bound_check(n, -1.0)
    checks.append(CheckResult("beat_bound", beat_ok, "n <= 64, 1000 points each"))

    grid = np.linspace(0.0, 16.0, 1601)  # alpha in [0, 16], shared by the two symbol checks
    safe = np.where(grid == 0.0, 1.0, grid)
    limit = np.where(grid == 0.0, 1.0, np.sin(safe) / safe) - np.cos(grid)
    sups = {
        n: float(np.max(np.abs(asymptotics.scaled_symbol(n, grid) - limit)))
        for n in (256, 1024, 4096)
    }
    conv_ok = sups[256] <= 0.05 and sups[4096] <= 0.005
    checks.append(
        CheckResult(
            "scaled_symbol_convergence",
            conv_ok,
            ", ".join(f"n={n}: sup {v:.4g}" for n, v in sups.items()),
        )
    )

    direct = (
        (1.0 - np.cos(grid / 16.0))
        * clenshaw_eval(asymptotics.epanechnikov_series(16), np.cos(grid / 16.0))
        / 32.0
    )
    two_path = float(np.max(np.abs(asymptotics.scaled_symbol(16, grid) - direct)))
    checks.append(CheckResult("series_vs_trig_form", two_path <= 1e-9, f"sup {two_path:.3g}"))

    split_ok = True
    for n in (64, 256):
        theta = np.linspace(16.0 / n, math.pi, 20 * n)
        x = np.cos(theta)
        vals = np.abs((1.0 - x) * clenshaw_eval(asymptotics.epanechnikov_series(n), x)) / (2.0 * n)
        split_ok &= float(np.max(vals)) <= mu.mu + 0.02
    checks.append(CheckResult("interval_split_bound", split_ok, "n in {64, 256}"))

    reported = {n: asymptotics.epanechnikov_ratio(n) for n in (16, 64)}
    ratio_ok = all(abs(v / mu.three_mu_over_pi - 1.0) <= 0.01 for v in reported.values())
    checks.append(
        CheckResult(
            "epanechnikov_ratio_reported",
            ratio_ok,
            ", ".join(f"n={n}: {v:.6f}" for n, v in reported.items()),
        )
    )
    return checks


_RUNNERS = {
    "extremal": run_extremal_suite,
    "multiplier": run_multiplier_suite,
    "asymptotics": run_asymptotics_suite,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, n_max: int = 64) -> list[CheckResult]:
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    n_max = integer(n_max, "n_max")
    if not 1 <= n_max <= MAX_DEGREE:
        raise ValueError(f"n_max must be in [1, {MAX_DEGREE}], got {n_max}")
    try:
        return _RUNNERS[name](n_max=n_max)
    except extremal.ConstructionError as exc:
        # the construction's own S(1) = 1 check tripped: a failed invariant, not a crash;
        # any other exception is a crash and reaches the CLI as an internal error
        return [CheckResult("construction_self_check", False, f"{type(exc).__name__}: {exc}")]


def run_suites(names, n_max: int = 64) -> dict:
    n_max = integer(n_max, "n_max")
    summary: dict = {"n_max": n_max, "suites": {}, "all_passed": True}
    for name in names:
        checks = run_suite(name, n_max=n_max)
        passed = all(c.passed for c in checks)
        summary["suites"][name] = {
            "passed": bool(passed),
            "checks": [
                {"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in checks
            ],
        }
        summary["all_passed"] = summary["all_passed"] and passed
    return summary
