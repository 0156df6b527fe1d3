"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `criterion NN ... PASS/FAIL` line (visible with -s or
on failure). Criteria with runtime budgets assert the elapsed time too.
Criteria that a `verify` suite already checks read that check from the
shared `suite_runs` fixture, at n_max = 512, rather than repeating its sweep;
their budgets then apply to the whole suite run.
"""

import json
import math
import time

import numpy as np

from smoothkit import cli
from smoothkit.asymptotics import compute_mu, epanechnikov_ratio
from smoothkit.kernels import (
    constant_kernel,
    epanechnikov_kernel,
    optimal_kernel,
    read_kernel_csv,
    symmetrize,
    triangle_kernel,
)
from smoothkit.multiplier import (
    closed_form_c2,
    operator_norm,
    rayleigh_quotient,
    wave_packet,
)
from smoothkit.series import TimeSeries, convolve, derivative, l2_norm
from smoothkit.suites import _random_general


def report(num: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {num:02d} {label}: {status}{timing}")


def report_checks(num, label, run, names, budget=None):
    """Report and assert the named checks of one shared suite run."""
    checks = [run.checks[name] for name in names]
    detail = "; ".join(f"{c.name}: {c.detail}" for c in checks)
    failed = [c.name for c in checks if not c.passed]
    in_budget = budget is None or run.seconds <= budget
    report(num, f"{label} ({detail})", not failed and in_budget, run.seconds if budget else None)
    assert not failed, detail
    assert in_budget, f"suite run took {run.seconds:.2f}s, budget {budget}s"


def test_criterion_01_closed_form_sharp_constant(suite_runs):
    report_checks(
        1,
        "optimal norm equals closed form",
        suite_runs["multiplier"],
        ["optimal_matches_closed_form"],
        budget=10.0,
    )


def test_criterion_02_hand_derived_fixture():
    u = optimal_kernel(1)
    weights_ok = abs(u.weights[0] - 0.3964466) <= 1e-6 and abs(u.weights[1] - 0.3017767) <= 1e-6
    norm = operator_norm(u, 2).value
    norm_ok = abs(norm - 2 * (math.sqrt(2) - 1)) <= 1e-9
    ok = weights_ok and norm_ok
    report(2, "half-width-1 fixture (weights to 1e-6, norm to 1e-9)", ok)
    assert ok


def test_criterion_03_first_order_equality_and_bound(suite_runs):
    equality = suite_runs["multiplier"].checks["constant_first_order"]

    # the suite draws 200 kernels per n; the criterion asks for 1000
    rng = np.random.default_rng(424242)
    bound_ok = True
    for n in (2, 5, 10):
        bound = 2.0 / (2 * n + 1) - 1e-9
        for _ in range(1000):
            if operator_norm(_random_general(rng, n), 1).value < bound:
                bound_ok = False
    ok = equality.passed and bound_ok
    report(3, f"first-order equality ({equality.detail}) and 3000-kernel bound", ok)
    assert equality.passed, equality.detail
    assert bound_ok


def test_criterion_04_triangle_equality(suite_runs):
    report_checks(
        4, "triangle second-order equality", suite_runs["multiplier"], ["triangle_second_order"]
    )


def test_criterion_05_mu_constant():
    start = time.perf_counter()
    mu = compute_mu()
    elapsed = time.perf_counter() - start
    ok = abs(mu.three_mu_over_pi - 1.015) <= 0.001 and mu.mu >= 1.0625 and elapsed <= 1.0
    report(5, f"mu = {mu.mu:.6f}, 3mu/pi = {mu.three_mu_over_pi:.6f}", ok, elapsed)
    assert abs(mu.three_mu_over_pi - 1.015) <= 0.001
    assert mu.mu >= 1.0625
    assert elapsed <= 1.0


def test_criterion_06_desk_scale_asymptotics():
    start = time.perf_counter()
    n = 2048
    scaled = closed_form_c2(n) * (n + 1) ** 2 / math.pi
    mu = compute_mu()
    rel = epanechnikov_ratio(n) / mu.three_mu_over_pi
    elapsed = time.perf_counter() - start
    ok = 0.99 <= scaled <= 1.01 and 0.99 <= rel <= 1.01 and elapsed <= 60.0
    report(6, f"n=2048: optimal scaled {scaled:.6f}, Epanechnikov/limit {rel:.6f}", ok, elapsed)
    assert 0.99 <= scaled <= 1.01
    assert 0.99 <= rel <= 1.01
    assert elapsed <= 60.0


def test_criterion_07_equioscillation_suite(suite_runs):
    report_checks(
        7,
        "equioscillation at 1e-9 for all degrees <= 512",
        suite_runs["extremal"],
        ["equioscillation"],
        budget=30.0,
    )


def test_criterion_08_dual_path_agreement(suite_runs):
    report_checks(
        8, "torus and polynomial norms agree", suite_runs["multiplier"], ["dual_path_agreement"]
    )


def test_criterion_09_witness_sharpness():
    u = optimal_kernel(10)
    bound = operator_norm(u, 2)
    packet = wave_packet(bound.argmax_xi, 400.0, 20_000)
    quotient = rayleigh_quotient(u, 2, packet)
    ok = quotient >= 0.99 * bound.value
    report(9, f"wave packet attains {quotient / bound.value:.6f} of the norm", ok)
    assert ok


def test_criterion_10_difference_identity_suites(suite_runs):
    report_checks(
        10,
        "identity/beat/convergence suites",
        suite_runs["asymptotics"],
        ["difference_identity", "beat_bound", "scaled_symbol_convergence"],
    )


def test_criterion_11_end_to_end_inequality():
    rng = np.random.default_rng(1789)
    kernels = [
        constant_kernel(10),
        triangle_kernel(10),
        epanechnikov_kernel(10),
        optimal_kernel(10),
    ]
    bounds = [operator_norm(u, 2).value for u in kernels]
    ok = True
    for _ in range(200):
        f = TimeSeries(rng.normal(size=4096))
        fn = l2_norm(f)
        for u, c in zip(kernels, bounds):
            lhs = l2_norm(derivative(convolve(u, f, "valid"), 2))
            if lhs > c * fn * (1 + 1e-9):
                ok = False
    report(11, "200 random signals obey the sharp inequality for all named kernels", ok)
    assert ok


def test_criterion_12_cli_round_trips(tmp_path, capsys):
    # determinism of repeated invocations
    code1 = cli.main(["norm", "--type", "optimal", "--n", "10"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["norm", "--type", "optimal", "--n", "10"])
    out2 = capsys.readouterr().out
    deterministic = code1 == code2 == 0 and out1 == out2

    # kernel file fed back into norm --file equals the library value
    path = tmp_path / "u10.csv"
    code3 = cli.main(["kernel", "--type", "optimal", "--n", "10", "--output", str(path)])
    capsys.readouterr()
    code4 = cli.main(["norm", "--file", str(path), "--order", "2"])
    out4 = capsys.readouterr().out
    file_norm = json.loads(out4)["value"]
    library_norm = operator_norm(symmetrize(read_kernel_csv(path)), 2).value
    round_trip = code3 == code4 == 0 and abs(file_norm - library_norm) <= 1e-12

    # full verification suite exits cleanly
    code5 = cli.main(["verify", "--suite", "all", "--n-max", "64"])
    out5 = capsys.readouterr().out
    verify_ok = code5 == 0 and json.loads(out5)["all_passed"]

    ok = deterministic and round_trip and verify_ok
    report(12, "CLI determinism, file round-trip, verify --suite all", ok)
    assert deterministic
    assert round_trip
    assert verify_ok
