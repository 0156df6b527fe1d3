"""Every check of every verify suite passes at n_max = 512.

A failing certificate detail names each failed condition with its own measure.
"""

import dataclasses
import re

import numpy as np
import pytest

from smoothkit import extremal, suites
from smoothkit.chebyshev import ChebSeries


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_every_check_passes(suite_runs, name):
    failed = [f"{c.name}: {c.detail}" for c in suite_runs[name].checks.values() if not c.passed]
    assert not failed, f"{name} suite failed: {failed}"


def _scaled_at(degrees, scale):
    """build_solution with S times scale at the given degrees."""
    original = extremal.build_solution

    def build(d):
        sol = original(d)
        return dataclasses.replace(sol, S=ChebSeries(sol.S.coeffs * scale)) if d in degrees else sol

    return build


@pytest.mark.parametrize(
    "degrees, scale, expected",
    [
        # S (1 + 1e-8) lifts q by 1e-8 alpha: the guard fails, residuals stay below 1e-9 at d >= 5,
        # and S(1) = 1 + 1e-8 fails its end check
        ({5, 9}, 1 + 1e-8, "; guard failed at 2 d from d = 5, largest grid_max/alpha - 1 1e-08"
         "; S(1) failed at 2 d from d = 5, largest |S(1) - 1| 1e-08"),
        # at d = 0, alpha = 2: q(-1) moves by 2e-6, so the residuals fail as well
        ({0}, 1 + 1e-6, "; guard failed at 1 d from d = 0, largest grid_max/alpha - 1 1e-06"
         "; residuals failed at 1 d from d = 0, largest residual 2e-06"
         "; S(1) failed at 1 d from d = 0, largest |S(1) - 1| 1e-06"),
        # S (1 - 6e-10) at d = 0 shrinks q(-1) by 1.2e-9: the residuals fail alone
        ({0}, 1 - 6e-10, "; residuals failed at 1 d from d = 0, largest residual 1.2e-09"),
    ],
    ids=["guard_and_S1_at_5_and_9", "three_conditions_at_0", "residuals_alone_at_0"],
)
def test_failing_detail_names_the_condition(monkeypatch, degrees, scale, expected):
    monkeypatch.setattr(extremal, "build_solution", _scaled_at(degrees, scale))
    (check,) = [c for c in suites.run_suite("extremal", n_max=12) if c.name == "equioscillation"]
    assert not check.passed
    assert check.detail.startswith("d <= 12, worst residual ")
    assert check.detail.endswith(expected), check.detail


def test_each_condition_holds_iff_its_measure_is_at_most_tol():
    # the three_conditions_at_0 solution; its measures are the ones that case's detail prints
    sol = _scaled_at({0}, 1 + 1e-6)(0)
    measures = extremal.verify_equioscillation(sol, 1e-9).measures
    assert [f"{m:.3g}" for m in measures] == ["1e-06", "2e-06", "1e-06"]
    # at tol = a condition's measure it holds, one ulp below it fails; the others follow the same rule
    for measure in measures:
        for tol in (measure, np.nextafter(measure, 0)):
            report = extremal.verify_equioscillation(sol, tol)
            assert report.measures == measures
            assert report.failed == tuple(n for n, m in zip(extremal.CONDITIONS, measures) if m > tol)


def test_a_d_failing_two_conditions_is_listed_under_both(monkeypatch):
    # S - 5e-10 (T_0 - T_1) adds -5e-10 (1 - x)^2 to q, which is -alpha at x = -1 for d = 7:
    # |q(-1)| grows by 2e-9, past the guard's 1e-9 alpha and the residuals' 1e-9, and S(1) keeps its value
    original = extremal.build_solution

    def bumped(d):
        sol = original(d)
        if d != 7:
            return sol
        S = sol.S.coeffs.copy()
        S[:2] += [-5e-10, 5e-10]
        return dataclasses.replace(sol, S=ChebSeries(S))

    monkeypatch.setattr(extremal, "build_solution", bumped)
    report = extremal.verify_equioscillation(bumped(7), 1e-9)
    assert report.failed == ("guard", "residuals")
    assert not report.passed
    (check,) = [c for c in suites.run_suite("extremal", n_max=12) if c.name == "equioscillation"]
    # each condition lists the d with its own measure
    assert check.detail.endswith(
        f"; guard failed at 1 d from d = 7, largest grid_max/alpha - 1 {report.grid_max / report.alpha - 1:.3g}"
        f"; residuals failed at 1 d from d = 7, largest residual {float(report.residuals.max()):.3g}"
    ), check.detail


def test_end_checks_run_past_degree_64(monkeypatch):
    # S (1 - 2e-9) at d = 100 moves S(1) by 2e-9 and q by 2e-9 alpha: only the end check S(1) fails
    monkeypatch.setattr(extremal, "build_solution", _scaled_at({100}, 1 - 2e-9))
    sol = extremal.build_solution(100)
    assert extremal.verify_equioscillation(sol, 1e-9).failed == ("S(1)",)
    checks = {c.name: c for c in suites.run_suite("extremal", n_max=100)}
    assert [name for name, c in checks.items() if not c.passed] == ["equioscillation"]
    assert checks["equioscillation"].detail.endswith(
        f"; S(1) failed at 1 d from d = 100, largest |S(1) - 1| {abs(float(sol.S.coeffs.sum()) - 1):.3g}"
    )


def test_passing_detail_names_no_condition():
    (check,) = [c for c in suites.run_suite("extremal", n_max=12) if c.name == "equioscillation"]
    assert check.passed
    assert re.fullmatch(r"d <= 12, worst residual [0-9.e+-]+", check.detail), check.detail
