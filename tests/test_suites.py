"""Every check of every verify suite passes at n_max = 512; a failing certificate detail names the failed condition."""

import dataclasses
import re

import pytest

from smoothkit import extremal, suites
from smoothkit.chebyshev import ChebSeries


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_every_check_passes(suite_runs, name):
    failed = [f"{c.name}: {c.detail}" for c in suite_runs[name].checks.values() if not c.passed]
    assert not failed, f"{name} suite failed: {failed}"


def test_end_checks_run_past_degree_64(monkeypatch):
    # y_N = -1 - 1e-13 lies inside the clamp band, so only the certificate's end check y_N == -1 can fail it
    original = extremal.build_solution

    def moved_end(d):
        sol = original(d)
        if d != 100:
            return sol
        y = sol.alternation_points.copy()
        y[-1] = -1.0 - 1e-13
        return dataclasses.replace(sol, alternation_points=y)

    monkeypatch.setattr(extremal, "build_solution", moved_end)
    assert not extremal.verify_equioscillation(moved_end(100), 1e-9).passed
    checks = {c.name: c for c in suites.run_suite("extremal", n_max=100)}
    assert [name for name, c in checks.items() if not c.passed] == ["equioscillation"]
    assert checks["equioscillation"].detail.endswith(
        "; y_N failed at 1 d from d = 100, largest grid_max/alpha - 1 "
        f"{extremal.verify_equioscillation(moved_end(100), 1e-9).grid_max / extremal.alpha_closed_form(100) - 1:.3g}"
    )


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
         "; S(1) failed at 2 d from d = 5, largest grid_max/alpha - 1 1e-08"),
        # at d = 0, alpha = 2: q(-1) moves by 2e-6, so the residuals fail as well
        ({0}, 1 + 1e-6, "; guard failed at 1 d from d = 0, largest grid_max/alpha - 1 1e-06"
         "; residuals failed at 1 d from d = 0, largest grid_max/alpha - 1 1e-06"
         "; S(1) failed at 1 d from d = 0, largest grid_max/alpha - 1 1e-06"),
        # S (1 - 6e-10) at d = 0 shrinks q(-1) by 1.2e-9: the residuals fail alone
        ({0}, 1 - 6e-10, "; residuals failed at 1 d from d = 0, largest grid_max/alpha - 1 -6e-10"),
    ],
    ids=["guard_and_S1_at_5_and_9", "three_conditions_at_0", "residuals_alone_at_0"],
)
def test_failing_detail_names_the_condition(monkeypatch, degrees, scale, expected):
    monkeypatch.setattr(extremal, "build_solution", _scaled_at(degrees, scale))
    (check,) = [c for c in suites.run_suite("extremal", n_max=12) if c.name == "equioscillation"]
    assert not check.passed
    assert check.detail.startswith("d <= 12, worst residual ")
    assert check.detail.endswith(expected), check.detail


def test_a_d_failing_two_conditions_is_listed_under_both(monkeypatch):
    # S - 5e-11 (T_0 - T_1) adds -5e-11 (1 - x)^2 to q, which is -alpha at x = -1 for d = 7:
    # |q(-1)| grows by 2e-10, past the guard's 1e-9 alpha but inside the residuals' 1e-9, and S(1)
    # keeps its value; y_N = -1 - 1e-13 lies inside the clamp band and fails the end check alone
    original = extremal.build_solution

    def bumped(d):
        sol = original(d)
        if d != 7:
            return sol
        S = sol.S.coeffs.copy()
        S[:2] += [-5e-11, 5e-11]
        y = sol.alternation_points.copy()
        y[-1] = -1.0 - 1e-13
        return dataclasses.replace(sol, S=ChebSeries(S), alternation_points=y)

    monkeypatch.setattr(extremal, "build_solution", bumped)
    report = extremal.verify_equioscillation(bumped(7), 1e-9)
    assert report.failed == ("guard", "y_N")
    assert not report.passed
    excess = f"{report.grid_max / report.alpha - 1:.3g}"
    (check,) = [c for c in suites.run_suite("extremal", n_max=12) if c.name == "equioscillation"]
    assert check.detail.endswith(
        f"; guard failed at 1 d from d = 7, largest grid_max/alpha - 1 {excess}"
        f"; y_N failed at 1 d from d = 7, largest grid_max/alpha - 1 {excess}"
    ), check.detail


def test_passing_detail_names_no_condition():
    (check,) = [c for c in suites.run_suite("extremal", n_max=12) if c.name == "equioscillation"]
    assert check.passed
    assert re.fullmatch(r"d <= 12, worst residual [0-9.e+-]+", check.detail), check.detail
