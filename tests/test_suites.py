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
        "; end conditions failed at 1 d from d = 100, largest grid_max/alpha - 1 "
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
        # S (1 + 1e-8) lifts q by 1e-8 alpha: the guard fails, residuals stay below 1e-9 at d >= 5
        ({5, 9}, 1 + 1e-8, "; guard failed at 2 d from d = 5, largest grid_max/alpha - 1 1e-08"),
        # at d = 0, alpha = 2: q(-1) moves by 2e-6, so the residuals fail as well
        ({0}, 1 + 1e-6, "; guard failed at 1 d from d = 0, largest grid_max/alpha - 1 1e-06"
         "; residuals failed at 1 d from d = 0, largest grid_max/alpha - 1 1e-06"),
        # S (1 - 6e-10) at d = 0 shrinks q(-1) by 1.2e-9: the residuals fail alone
        ({0}, 1 - 6e-10, "; residuals failed at 1 d from d = 0, largest grid_max/alpha - 1 -6e-10"),
    ],
)
def test_failing_detail_names_the_condition(monkeypatch, degrees, scale, expected):
    monkeypatch.setattr(extremal, "build_solution", _scaled_at(degrees, scale))
    (check,) = [c for c in suites.run_suite("extremal", n_max=12) if c.name == "equioscillation"]
    assert not check.passed
    assert check.detail.startswith("d <= 12, worst residual ")
    assert check.detail.endswith(expected), check.detail


def test_passing_detail_names_no_condition():
    (check,) = [c for c in suites.run_suite("extremal", n_max=12) if c.name == "equioscillation"]
    assert check.passed
    assert re.fullmatch(r"d <= 12, worst residual [0-9.e+-]+", check.detail), check.detail
