"""Every check of every verify suite passes at n_max = 512; the extremal end checks run at every degree."""

import dataclasses

import pytest

from smoothkit import extremal, suites


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_every_check_passes(suite_runs, name):
    failed = [f"{c.name}: {c.detail}" for c in suite_runs[name].checks.values() if not c.passed]
    assert not failed, f"{name} suite failed: {failed}"


def test_end_checks_run_past_degree_64(monkeypatch):
    # y_N = -1 - 1e-13 lies inside the clamp band, so only the suite's end check y_N == -1 can fail it
    original = extremal.build_solution

    def moved_end(d):
        sol = original(d)
        if d != 100:
            return sol
        y = sol.alternation_points.copy()
        y[-1] = -1.0 - 1e-13
        return dataclasses.replace(sol, alternation_points=y)

    monkeypatch.setattr(extremal, "build_solution", moved_end)
    assert extremal.verify_equioscillation(moved_end(100), 1e-9).passed
    checks = {c.name: c.passed for c in suites.run_suite("extremal", n_max=100)}
    assert [name for name, passed in checks.items() if not passed] == ["equioscillation"]
