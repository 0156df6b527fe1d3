"""Every check of every verify suite passes at n_max = 512."""

import pytest

from smoothkit.suites import SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_check_passes(suite_runs, name):
    failed = [f"{c.name}: {c.detail}" for c in suite_runs[name].checks.values() if not c.passed]
    assert not failed, f"{name} suite failed: {failed}"
