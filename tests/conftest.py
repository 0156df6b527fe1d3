import time
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from smoothkit import suites
from smoothkit.suites import CheckResult

settings.register_profile(
    "smoothkit",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("smoothkit")


@dataclass
class SuiteRun:
    checks: dict[str, CheckResult]
    seconds: float


@pytest.fixture(scope="session")
def suite_runs() -> dict[str, SuiteRun]:
    """Every verify suite, run once at n_max = 512: the sizes of the acceptance criteria."""
    runs = {}
    for name in suites.SUITE_NAMES:
        start = time.perf_counter()
        checks = suites.run_suite(name, n_max=512)
        runs[name] = SuiteRun({c.name: c for c in checks}, time.perf_counter() - start)
    return runs
