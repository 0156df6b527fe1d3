"""The package exports exactly the export lists of its six library modules."""

import smoothkit
from smoothkit import asymptotics, chebyshev, cli, extremal, gridsearch, kernels, multiplier, series, suites

LIBRARY = (asymptotics, chebyshev, extremal, kernels, multiplier, series)


def test_exports_are_the_union_of_the_module_lists():
    union = [name for module in LIBRARY for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(smoothkit.__all__) == sorted(union)


def test_each_export_is_its_modules_object():
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(smoothkit, name) is getattr(module, name), name


def test_nothing_from_the_internal_modules_is_exported():
    internal = {m.__name__ for m in (gridsearch, suites, cli)}
    assert not set(smoothkit.__all__) & (set(gridsearch.__all__) | set(suites.__all__))
    assert not [n for n in smoothkit.__all__ if getattr(getattr(smoothkit, n), "__module__", None) in internal]

