import math

import numpy as np

from smoothkit.gridsearch import refine_grid_max, resolve_ties, select_peaks


def two_bumps(scale, right_excess):
    """Peaks at 1 and 3 of heights scale and scale * (1 + right_excess)."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        left = np.exp(-((x - 1.0) ** 2) * 8.0)
        right = (1.0 + right_excess) * np.exp(-((x - 3.0) ** 2) * 8.0)
        return scale * (left + right)

    return fn


class TestTieRule:
    def test_exact_tie_takes_smallest_argument(self):
        _, x = refine_grid_max(two_bumps(1.0, 0.0), np.linspace(0.0, 4.0, 401))
        assert abs(x - 1.0) < 1e-6

    def test_band_is_relative_for_small_values(self):
        # 1e-9 relative is far outside a 1e-12 relative band, however small
        # the values are, so the higher peak must win
        for scale in (1e-7, 1.0, 1e3):
            _, x = refine_grid_max(two_bumps(scale, 1e-9), np.linspace(0.0, 4.0, 401))
            assert abs(x - 3.0) < 1e-6

    def test_resolve_ties_band(self):
        assert resolve_ties([1e-7, 1e-7 * (1 + 1e-13)], [2.0, 1.0]) == (1e-7 * (1 + 1e-13), 1.0)
        assert resolve_ties([1e-7 * (1 + 1e-11), 1e-7], [2.0, 1.0]) == (1e-7 * (1 + 1e-11), 2.0)


class TestPolish:
    def test_vectorized_calls_only(self):
        dims = []

        def fn(x):
            dims.append(np.ndim(x))
            return np.cos(np.asarray(x) - 0.3)

        _, x = refine_grid_max(fn, np.linspace(0.0, 3.0, 31))
        assert 0 not in dims
        assert abs(x - 0.3) <= 1e-12


class TestSelectPeaks:
    def test_best_first_with_endpoints(self):
        fs = np.array([5.0, 1.0, 3.0, 1.0, 4.0, 2.0, 6.0])
        assert select_peaks(fs).tolist() == [6, 0, 4]

    def test_near_ties_kept_up_to_twelve(self):
        xs = np.linspace(0.0, 40.0 * math.pi, 4001)
        fs = np.cos(xs) + 1e-4 * xs
        chosen = select_peaks(fs)
        assert chosen.size == 12
        assert np.all(np.diff(fs[chosen]) <= 0)
