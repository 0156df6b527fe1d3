import math

import numpy as np
import pytest

from smoothkit import extremal, multiplier
from smoothkit.gridsearch import refine_grid_max, resolve_ties, sample_count, select_peaks
from smoothkit.kernels import optimal_kernel


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


class TestSampleCount:
    def test_count(self):
        assert [sample_count(d) for d in (0, 1, 2, 7, 4098)] == [8 * d + 33 for d in (0, 1, 2, 7, 4098)]

    @pytest.mark.parametrize("degree", [1, 7, 64, 513])
    def test_sampled_max_within_the_bernstein_bound(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(5):
            coeffs = rng.standard_normal(degree + 1)

            def fn(theta):
                return np.abs(np.polynomial.chebyshev.chebval(np.cos(theta), coeffs))

            grid = np.linspace(0.0, math.pi, sample_count(degree))
            # polished from a grid 16 times denser than the rule's
            polished, _ = refine_grid_max(fn, np.linspace(0.0, math.pi, 16 * (grid.size - 1) + 1))
            assert np.max(fn(grid)) >= (1.0 - math.pi**2 / 512) * polished

    @pytest.mark.parametrize("n", [1, 10, 257])
    def test_polynomial_nodes_are_the_torus_half_grid(self, monkeypatch, n):
        grids, lengths = [], []
        refine, rfft = extremal.refine_grid_max, np.fft.rfft

        def record_grid(fn, grid):
            grids.append(np.asarray(grid))
            return refine(fn, grid)

        def record_length(a, n=None, *args, **kwargs):
            lengths.append(n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(extremal, "refine_grid_max", record_grid)
        monkeypatch.setattr(np.fft, "rfft", record_length)
        u = optimal_kernel(n)
        multiplier.operator_norm_via_polynomial(u)
        multiplier.operator_norm(u, 2)
        (theta,), (count,) = grids, lengths
        xi = 2.0 * math.pi * np.arange(count // 2 + 1) / count
        assert theta.shape == xi.shape
        assert np.all(np.abs(theta - xi) <= 4 * np.spacing(xi))
