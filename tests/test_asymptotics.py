import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothkit import asymptotics
from smoothkit.asymptotics import (
    beat_bound_check,
    compute_mu,
    epanechnikov_ratio,
    epanechnikov_series,
    scaled_symbol,
    sinc_cos_gap,
    verify_identity,
)
from smoothkit.gridsearch import sample_count
from smoothkit.kernels import epanechnikov_kernel, to_polynomial
from smoothkit.multiplier import operator_norm


class TestMu:
    def test_gap_at_zero(self):
        assert sinc_cos_gap(0.0) == 0.0

    def test_reference_values(self):
        mu = compute_mu()
        assert abs(mu.three_mu_over_pi - 1.015) <= 0.001
        assert abs(mu.mu - 1.063) <= 0.001
        assert mu.mu >= 1.0 + 1.0 / 16.0

    def test_self_consistency(self):
        mu = compute_mu()
        assert abs(mu.mu - sinc_cos_gap(mu.alpha_star)) <= 1e-12
        assert mu.three_mu_over_pi == pytest.approx(3 * mu.mu / math.pi, rel=1e-15)
        assert 0.0 <= mu.alpha_star <= 16.0

    def test_mu_bits(self):
        assert compute_mu().mu == 1.0631036589086036

    def test_alpha_star_is_the_root_of_the_slope(self):
        with mpmath.workdps(40):
            root = mpmath.findroot(lambda a: mpmath.cos(a) / a - mpmath.sin(a) / a**2 + mpmath.sin(a), 2.74)
            assert abs(mpmath.mpf(compute_mu().alpha_star) - root) <= 1e-14

    def test_samples_the_rule_grid(self, monkeypatch):
        grids = []

        def record(alpha):
            grids.append(np.asarray(alpha))
            return sinc_cos_gap(alpha)

        monkeypatch.setattr(asymptotics, "sinc_cos_gap", record)
        compute_mu()
        (grid,) = grids
        assert grid.size == sample_count(6) == 81
        assert np.array_equal(grid, np.linspace(0.0, 16.0, 81))

    def test_polish_stays_off_the_origin(self, monkeypatch):
        # the closed-form derivatives are singular at a = 0; the docstring says
        # why every polish point lies in [2.4, 16]
        points = []
        maximize = asymptotics.maximize

        def record(grid, samples, derivs_at):
            def at(nodes, lo, hi):
                derivs = derivs_at(nodes, lo, hi)

                def recorded(live, t):
                    points.extend(grid[nodes[live]] + t)
                    return derivs(live, t)

                return recorded

            return maximize(grid, samples, at)

        monkeypatch.setattr(asymptotics, "maximize", record)
        compute_mu()
        assert points and 2.4 <= min(points) and max(points) <= 16.0

    def test_nodes_sample_every_local_maximum_within_the_band(self):
        # brute force in long double: each local maximum of |f| on [0, 16] is
        # sampled by its nearest rule node at least 1 - pi^2/512 times its value
        a = np.linspace(np.longdouble(0), np.longdouble(16), 160_001)[1:]
        f = np.abs(np.sin(a) / a - np.cos(a))
        peaks = np.nonzero((f[1:-1] > f[:-2]) & (f[1:-1] > f[2:]))[0] + 1
        assert peaks.size == 5
        nodes = np.linspace(0.0, 16.0, sample_count(6))
        nearest = nodes[np.argmin(np.abs(nodes[:, None] - a[peaks].astype(float)), axis=0)]
        assert np.all(sinc_cos_gap(nearest) >= (1.0 - math.pi**2 / 512) * f[peaks].astype(float))

    @pytest.mark.parametrize("a", [0.5, 1.3, 4.0, 7.7, 11.1, 16.0])
    def test_closed_form_derivatives(self, a):
        f, f1, f2 = asymptotics._gap_derivs(a)
        with mpmath.workdps(40):
            gap = lambda x: mpmath.sin(x) / x - mpmath.cos(x)
            for value, order in ((f, 0), (f1, 1), (f2, 2)):
                exact = mpmath.diff(gap, mpmath.mpf(a), order)
                assert abs(value - exact) <= 1e-13 * abs(exact)


class TestEpanechnikovSeries:
    def test_small_orders(self):
        assert_allclose(epanechnikov_series(1).coeffs, [1.0])
        assert_allclose(epanechnikov_series(2).coeffs, [4.0, 6.0])

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_matches_scaled_kernel_polynomial(self, n):
        # removing the 3 / (n (4n^2 - 1)) normalization recovers the series
        p = to_polynomial(epanechnikov_kernel(n)).coeffs * (n * (4 * n * n - 1) / 3.0)
        series = epanechnikov_series(n).coeffs
        assert_allclose(p[:-1], series, atol=1e-12)
        assert abs(p[-1]) <= 1e-12  # top weight is zero

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            epanechnikov_series(0)


class TestDifferenceIdentity:
    def test_base_case_exact(self):
        for x in (-0.9, -0.3, 0.0, 0.4, 0.99):
            assert verify_identity(1, x) <= 1e-14

    def test_mid_order(self):
        assert verify_identity(7, 0.3) <= 1e-10

    def test_sweep(self):
        rng = np.random.default_rng(60601)
        for n in (2, 16, 64, 257):
            x = rng.uniform(-1, 1 - 1e-9, 100)
            assert float(np.max(verify_identity(n, x))) <= 1e-8 * n * n

    def test_rejects_at_one(self):
        with pytest.raises(ValueError):
            verify_identity(3, 1.0)


class TestBeatBound:
    def test_endpoint_tight(self):
        # at x = -1 both sides equal 1
        for n in (1, 4, 9):
            assert beat_bound_check(n, -1.0)

    def test_near_one(self):
        assert beat_bound_check(5, 0.9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            beat_bound_check(2, 1.0)


class TestScaledSymbol:
    def test_zero_limit(self):
        for n in (1, 5, 4096):
            assert scaled_symbol(n, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_attains_mu_at_large_n(self):
        mu = compute_mu()
        assert abs(scaled_symbol(4096, mu.alpha_star) - mu.mu) <= 0.005


class TestEpanechnikovRatio:
    def test_matches_direct_norm(self):
        for n in (2, 5, 16):
            direct = operator_norm(epanechnikov_kernel(n), 2).value * n * n / math.pi
            assert epanechnikov_ratio(n) == pytest.approx(direct, rel=1e-12)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            epanechnikov_ratio(1)
