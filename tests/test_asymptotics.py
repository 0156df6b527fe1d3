import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothkit.asymptotics import (
    beat_bound_check,
    compute_mu,
    epanechnikov_ratio,
    epanechnikov_series,
    scaled_symbol,
    sinc_cos_gap,
    verify_identity,
)
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
