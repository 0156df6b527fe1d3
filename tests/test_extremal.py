import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import eval_T, stretch_map
from smoothkit import extremal
from smoothkit.chebyshev import ChebSeries, clenshaw_eval, transform
from smoothkit.extremal import (
    alpha_closed_form,
    build_solution,
    minimax_lower_bound_check,
    verify_equioscillation,
)
from smoothkit.suites import _random_unit_at_one


class TestAlpha:
    def test_degree_zero(self):
        # p = 1 forced; max |1 - x| over [-1, 1] is 2
        assert alpha_closed_form(0) == pytest.approx(2.0, abs=1e-15)

    def test_degree_one_closed_form(self):
        assert alpha_closed_form(1) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)

    def test_degree_one_brute_force(self):
        # minimize max_x |(1-x)(a + (1-a)x)| over a by brute grid search
        theta = np.linspace(0.0, math.pi, 801)
        x = np.cos(theta)
        best = math.inf
        for a in np.arange(-2.0, 2.0, 1e-4):
            m = np.max(np.abs((1.0 - x) * (a + (1.0 - a) * x)))
            best = min(best, m)
        assert best == pytest.approx(math.sqrt(2) - 1, abs=1e-3)

    def test_degree_five(self):
        expected = 2 * math.sin(math.pi / 12) / (6 * (1 + math.cos(math.pi / 12)))
        assert alpha_closed_form(5) == pytest.approx(expected, rel=1e-15)
        assert alpha_closed_form(5) == pytest.approx(0.04388416586246528, rel=1e-12)

    def test_monotone_decreasing(self):
        alphas = [alpha_closed_form(d) for d in range(65)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            alpha_closed_form(-1)


class TestStretch:
    @pytest.mark.parametrize("d", [0, 1, 5, 100])
    def test_endpoints(self, d):
        assert stretch_map(d, -1.0) == pytest.approx(-1.0, abs=1e-15)
        assert stretch_map(d, 1.0) == pytest.approx(math.cos(math.pi / (2 * (d + 1))), abs=1e-15)

    def test_degree_one_at_one(self):
        assert stretch_map(1, 1.0) == pytest.approx(math.cos(math.pi / 4), abs=1e-15)

    def test_degree_zero_midpoint(self):
        assert stretch_map(0, 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_increasing_into_interval(self):
        x = np.linspace(-1, 1, 101)
        y = stretch_map(3, x)
        assert np.all(np.diff(y) > 0)
        assert np.all((-1 <= y) & (y <= 1))


class TestBuildSolution:
    def test_degree_zero(self):
        sol = build_solution(0)
        assert_allclose(sol.S.coeffs, [1.0], atol=1e-14)
        assert sol.alpha == pytest.approx(2.0)
        assert_allclose(sol.alternation_points, [-1.0])

    def test_degree_one_coefficients(self):
        # hand expansion of -alpha T_2(L(x)) / (x - 1) at N = 2
        b = (1 + math.cos(math.pi / 4)) / 2
        alpha = math.sqrt(2) - 1
        expected = [alpha * (6 * b * b - 4 * b), 2 * alpha * b * b]
        sol = build_solution(1)
        assert_allclose(sol.S.coeffs, expected, atol=1e-13)
        assert float(np.sum(sol.S.coeffs)) == pytest.approx(1.0, abs=1e-12)

    def test_degree_two_alternation_signs(self):
        sol = build_solution(2)
        # direct trig evaluation of q = -alpha T_3(L(y)) as an independent path
        y = sol.alternation_points
        direct = -sol.alpha * eval_T(3, stretch_map(2, y))
        stored = clenshaw_eval(sol.q, y)
        assert_allclose(stored, direct, atol=1e-13)
        assert_allclose(stored, [sol.alpha, -sol.alpha, sol.alpha], atol=1e-12)

    @pytest.mark.parametrize("d", range(0, 65, 4))
    def test_invariants(self, d):
        sol = build_solution(d)
        N = d + 1
        assert sol.alpha == pytest.approx(alpha_closed_form(d), rel=1e-15)
        assert abs(float(np.sum(sol.S.coeffs)) - 1.0) <= 1e-9
        assert abs(float(np.sum(sol.q.coeffs))) <= 1e-9 * float(np.sum(np.abs(sol.q.coeffs)))
        assert sol.alternation_points[-1] == -1.0
        assert np.all(np.diff(sol.alternation_points) < 0)
        assert sol.alternation_points[0] < 1.0
        # q = (1 - x) S at random points
        rng = np.random.default_rng(d)
        x = rng.uniform(-1, 1, 20)
        assert_allclose(
            clenshaw_eval(sol.q, x), (1.0 - x) * clenshaw_eval(sol.S, x), atol=1e-12
        )
        theta = np.linspace(0.0, math.pi, 10 * N)
        grid_max = np.max(np.abs((1 - np.cos(theta)) * clenshaw_eval(sol.S, np.cos(theta))))
        assert grid_max <= sol.alpha * (1 + 1e-9)

    def test_full_range_builds(self):
        for d in range(4097):
            sol = build_solution(d)
            assert abs(float(np.sum(sol.S.coeffs)) - 1.0) <= 1e-14, d

    @pytest.mark.parametrize("d", [16, 64, 256])
    def test_matches_40_digit_reference(self, d):
        import mpmath as mp

        with mp.workdps(40):
            N = d + 1
            alpha = 2 * mp.sin(mp.pi / (2 * N)) / (N * (1 + mp.cos(mp.pi / (2 * N))))
            b = (1 + mp.cos(mp.pi / (2 * N))) / 2
            # S = -alpha T_N(L(x)) / (1 - x) has degree N - 1, so its exact DCT
            # at N nodes gives the exact coefficients
            vals = []
            for j in range(N):
                x = mp.cos(mp.pi * (2 * j + 1) / (2 * N))
                vals.append(-alpha * mp.cos(N * mp.acos(b * (x + 1) - 1)) / (1 - x))
            # cos(k theta_j) = cos(pi m / 2N) with m = k (2j + 1) mod 4N
            table = [mp.cos(mp.pi * m / (2 * N)) for m in range(4 * N)]
            ref = []
            for k in range(N):
                total = mp.fsum(v * table[k * (2 * j + 1) % (4 * N)] for j, v in enumerate(vals))
                ref.append(total * (1 if k == 0 else 2) / N)
            got = build_solution(d).S.coeffs.tolist()
            worst = max(abs(mp.mpf(g) - r) for g, r in zip(got, ref))
        assert worst <= 1e-16

    def test_perturbed_samples_trip_the_check(self, monkeypatch):
        monkeypatch.setattr(extremal, "transform", lambda v: transform(np.asarray(v) * (1 + 1e-12)))
        with pytest.raises(ArithmeticError, match=r"S\(1\)"):
            build_solution(64)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            build_solution(-1)
        with pytest.raises(ValueError):
            build_solution(4097)


class TestEquioscillation:
    def test_passes_for_construction(self):
        report = verify_equioscillation(build_solution(5), 1e-9)
        assert report.passed
        assert np.max(report.residuals) <= 1e-12

    def test_degree_zero_single_point(self):
        sol = build_solution(0)
        report = verify_equioscillation(sol, 1e-9)
        assert report.passed
        assert report.residuals.size == 1
        # q(-1) = 2 = -alpha * (-1)^1
        assert clenshaw_eval(sol.q, -1.0) == pytest.approx(2.0, abs=1e-14)

    def test_perturbation_fails(self):
        sol = build_solution(4)
        bad = dataclasses.replace(sol, S=ChebSeries(sol.S.coeffs + 1e-3))
        assert not verify_equioscillation(bad, 1e-9).passed

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            verify_equioscillation(build_solution(2), 0.0)

    def test_sign_change_count(self):
        # N alternation points produce N - 1 strict sign changes on (-1, 1)
        for d in (1, 2, 3, 8):
            N = d + 1
            theta = np.linspace(0.0, math.pi, 50 * N + 1)[1:]
            vals = clenshaw_eval(build_solution(d).q, np.cos(theta))
            changes = int(np.sum(np.signbit(vals[:-1]) != np.signbit(vals[1:])))
            assert changes == N - 1


class TestLowerBound:
    def test_equality_case(self):
        for d in (0, 1, 3, 7):
            report = minimax_lower_bound_check(build_solution(d).S, d)
            assert report.passed
            assert abs(report.gap) <= 1e-9

    def test_constant_challenger(self):
        report = minimax_lower_bound_check(ChebSeries([1.0]), 3)
        assert report.passed
        assert report.max_weighted == pytest.approx(2.0, rel=1e-12)

    def test_affine_challenger(self):
        # (1+x)/2 gives (1-x)(1+x)/2 = (1-x^2)/2, calculus max 1/2 at x = 0
        report = minimax_lower_bound_check(ChebSeries([0.5, 0.5]), 1)
        assert report.passed
        assert report.max_weighted == pytest.approx(0.5, rel=1e-12)
        assert report.max_weighted >= math.sqrt(2) - 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            minimax_lower_bound_check(ChebSeries([0.7]), 2)
        with pytest.raises(ValueError):
            minimax_lower_bound_check(ChebSeries([0.25] * 4), 2)  # degree 3 > 2

    def test_random_challengers(self):
        rng = np.random.default_rng(321)
        for d in (1, 2, 3, 5, 8):
            for _ in range(200):
                assert minimax_lower_bound_check(_random_unit_at_one(rng, d), d).passed
