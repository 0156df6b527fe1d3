import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import eval_T, stretch_map
from smoothkit import extremal, kernels
from smoothkit.chebyshev import ChebSeries, clenshaw_eval, transform
from smoothkit.extremal import (
    alpha_closed_form,
    build_solution,
    minimax_lower_bound_check,
    verify_equioscillation,
)
from smoothkit.gridsearch import fft_length, sample_count
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
        assert alpha_closed_form(5) == pytest.approx(expected, rel=1e-15, abs=0)
        assert alpha_closed_form(5) == pytest.approx(0.04388416586246528, rel=1e-12, abs=0)

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
        # the identities the certificate no longer checks hold at every degree: the derived points run
        # strictly down from below 1 to y_N = -1 exactly, and q(1) = 0 up to the rounding of forming q,
        # at most 3 u sum |S_k| (each q_k = S_k - (S_{k-1} + S_{k+1}) / 2 rounds twice; fsum rounds once);
        # S divided by its correctly rounded sum sums to 1 within 2 u (measured: 2 u at worst)
        for d in range(4097):
            sol = build_solution(d)
            assert abs(math.fsum(sol.S.coeffs.tolist()) - 1.0) <= 2.0**-52, d
            y = sol.alternation_points
            assert y[-1] == -1.0 and np.all(np.diff(y) < 0) and y[0] < 1.0, d
            assert abs(math.fsum(sol.q.coeffs)) <= 3 * 2.0**-53 * float(np.sum(np.abs(sol.S.coeffs))), d

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


class TestResiduals:
    """The residuals |q(y_i) + alpha (-1)^i|, from a Taylor model of rffts of sol.q."""

    @staticmethod
    def longdouble_residuals(sol):
        c = sol.q.coeffs.astype(np.longdouble)
        k = np.arange(c.size, dtype=np.longdouble)
        theta = np.arccos(sol.alternation_points.astype(np.longdouble))
        q = np.concatenate([np.cos(np.outer(t, k)) @ c for t in np.array_split(theta, theta.size // 256 + 1)])
        return np.abs(q + sol.alpha * (-1.0) ** np.arange(1, theta.size + 1))

    @pytest.mark.parametrize("d", [0, 7, 64, 1024, 2048])
    def test_match_longdouble_cosine_sum(self, d):
        # Clenshaw on sol.q is off by 2.0e-12 alpha at d = 2048
        sol = build_solution(d)
        report = verify_equioscillation(sol, 1e-9)
        ref = self.longdouble_residuals(sol)
        assert float(np.max(np.abs(report.residuals - ref))) <= 1e-13 * sol.alpha

    def test_perturbed_q_fails_through_the_residuals(self):
        # S = 1 - 6e-10 at d = 0: q(-1) = 2 S is 1.2e-9 low, and S(1) stays within tol; the upper
        # end fails with the residuals, since its measure is never below theirs (Lambda(1) = 3.88 >= alpha = 2)
        sol = build_solution(0)
        report = verify_equioscillation(dataclasses.replace(sol, S=ChebSeries(sol.S.coeffs * (1 - 6e-10))), 1e-9)
        assert report.failed == ("upper", "residuals")
        assert float(np.max(report.residuals)) > 1e-9
        assert report.measures[0] >= report.measures[1]

    def test_moved_s_at_one_fails(self):
        # S (1 - 2e-9) moves S(1) by 2e-9 > tol and q by 2e-9 alpha, past the sharpened residual tolerance
        sol = build_solution(64)
        report = verify_equioscillation(dataclasses.replace(sol, S=ChebSeries(sol.S.coeffs * (1 - 2e-9))), 1e-9)
        assert report.failed == ("upper", "residuals", "S(1)")
        assert report.measures[2] == pytest.approx(2e-9, rel=1e-6)
        assert verify_equioscillation(sol, 1e-9).passed

    @staticmethod
    def scaled(factor):
        return lambda sol: dataclasses.replace(sol, S=ChebSeries(sol.S.coeffs * factor))

    @pytest.mark.parametrize(
        "d, change, failed",
        [
            (5, scaled(1.0), ()),
            (0, scaled(1 - 6e-10), ("upper", "residuals")),
            (64, scaled(1 - 2e-9), ("upper", "residuals", "S(1)")),
            # residuals of 5e-10 alpha pass, and Lambda(10) = 4.4 lifts the upper end past 1e-9 alpha
            (9, scaled(1 + 5e-10), ("upper",)),
        ],
    )
    def test_report_names_the_failed_conditions(self, d, change, failed):
        # the cases of the tests above, each named by the conditions it fails, in extremal.CONDITIONS' order
        report = verify_equioscillation(change(build_solution(d)), 1e-9)
        assert report.failed == failed
        assert report.passed == (failed == ())

    def test_q_is_derived_from_s(self):
        sol = build_solution(7)
        assert [f.name for f in dataclasses.fields(sol)] == ["S"]
        S = ChebSeries(sol.S.coeffs + np.linspace(0.0, 1e-3, 8))
        q = dataclasses.replace(sol, S=S).q
        assert np.array_equal(q.coeffs, extremal._one_minus_x_times(S.coeffs))
        # a replaced S of another degree carries its degree, alpha and alternation points along
        other = dataclasses.replace(sol, S=build_solution(9).S)
        assert other.degree == 9
        assert other.alpha == alpha_closed_form(9)
        # L(y_i) = cos(i pi / N), by the oracle's stretch map
        assert_allclose(stretch_map(9, other.alternation_points), np.cos(np.arange(1, 11) * math.pi / 10), atol=1e-14)

    def test_no_clenshaw(self, monkeypatch):
        calls = []
        monkeypatch.setattr(extremal, "clenshaw_eval", lambda *a: calls.append(a) or clenshaw_eval(*a))
        assert verify_equioscillation(build_solution(4096), 1e-9).residuals.size == 4097
        assert calls == []

    def test_taylor_terms_are_the_least_below_one_ulp(self):
        # on the half-length grid k h |s| < pi/2
        J = extremal._TAYLOR_TERMS
        tail = lambda j: (math.pi / 2) ** j / math.factorial(j) * math.exp(math.pi / 2)
        assert tail(J) < 2.0**-53 <= tail(J - 1)

    def test_bounded_transient_at_the_top_degree(self):
        # all J rows in one rfft, gathered at j and rotated as J x N complex arrays, peak at 4.0 MB
        sol = build_solution(4096)
        tracemalloc.start()
        try:
            verify_equioscillation(sol, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_residual_transient_is_one_block(self):
        # one block's rows and their transform, plus 16 float vectors of length N + 1; a J x (N + 1) table breaks it
        sol = build_solution(4096)
        c, theta = sol.q.coeffs, np.arccos(sol.alternation_points)
        L = fft_length(2 * c.size)
        rows = extremal._BLOCK_OUTPUTS // (L // 2 + 1)
        assert 1 < rows < extremal._TAYLOR_TERMS
        limit = 8 * rows * c.size + 16 * rows * (L // 2 + 1) + 16 * 8 * c.size
        tracemalloc.start()
        try:
            extremal._cosine_sum_at(c, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit

    @pytest.mark.parametrize("d", [7, 1024, 4096])
    def test_row_blocks_leave_the_sum_unchanged(self, d, monkeypatch):
        sol = build_solution(d)
        c, theta = sol.q.coeffs, np.arccos(sol.alternation_points)
        blocked = extremal._cosine_sum_at(c, theta)
        monkeypatch.setattr(extremal, "_BLOCK_OUTPUTS", 1)
        assert np.array_equal(extremal._cosine_sum_at(c, theta), blocked)


class TestEnclosure:
    """lower <= alpha* <= upper, from the residuals, q(1) and a bound on the points' Lebesgue constant."""

    # the 8 `construct` benchmark n where S built from its own samples read over 1e-9 alpha on a 10 N-point
    # grid, and the n where that grid or the capped torus norm read furthest over alpha
    HARD = [
        2304, 2560, 2752, 2816, 3008, 3264, 3648, 3712,
        1609, 1865, 1895, 1905, 3520, 3659, 3843, 3848, 3904, 4096,
    ]

    def test_sharpened_certificate_at_the_hard_n(self):
        start = time.perf_counter()
        for n in self.HARD:
            report = verify_equioscillation(build_solution(n), 1e-9)
            alpha = report.alpha
            assert report.passed, (n, report.failed)
            assert float(np.max(report.residuals)) <= 1e-10 * alpha, n
            assert report.lower <= alpha <= report.upper <= alpha * (1 + 1e-9), n
            assert alpha - report.lower <= report.upper - alpha, n
        # about 0.05 s on a 2 vCPU host
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("d", [7, 4096])
    @pytest.mark.parametrize("where", [0, 0.5, 1])
    def test_one_moved_coefficient_fails_upper(self, d, where):
        sol = build_solution(d)
        S = sol.S.coeffs.copy()
        S[round(where * d)] += 1e-8 * sol.alpha
        assert "upper" in verify_equioscillation(dataclasses.replace(sol, S=ChebSeries(S)), 1e-9).failed

    @staticmethod
    def lebesgue_constant(N):
        """max of sum_i |l_i(t)| over t = cos(phi), 32 N phi uniform on [pi/2N, pi], in barycentric form."""
        nodes = np.concatenate([[math.cos(math.pi / (2 * N))], np.cos(np.arange(1, N + 1) * math.pi / N)])
        diff = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        # w_i = 1 / prod_{k != i} (t_i - t_k), scaled by a common factor through logs
        log_w = -np.sum(np.log(np.abs(diff)), axis=1)
        w = np.exp(log_w - log_w.max()) * np.where(np.sum(diff < 0, axis=1) % 2, -1.0, 1.0)
        t = np.cos(np.linspace(math.pi / (2 * N), math.pi, 32 * N + 1)[1:-1])
        best = 1.0  # at a node the Lebesgue function is 1
        for chunk in np.array_split(t, t.size // 512 + 1):
            terms = w / (chunk[:, None] - nodes[None, :])
            best = max(best, float(np.max(np.sum(np.abs(terms), axis=1) / np.abs(np.sum(terms, axis=1)))))
        return best

    @pytest.mark.parametrize("N", [1, 2, 5, 17, 257, 1025])
    def test_lebesgue_constant_is_below_the_bound(self, N):
        # measured 2.81, 4.50 and 5.38 at N = 17, 257 and 1025, against bounds of 4.79, 7.05 and 8.22
        assert 1.0 <= self.lebesgue_constant(N) <= extremal._lebesgue_bound(N)

    def test_bound_at_one_point(self):
        # N = 1: the points are t = 0 and -1, rho_1 = 2 and the Lobatto constant bound is (2/pi) ln 2 + 1
        assert extremal._lebesgue_bound(1) == pytest.approx(2 * (2 / math.pi * math.log(2) + 1) + 1, rel=1e-15)

    @pytest.mark.parametrize("d", [0, 7, 4096])
    def test_no_transform_past_the_residual_grid(self, d, monkeypatch):
        # the certificate's only rffts are the residuals' Taylor rows, at fft_length(2 (N + 1))
        lengths = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n=None, *args, **kw: lengths.append(n) or rfft(a, n, *args, **kw))
        verify_equioscillation(build_solution(d), 1e-9)
        assert set(lengths) == {fft_length(2 * (d + 2))}


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


class TestWeightedMax:
    def test_challenger_grid_follows_the_sampling_rule(self, monkeypatch):
        # the grid comes from the challenger's own degree, not the stated bound d
        grids = []
        refine = extremal.refine_grid_max

        def record(fn, grid):
            grids.append(np.asarray(grid))
            return refine(fn, grid)

        monkeypatch.setattr(extremal, "refine_grid_max", record)
        p = ChebSeries([0.5, 0.5])
        report = minimax_lower_bound_check(p, 3)
        (grid,) = grids
        assert grid.size == sample_count(p.degree + 2) == 57
        assert np.array_equal(grid, np.linspace(0.0, math.pi, 57))
        assert report.max_weighted == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 512, 4096])
    @pytest.mark.parametrize("family", ["optimal_kernel", "epanechnikov_kernel", "triangle_kernel"])
    def test_value_within_the_clenshaw_bound(self, family, n):
        # the docstring's first-order bound, from longdouble W, W' and Clenshaw intermediates b_k at theta
        p = kernels.to_polynomial(getattr(kernels, family)(n))
        value, theta = extremal.weighted_max(p)
        t = np.longdouble(theta)
        x = np.cos(t)
        k = np.arange(p.coeffs.size, dtype=np.longdouble)
        c = p.coeffs.astype(np.longdouble)
        at_x = np.sum(c * np.cos(k * t))
        W = (1 - x) * at_x
        dW = (1 - x) * np.sum(c * k * np.sin(k * t)) / np.sin(t) - at_x
        b1 = b2 = b_sum = np.longdouble(0)
        for ck in c[:0:-1]:
            b1, b2 = ck + 2 * x * b1 - b2, b1
            b_sum += abs(b1)
        bound = 2.0**-53 * (abs(dW) + 6 * (1 - x) * b_sum + 3 * abs(W))
        assert abs(value - abs(W)) <= bound
