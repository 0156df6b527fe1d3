import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothkit.extremal import alpha_closed_form
from smoothkit.kernels import (
    GeneralKernel,
    constant_kernel,
    epanechnikov_kernel,
    full_weights,
    optimal_kernel,
    symmetrize,
    triangle_kernel,
)
from smoothkit.multiplier import (
    MAX_ORDER,
    closed_form_c2,
    operator_norm,
    operator_norm_via_polynomial,
    rayleigh_quotient,
    symbol_magnitude,
    wave_packet,
)
from smoothkit.series import TimeSeries
from smoothkit.suites import _random_general as random_general
from smoothkit.suites import _random_symmetric as random_symmetric


class TestSymbol:
    def test_identity_kernel_at_pi(self):
        assert symbol_magnitude(constant_kernel(0), 2, math.pi) == pytest.approx(4.0, abs=1e-14)

    def test_vanishes_at_zero(self):
        for u in (constant_kernel(3), triangle_kernel(2), epanechnikov_kernel(4)):
            for m in (1, 2, 3):
                assert symbol_magnitude(u, m, 0.0) == 0.0

    def test_constant_kernel_zero_of_transform(self):
        # u_hat(2 pi / 3) = (1 + 2 cos(2 pi/3)) / 3 = 0 for half width 1
        assert symbol_magnitude(constant_kernel(1), 1, 2 * math.pi / 3) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_general_matches_symmetric(self):
        u = triangle_kernel(3)
        g = GeneralKernel(3, np.concatenate([u.weights[:0:-1], u.weights]))
        xi = np.linspace(0, 2 * math.pi, 50)
        assert_allclose(
            symbol_magnitude(u, 2, xi), symbol_magnitude(g, 2, xi), rtol=1e-12, atol=1e-14
        )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            symbol_magnitude(constant_kernel(1), 0, 1.0)


class TestOperatorNorm:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_constant_first_order(self, n):
        got = operator_norm(constant_kernel(n), 1).value
        assert abs(got - 2.0 / (2 * n + 1)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 64])
    def test_triangle_second_order(self, n):
        got = operator_norm(triangle_kernel(n), 2).value
        assert abs(got - 4.0 / (n + 1) ** 2) <= 1e-9

    def test_optimal_half_width_one(self):
        got = operator_norm(optimal_kernel(1), 2).value
        assert got == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-9)

    def test_bound_invariants(self):
        rng = np.random.default_rng(8)
        u = random_symmetric(rng, 6)
        bound = operator_norm(u, 2)
        recomputed = symbol_magnitude(u, 2, bound.argmax_xi)
        assert abs(bound.value - recomputed) <= 1e-10 * bound.value
        xi = rng.uniform(0, 2 * math.pi, 1000)
        assert np.all(symbol_magnitude(u, 2, xi) <= bound.value * (1 + 1e-12))

    def test_argmax_reported_in_lower_half(self):
        # symmetric symbols tie at xi and 2 pi - xi; the smaller one is kept
        bound = operator_norm(optimal_kernel(7), 2)
        assert 0 <= bound.argmax_xi <= math.pi

    @pytest.mark.parametrize("m", [0, MAX_ORDER + 1, 10**8])
    def test_rejects_order_out_of_range(self, m):
        with pytest.raises(ValueError, match=r"difference order must be in \[1, 1023\]"):
            operator_norm(constant_kernel(1), m)

    def test_highest_order(self):
        # |u_hat(pi)| = 1/3, so the norm is 2^1023 / 3, still a double
        bound = operator_norm(constant_kernel(1), MAX_ORDER)
        assert bound.value == pytest.approx(2.0**1023 / 3, rel=1e-12)
        assert bound.argmax_xi == math.pi

    def test_overflow_is_an_error(self):
        # |u_hat(pi)| = 19: the symbol passes the largest double between m = 1019 and 1023
        u = GeneralKernel(1, [5.0, -9.0, 5.0])
        assert operator_norm(u, 1019).value == 1.0673802988245e308
        with pytest.raises(ValueError, match="order-1023 symbol of this kernel overflows double precision"):
            operator_norm(u, 1023)


class TestLargeAndGeneral:
    @pytest.mark.parametrize("n", [2048, 4096])
    def test_general_triangle(self, n):
        u = GeneralKernel(n, full_weights(triangle_kernel(n)))
        expected = 4.0 / (n + 1) ** 2
        assert abs(operator_norm(u, 2).value - expected) <= 1e-9 * expected

    def test_general_layout_of_symmetric_kernel_gives_same_bound(self):
        u = optimal_kernel(2048)
        assert operator_norm(GeneralKernel(2048, full_weights(u)), 2) == operator_norm(u, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_general_argmax_in_lower_half(self, m):
        rng = np.random.default_rng(60 + m)
        for n in (1, 4, 17, 100, 700):
            bound = operator_norm(random_general(rng, n), m)
            assert 0.0 <= bound.argmax_xi <= math.pi

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(4)
        for u in (random_general(rng, 300), optimal_kernel(512)):
            for m in (1, 2, 3):
                assert operator_norm(u, m) == operator_norm(u, m)

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("family", [optimal_kernel, triangle_kernel])
    def test_argmax_attains_value(self, family, n):
        u = family(n)
        bound = operator_norm(u, 2)
        assert abs(symbol_magnitude(u, 2, bound.argmax_xi) - bound.value) <= 1e-10 * bound.value

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="address-space limit is Linux-specific"
    )
    def test_general_n4096_fits_in_one_gib(self):
        # a dense grid-by-weights matrix would need 4 GiB at this size
        pytest.importorskip("resource")
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from smoothkit.kernels import GeneralKernel, full_weights, triangle_kernel\n"
            "from smoothkit.multiplier import operator_norm\n"
            "u = GeneralKernel(4096, full_weights(triangle_kernel(4096)))\n"
            "print(operator_norm(u, 2).value * 4097 ** 2)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert float(proc.stdout) == pytest.approx(4.0, rel=1e-9)


class TestPolynomialPath:
    def test_triangle_one(self):
        # 2 max |(1-x)(1+x)/2| = max (1 - x^2) = 1
        bound = operator_norm_via_polynomial(triangle_kernel(1))
        assert bound.value == pytest.approx(1.0, rel=1e-12)
        assert bound.method == "polynomial_form"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_optimal_matches_closed_form(self, n):
        got = operator_norm_via_polynomial(optimal_kernel(n)).value
        assert got == pytest.approx(closed_form_c2(n), rel=1e-12)

    def test_argmax_matches_torus(self):
        u = triangle_kernel(5)
        poly = operator_norm_via_polynomial(u).argmax_xi
        assert abs(poly - operator_norm(u, 2).argmax_xi) <= 1e-10

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_endpoint_argmax_is_exact(self, n):
        # the constant kernel's order-2 symbol peaks at xi = pi, the grid's last node
        assert operator_norm_via_polynomial(constant_kernel(n)).argmax_xi == math.pi

    def test_epanechnikov_dual_path(self):
        u = epanechnikov_kernel(2)
        a = operator_norm(u, 2).value
        b = operator_norm_via_polynomial(u).value
        assert abs(a - b) <= 1e-9 * a

    @pytest.mark.parametrize("n", [512, 2048, 4096])
    @pytest.mark.parametrize("kind", ["optimal", "epanechnikov", "random"])
    def test_dual_path_at_large_n(self, kind, n):
        if kind == "random":
            u = random_symmetric(np.random.default_rng(n), n)
        else:
            u = {"optimal": optimal_kernel, "epanechnikov": epanechnikov_kernel}[kind](n)
        torus = operator_norm(u, 2).value
        poly = operator_norm_via_polynomial(u).value
        assert abs(poly - torus) <= 1e-9 * torus
        if kind == "optimal":
            for value in (torus, poly):
                assert value == pytest.approx(closed_form_c2(n), rel=1e-9)


class TestClosedForm:
    def test_values(self):
        assert closed_form_c2(0) == pytest.approx(4.0, abs=1e-15)
        assert closed_form_c2(1) == pytest.approx(2 * (math.sqrt(2) - 1), rel=1e-15)
        expected2 = (4 / 3) * math.sin(math.pi / 6) / (1 + math.cos(math.pi / 6))
        assert closed_form_c2(2) == pytest.approx(expected2, rel=1e-15)
        assert closed_form_c2(2) == pytest.approx(0.35726558990816354, rel=1e-14)

    def test_bit_identical_to_standalone_formula(self):
        for n in range(4097):
            half = math.pi / (2 * n + 2)
            standalone = 4.0 * math.sin(half) / ((n + 1) * (1.0 + math.cos(half)))
            assert closed_form_c2(n) == standalone == 2.0 * alpha_closed_form(n)

    def test_sharp_over_random_kernels(self):
        rng = np.random.default_rng(99)
        for i in range(100):
            n = 1 + i % 16
            u = random_symmetric(rng, n)
            assert operator_norm(u, 2).value >= closed_form_c2(n) - 1e-9

    def test_first_order_bound_random(self):
        rng = np.random.default_rng(17)
        for n in (2, 5, 10):
            for _ in range(50):
                u = random_general(rng, n)
                assert operator_norm(u, 1).value >= 2.0 / (2 * n + 1) - 1e-9

    def test_symmetrization_contraction(self):
        rng = np.random.default_rng(23)
        for i in range(100):
            u = random_general(rng, 1 + i % 12)
            before = operator_norm(u, 2).value
            after = operator_norm(symmetrize(u), 2).value
            assert after <= before + 1e-9

    def test_asymptotic_scaled(self):
        for n in (64, 256, 1024):
            scaled = closed_form_c2(n) * (n + 1) ** 2 / math.pi
            assert scaled == pytest.approx(1.0, abs=2e-4)


class TestRayleigh:
    def test_impulse_identity(self):
        f = TimeSeries([1.0])
        got = rayleigh_quotient(constant_kernel(0), 2, f)
        assert got == pytest.approx(math.sqrt(6), rel=1e-14)

    def test_constant_block_nearly_flat(self):
        f = TimeSeries(np.ones(10_000))
        got = rayleigh_quotient(constant_kernel(5), 1, f)
        assert got <= 0.01

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(constant_kernel(1), 1, TimeSeries([0.0, 0.0]))

    @pytest.mark.parametrize("m", [0, MAX_ORDER + 1])
    def test_rejects_order_out_of_range(self, m):
        with pytest.raises(ValueError, match=r"difference order must be in \[1, 1023\]"):
            rayleigh_quotient(constant_kernel(1), m, TimeSeries([1.0, 2.0]))

    @pytest.mark.parametrize("m", [520, MAX_ORDER])
    def test_large_order_stays_finite(self, m):
        # the squared differences pass the largest double, the quotient does not;
        # a leaked numpy warning would fail the test
        got = rayleigh_quotient(triangle_kernel(2), m, TimeSeries(np.ones(8)))
        assert 0.0 < got <= operator_norm(triangle_kernel(2), m).value

    def test_tiny_signal(self):
        got = rayleigh_quotient(constant_kernel(1), 2, TimeSeries([1e-200, 3e-200, 2e-200]))
        assert got == pytest.approx(rayleigh_quotient(constant_kernel(1), 2, TimeSeries([1.0, 3.0, 2.0])), rel=1e-14)

    @pytest.mark.parametrize("scale", [2.0**40, 1e10, 1e-10])
    def test_scaling_the_signal_keeps_the_quotient(self, scale):
        ones = rayleigh_quotient(triangle_kernel(2), MAX_ORDER, TimeSeries(np.ones(8)))
        got = rayleigh_quotient(triangle_kernel(2), MAX_ORDER, TimeSeries(scale * np.ones(8)))
        assert got == pytest.approx(ones, rel=1e-14)

    def test_overflow_is_an_error(self):
        # the quotient is near 2^1023 / 3 and the alternating signal, scaled to
        # +-1/2, has norm 8, so the norm of the differences is about 2e308
        f = TimeSeries((-1.0) ** np.arange(256))
        with pytest.raises(ValueError, match="order-1023 difference of this smoothed signal overflows double precision"):
            rayleigh_quotient(constant_kernel(1), MAX_ORDER, f)

    @pytest.mark.parametrize(
        "u, expected",
        [
            (optimal_kernel(5), [0.06500797472492134, 0.03581033905326597, 0.026052257908724032]),
            (triangle_kernel(3), [0.32668784661004385, 0.22200046497125184, 0.15619920337186366]),
            (GeneralKernel(1, [0.2, 0.5, 0.3]), [0.5723793699495217, 0.41315348488346765, 0.3284598852414223]),
        ],
        ids=["optimal", "triangle", "general"],
    )
    def test_small_orders_exact(self, u, expected):
        f = TimeSeries(np.cos(0.7 * np.arange(40.0)) + 0.01 * np.arange(40.0))
        assert [rayleigh_quotient(u, m, f) for m in (1, 2, 3)] == expected


class TestWavePacket:
    def test_identity_kernel_near_four(self):
        f = wave_packet(math.pi, 200.0, 10_000)
        got = rayleigh_quotient(constant_kernel(0), 2, f)
        assert got >= 3.96

    def test_optimal_ten_witness(self):
        u = optimal_kernel(10)
        bound = operator_norm(u, 2)
        f = wave_packet(bound.argmax_xi, 400.0, 20_000)
        assert rayleigh_quotient(u, 2, f) >= 0.99 * bound.value

    def test_broad_spectrum_stays_below(self):
        u = optimal_kernel(10)
        bound = operator_norm(u, 2)
        f = wave_packet(bound.argmax_xi, 2.0, 64)
        q = rayleigh_quotient(u, 2, f)
        assert q <= bound.value * (1 + 1e-9)
        assert q < 0.95 * bound.value

    def test_window_requirements(self):
        with pytest.raises(ValueError):
            wave_packet(1.0, -1.0, 100)
        with pytest.raises(ValueError):
            wave_packet(1.0, 100.0, 128)  # needs length >= 8 sigma
