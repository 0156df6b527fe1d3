import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import eval_T, eval_U
from smoothkit.chebyshev import (
    ChebSeries,
    cheb_nodes,
    clenshaw_eval,
    real,
    reals,
    transform,
)


class TestEvalT:
    def test_order_zero_is_one(self):
        assert eval_T(0, 0.3) == 1.0

    def test_cosine_identity(self):
        # T_3(cos t) = cos(3t)
        assert eval_T(3, math.cos(0.7)) == pytest.approx(math.cos(2.1), abs=1e-14)

    def test_value_at_one(self):
        assert eval_T(5, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_clamp_band(self):
        # the library's clamp band, on the series T_4
        t4 = ChebSeries([0.0, 0.0, 0.0, 0.0, 1.0])
        assert clenshaw_eval(t4, 1.0 + 1e-13) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            clenshaw_eval(t4, 1.5)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            eval_T(-1, 0.0)

    def test_recurrence_consistency(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, 100)
        prev2, prev1 = eval_T(0, x), eval_T(1, x)
        for k in range(2, 65):
            cur = eval_T(k, x)
            assert np.max(np.abs(cur - (2.0 * x * prev1 - prev2))) <= 1e-10
            prev2, prev1 = prev1, cur


class TestEvalU:
    def test_low_orders(self):
        assert eval_U(1, 0.5) == pytest.approx(1.0, abs=1e-14)  # U_1 = 2x
        assert eval_U(3, 1.0) == pytest.approx(4.0, abs=1e-12)
        assert eval_U(3, -1.0) == pytest.approx(-4.0, abs=1e-12)

    def test_trig_quotient(self):
        expected = math.sin(1.5) / math.sin(0.5)
        assert eval_U(2, math.cos(0.5)) == pytest.approx(expected, rel=1e-13)

    def test_derivative_of_T(self):
        # d/dx T_k = k U_{k-1}, checked by central differences; points stay
        # away from +-1 where the truncation term k^3 (1-x^2)^(-3/2) h^2 grows
        h = 1e-5
        x = np.linspace(-0.5, 0.5, 50)
        for k in range(1, 33):
            fd = (eval_T(k, x + h) - eval_T(k, x - h)) / (2 * h)
            assert np.max(np.abs(fd - k * eval_U(k - 1, x))) <= 1e-6


class TestNodes:
    def test_single_node(self):
        assert_allclose(cheb_nodes(1), [0.0], atol=1e-15)

    def test_two_and_three(self):
        assert_allclose(cheb_nodes(2), [math.cos(math.pi / 4), math.cos(3 * math.pi / 4)])
        assert_allclose(cheb_nodes(3), [math.sqrt(3) / 2, 0.0, -math.sqrt(3) / 2], atol=1e-15)

    @pytest.mark.parametrize("M", [1, 2, 7, 64])
    def test_strictly_decreasing_interior(self, M):
        nodes = cheb_nodes(M)
        assert nodes.size == M
        assert np.all(np.diff(nodes) < 0) or M == 1
        assert np.all(np.abs(nodes) < 1.0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cheb_nodes(0)


def naive_clenshaw(c, x):
    """Reference recurrence: b_k = 2 x b_{k+1} - b_{k+2} + c_k, allocating each step."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for ck in c[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


class TestClenshaw:
    def test_linear(self):
        assert clenshaw_eval(ChebSeries([0.0, 1.0]), 0.25) == pytest.approx(0.25)

    def test_t2_at_zero(self):
        # 1 - 2 T_2(0) = 1 - 2(-1) = 3
        assert clenshaw_eval(ChebSeries([1.0, 0.0, -2.0]), 0.0) == pytest.approx(3.0)

    def test_against_term_sum(self):
        # the unnormalized parabolic series at degree 2: 9 + 2*8 T_1 + 2*5 T_2
        s = ChebSeries([9.0, 16.0, 10.0])
        x = 0.5
        direct = 9.0 + 16.0 * eval_T(1, x) + 10.0 * eval_T(2, x)
        assert clenshaw_eval(s, x) == pytest.approx(direct, rel=1e-14)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12), st.floats(-1, 1))
    def test_matches_term_by_term(self, coeffs, x):
        s = ChebSeries(coeffs)
        direct = sum(c * eval_T(k, x) for k, c in enumerate(coeffs))
        scale = 1.0 + sum(abs(c) for c in coeffs)
        assert abs(clenshaw_eval(s, x) - direct) <= 1e-12 * scale

    @pytest.mark.parametrize("degree, points", [(0, 7), (1, 5), (64, 1152), (512, 8256), (2048, 3000)])
    def test_vectorized_bit_identical_to_naive_recurrence(self, degree, points):
        rng = np.random.default_rng(2048 + degree)
        s = ChebSeries(rng.normal(size=degree + 1))
        xs = rng.uniform(-1, 1, points)
        assert np.array_equal(clenshaw_eval(s, xs), naive_clenshaw(s.coeffs, xs))

    def test_scalar_returns_python_float(self):
        s = ChebSeries([1.0, 2.0, 3.0])
        for x in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(clenshaw_eval(s, x)) is float

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        s = ChebSeries(rng.normal(size=20))
        xs = rng.uniform(-1, 1, 16)
        vec = clenshaw_eval(s, xs)
        assert_allclose(vec, [clenshaw_eval(s, float(x)) for x in xs], rtol=1e-15)

    def test_invalid_series(self):
        with pytest.raises(ValueError):
            ChebSeries([])
        with pytest.raises(ValueError):
            ChebSeries([1.0, math.inf])


class TestTransform:
    def test_constant(self):
        assert_allclose(transform([5.0, 5.0, 5.0]).coeffs, [5.0, 0.0, 0.0], atol=1e-14)

    def test_orthogonality_picks_out_t2(self):
        vals = eval_T(2, cheb_nodes(3))
        assert_allclose(transform(vals).coeffs, [0.0, 0.0, 1.0], atol=1e-14)

    def test_affine(self):
        # (1+x)/2 = T_0/2 + T_1/2
        vals = (1.0 + cheb_nodes(2)) / 2.0
        assert_allclose(transform(vals).coeffs, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("degree", [0, 1, 5, 31, 64])
    def test_round_trip(self, degree):
        rng = np.random.default_rng(degree)
        s = ChebSeries(rng.normal(size=degree + 1))
        nodes = cheb_nodes(degree + 1)
        back = transform(clenshaw_eval(s, nodes))
        scale = np.max(np.abs(s.coeffs))
        assert np.max(np.abs(back.coeffs - s.coeffs)) <= 1e-12 * scale
        assert_allclose(clenshaw_eval(back, nodes), clenshaw_eval(s, nodes), rtol=1e-12)


class TestConverters:
    def test_float64_is_not_copied(self):
        v = np.linspace(0.0, 1.0, 5)[::2]
        assert reals(v, "v") is v

    def test_exact_conversions(self):
        from fractions import Fraction

        assert reals([1, Fraction(1, 3), 2**70], "v").tolist() == [1.0, 1 / 3, 2.0**70]
        assert real(np.float32(0.1), "v") == float(np.float32(0.1))
        assert real(True, "v") == 1.0
        assert real(np.longdouble(0.5), "v") == 0.5
        if np.finfo(np.longdouble).max > np.finfo(float).max:
            assert real(np.longdouble(10) ** 400, "v") == math.inf  # no overflow warning

    @pytest.mark.parametrize(
        "value", [[1.0, None], [1.0, "2"], [[1.0], [2.0, 3.0]], [2**1100], np.array([1 + 0j], dtype=object)]
    )
    def test_non_reals(self, value):
        with pytest.raises(ValueError, match="^v must be real numbers$"):
            reals(value, "v")

    def test_real_is_one_number(self):
        with pytest.raises(ValueError, match="^v must be a real number$"):
            real([0.5], "v")
