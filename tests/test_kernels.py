import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import eval_T
from smoothkit import cli
from smoothkit.chebyshev import cheb_nodes, clenshaw_eval
from smoothkit.extremal import build_solution
from smoothkit.kernels import (
    GeneralKernel,
    SymmetricKernel,
    constant_kernel,
    epanechnikov_kernel,
    full_weights,
    optimal_kernel,
    read_kernel_csv,
    symmetrize,
    to_polynomial,
    triangle_kernel,
    write_kernel_csv,
)


def _tilted_kernel(n: int) -> GeneralKernel:
    k = np.arange(-n, n + 1)
    w = full_weights(epanechnikov_kernel(n)) * np.exp(0.01 * k)
    return GeneralKernel(n, w / w.sum())


class TestNamedKernels:
    def test_constant(self):
        assert_allclose(constant_kernel(0).weights, [1.0])
        assert_allclose(constant_kernel(1).weights, [1 / 3, 1 / 3])
        assert_allclose(constant_kernel(2).weights, [0.2, 0.2, 0.2])

    def test_triangle(self):
        assert_allclose(triangle_kernel(0).weights, [1.0])
        assert_allclose(triangle_kernel(1).weights, [0.5, 0.25])
        assert_allclose(triangle_kernel(2).weights, [3 / 9, 2 / 9, 1 / 9])

    def test_epanechnikov(self):
        assert_allclose(epanechnikov_kernel(1).weights, [1.0, 0.0], atol=1e-15)
        assert_allclose(epanechnikov_kernel(2).weights, [0.4, 0.3, 0.0], atol=1e-15)
        with pytest.raises(ValueError):
            epanechnikov_kernel(0)

    @pytest.mark.parametrize("n", [1, 2, 7, 33])
    def test_epanechnikov_normalized_and_vanishing(self, n):
        u = epanechnikov_kernel(n)
        assert u.weights[-1] == 0.0
        total = u.weights[0] + 2 * u.weights[1:].sum()
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("maker", [constant_kernel, triangle_kernel])
    @pytest.mark.parametrize("n", [0, 1, 5, 64])
    def test_normalization_tight(self, maker, n):
        u = maker(n)
        assert abs(u.weights[0] + 2 * u.weights[1:].sum() - 1.0) <= 1e-12


class TestOptimalKernel:
    def test_trivial(self):
        assert_allclose(optimal_kernel(0).weights, [1.0], atol=1e-14)

    def test_half_width_one(self):
        b = (1 + math.cos(math.pi / 4)) / 2
        alpha = math.sqrt(2) - 1
        expected = [alpha * (6 * b * b - 4 * b), alpha * b * b]
        assert_allclose(optimal_kernel(1).weights, expected, atol=1e-13)

    def test_parabola_like_profile(self):
        w = optimal_kernel(10).weights
        assert int(np.argmax(w)) == 0
        assert np.all(np.diff(w) < 0)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_normalization(self, n):
        u = optimal_kernel(n)
        assert abs(u.weights[0] + 2 * u.weights[1:].sum() - 1.0) <= 1e-10

    def test_matches_solution_coefficients(self):
        for n in (1, 3, 8):
            c = build_solution(n).S.coeffs
            w = optimal_kernel(n).weights
            assert_allclose(w, np.concatenate(([c[0]], c[1:] / 2)), rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_quadrature_equivalence(self, n):
        # weights equal the Gauss-Chebyshev quadrature of S against T_k
        S = build_solution(n).S
        nodes = cheb_nodes(10 * (n + 1))
        sv = clenshaw_eval(S, nodes)
        quad = np.array([np.mean(sv * eval_T(k, nodes)) for k in range(n + 1)])
        assert_allclose(optimal_kernel(n).weights, quad, atol=1e-10)

    @pytest.mark.parametrize("n", [2048, 3008, 3392, 3456, 3520, 3648, 4032, 4095, 4096])
    def test_builds_at_large_half_width(self, n):
        u = optimal_kernel(n)
        assert u.half_width == n
        assert abs(u.weights[0] + 2 * u.weights[1:].sum() - 1.0) <= 1e-10

    def test_range_error(self):
        with pytest.raises(ValueError):
            optimal_kernel(4097)


class TestSymmetrize:
    def test_basic(self):
        u = GeneralKernel(1, [0.0, 0.3, 0.7])
        tilde = symmetrize(u)
        assert_allclose(full_weights(tilde), [0.35, 0.3, 0.35])

    def test_fixed_point(self):
        u = GeneralKernel(2, [0.1, 0.2, 0.4, 0.2, 0.1])
        assert_allclose(symmetrize(u).weights, [0.4, 0.2, 0.1])

    def test_shifted_delta(self):
        u = GeneralKernel(2, [0.0, 0.0, 0.0, 0.0, 1.0])
        assert_allclose(full_weights(symmetrize(u)), [0.5, 0.0, 0.0, 0.0, 0.5])

    @pytest.mark.parametrize(
        "kernel",
        [triangle_kernel(2), epanechnikov_kernel(3), constant_kernel(3)],
        ids=["triangle", "epanechnikov", "constant"],
    )
    def test_symmetric_kernel_is_returned_unchanged(self, kernel):
        # its half-width weights w_0..w_n are not the 2n + 1 general layout, and need no averaging
        assert symmetrize(kernel) is kernel
        general = GeneralKernel(kernel.half_width, full_weights(kernel))
        assert symmetrize(general).weights.tolist() == kernel.weights.tolist()

    def test_rejects_what_is_not_a_kernel(self):
        with pytest.raises(ValueError, match="^u must be a SymmetricKernel or a GeneralKernel$"):
            symmetrize([0.25, 0.5, 0.25])

    @given(st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_idempotent_and_normalized(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=2 * n + 1)
        if abs(w.sum()) < 0.1:
            w[n] += 1.0
        u = GeneralKernel(n, w / w.sum())
        once = symmetrize(u)
        assert abs(once.weights[0] + 2 * once.weights[1:].sum() - 1.0) <= 1e-12
        again = symmetrize(GeneralKernel(n, full_weights(once)))
        assert_allclose(again.weights, once.weights, rtol=0, atol=1e-15)


class TestPolynomialForm:
    def test_constant_kernel(self):
        p = to_polynomial(constant_kernel(1))
        assert_allclose(p.coeffs, [1 / 3, 2 / 3])
        assert clenshaw_eval(p, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_triangle_kernel(self):
        assert_allclose(to_polynomial(triangle_kernel(1)).coeffs, [0.5, 0.5])

    def test_optimal_round_trip(self):
        for n in (1, 4, 9):
            u = optimal_kernel(n)
            p = to_polynomial(u)
            assert_allclose(p.coeffs, build_solution(n).S.coeffs, rtol=1e-14)
            back = np.concatenate(([p.coeffs[0]], p.coeffs[1:] / 2))
            assert_allclose(back, u.weights, rtol=0, atol=0)

    @pytest.mark.parametrize("n", [0, 1, 6, 20])
    def test_value_at_one_is_mass(self, n):
        p = to_polynomial(triangle_kernel(n))
        assert abs(float(np.sum(p.coeffs)) - 1.0) <= 1e-12


class TestValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SymmetricKernel(1, [0.5, 0.5])  # mass 1.5
        with pytest.raises(ValueError):
            GeneralKernel(1, [0.5, 0.2, 0.2])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SymmetricKernel(2, [1.0])
        with pytest.raises(ValueError):
            GeneralKernel(1, [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymmetricKernel(1, [1.0, math.nan])


class TestKernelFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "k.csv"
        u = epanechnikov_kernel(3)
        write_kernel_csv(u, path)
        text = path.read_text().splitlines()
        assert text[0] == "k,weight"
        assert len(text) == 8
        back = symmetrize(read_kernel_csv(path))
        assert isinstance(back, SymmetricKernel)
        assert_allclose(back.weights, u.weights, rtol=0, atol=0)

    def test_general_round_trip(self, tmp_path):
        path = tmp_path / "g.csv"
        u = GeneralKernel(2, [0.1, 0.0, 0.5, 0.15, 0.25])
        write_kernel_csv(u, path)
        back = read_kernel_csv(path)
        assert isinstance(back, GeneralKernel)
        assert_allclose(back.weights, u.weights, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "make, n",
        [(optimal_kernel, 0)]
        + [(f, n) for f in (optimal_kernel, triangle_kernel, epanechnikov_kernel) for n in (1, 64, 4096)]
        + [(_tilted_kernel, 64)],
    )
    def test_text_matches_row_by_row_formatting(self, make, n):
        u = make(n)
        rows = zip(range(-n, n + 1), full_weights(u).tolist())
        expected = "k,weight\n" + "".join(f"{k},{w:.17g}\n" for k, w in rows)
        buf = io.StringIO()
        write_kernel_csv(u, buf)
        assert buf.getvalue() == expected

    def test_asymmetric_rejected_when_symmetric_required(self, tmp_path, capsys):
        # the reader takes any normalized kernel; the polynomial norm is the
        # one caller that needs evenness, and checks it within 1e-9
        path = tmp_path / "g.csv"
        for tilt, code in ((1e-12, 0), (1e-6, 2)):
            write_kernel_csv(GeneralKernel(1, [0.25 - tilt, 0.5, 0.25 + tilt]), path)
            assert isinstance(read_kernel_csv(path), GeneralKernel)
            assert cli.main(["norm", "--file", str(path), "--method", "polynomial"]) == code
        assert "needs a symmetric kernel" in capsys.readouterr().err

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("weight,k\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_kernel_csv(path)

    def test_bad_normalization(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,weight\n-1,0.5\n0,0.5\n1,0.5\n")
        with pytest.raises(ValueError, match="sum to 1"):
            read_kernel_csv(path)

    def test_gap_in_indices(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,weight\n-1,0.5\n1,0.5\n")
        with pytest.raises(ValueError, match="contiguously"):
            read_kernel_csv(path)

    def test_unparseable_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,weight\n0,abc\n")
        with pytest.raises(ValueError, match="row 2"):
            read_kernel_csv(path)

    def test_blank_lines_before_the_header(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("\n\r\nk,weight\n-1,0.25\n0,0.5\n1,0.25\n")
        assert read_kernel_csv(path).weights.tolist() == [0.25, 0.5, 0.25]
        path.write_text("\nk,weight\n0,abc\n")
        with pytest.raises(ValueError, match="row 3"):
            read_kernel_csv(path)
