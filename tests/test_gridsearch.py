import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import random_unit_at_one
from smoothkit import asymptotics, extremal, gridsearch, multiplier
from smoothkit.chebyshev import ChebSeries
from smoothkit.gridsearch import fft_length, maximize, polish, refine_grid_max, resolve_ties, sample_count, select_peaks
from smoothkit.kernels import SymmetricKernel, epanechnikov_kernel, full_weights, optimal_kernel
from smoothkit.suites import _random_general as random_general
from smoothkit.suites import _random_symmetric as random_symmetric

# the worst ratio of sampled to true peak on a `sample_count` grid
BAND = 1.0 - math.pi**2 / 512
EPS = np.finfo(float).eps


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

    def test_resolve_ties_non_finite(self):
        assert resolve_ties([1.0, np.inf], [2.0, 1.0]) == (np.inf, np.inf)
        value, arg = resolve_ties([np.nan, 1.0], [2.0, 1.0])
        assert math.isnan(value) and arg == np.inf


class TestMaximize:
    def test_brackets_reach_the_neighbouring_nodes(self):
        # cos on an uneven grid over [0, 2.5 pi]: peaks at 0 (one-sided bracket) and near 2 pi
        xs = 2.5 * math.pi * np.linspace(0.0, 1.0, 26) ** 1.2
        seen = {}

        def derivs_at(nodes, lo, hi):
            seen.update(nodes=nodes, lo=lo, hi=hi)
            centers = xs[nodes]

            def derivs(live, t):
                x = centers[live] + t
                return np.cos(x), -np.sin(x), -np.cos(x)

            return derivs

        value, x = maximize(xs, np.cos(xs), derivs_at)
        j = int(np.argmin(np.abs(xs - 2.0 * math.pi)))
        assert seen["nodes"].tolist() == [0, j]
        assert seen["lo"].tolist() == [0.0, xs[j - 1] - xs[j]]
        assert seen["hi"].tolist() == [xs[1], xs[j + 1] - xs[j]]
        assert (value, x) == (1.0, 0.0)

    def test_every_maximum_is_one_call(self, monkeypatch):
        # the four maxima that the README says come from one maximizer
        calls = []

        def record(*args):
            calls.append(args)
            return maximize(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "smoothkit" and getattr(module, "maximize", None) is maximize:
                monkeypatch.setattr(module, "maximize", record)
        u = optimal_kernel(10)
        for run in (
            lambda: multiplier.operator_norm(u, 2),
            lambda: multiplier.operator_norm_via_polynomial(u),
            lambda: extremal.minimax_lower_bound_check(ChebSeries(np.array([0.5, 0.5])), 1),
            asymptotics.compute_mu,
        ):
            calls.clear()
            run()
            assert len(calls) == 1
        assert gridsearch.maximize is record


class TestPolish:
    def test_vectorized_calls_only(self):
        dims = []

        def fn(x):
            dims.append(np.ndim(x))
            return np.cos(np.asarray(x) - 0.3)

        _, x = refine_grid_max(fn, np.linspace(0.0, 3.0, 31))
        assert 0 not in dims
        assert abs(x - 0.3) <= 1e-12

    @given(
        st.lists(
            st.tuples(
                st.floats(-2.0, 2.0),  # amplitude
                st.floats(0.5, 6.0),  # frequency
                st.floats(0.0, 2.0 * math.pi),  # phase
                st.floats(-2.0, 2.0),  # linear trend
                st.floats(0.0, 2.0),  # bracket below 0
                st.floats(0.0, 2.0),  # bracket above 0
            ),
            min_size=1,
            max_size=4,
        )
    )
    # a local minimum at the start, where a Newton step would stay put
    @example([(-1.0, 1.0, 0.0, 0.0, 1.0, 2.0)])
    # f = 0: slope and curvature exactly 0, so the Newton step is nan
    @example([(0.0, 1.0, 0.0, 0.0, 1.0, 2.0)])
    def test_newton_only_where_concave_and_inside(self, cases):
        # f(t) = a cos(w t + phi) + b t is convex on half of each period. The bracket each
        # iterate must stay in is rebuilt from the slopes that `polish` saw; after a point
        # of curvature >= 0 the next iterate is the midpoint, or the polish stops there.
        # Where slope and curvature are both exactly 0 it stops at once.
        a, w, phi, b, below, above = np.array(cases).T
        calls = []

        def derivs(live, t):
            arg = w[live] * t + phi[live]
            slope = -a[live] * w[live] * np.sin(arg) + b[live]
            curv = -a[live] * w[live] ** 2 * np.cos(arg)
            calls.append((live, t, slope, curv))
            return a[live] * np.cos(arg) + b[live] * t, slope, curv

        _, t_end = polish(derivs, -below, above)
        lo, hi = -below.copy(), above.copy()
        steps = np.zeros(lo.size, dtype=int)
        bisect = {}  # bracket -> (midpoint, point it was taken from)
        for live, t, slope, curv in calls:
            for i, ti, si, ci in zip(live, t, slope, curv):
                assert lo[i] <= ti <= hi[i]
                if i in bisect:
                    assert ti == bisect.pop(i)[0]
                steps[i] += 1
                lo[i] = ti if si > 0 else lo[i]
                hi[i] = ti if si < 0 else hi[i]
                if si == 0 and ci == 0:
                    assert t_end[i] == ti
                elif not ci < 0:
                    bisect[i] = (0.5 * (lo[i] + hi[i]), ti)
        for i, (mid, ti) in bisect.items():
            assert abs(mid - ti) <= 1e-12 or steps[i] == 100
        assert np.all((-below <= t_end) & (t_end <= above))

    def test_stops_on_an_exact_zero_slope_without_a_finite_step(self):
        # -t^4 peaks at its start t = 0 with curvature 0 there: the step 0 - 0/0 is nan
        calls = []

        def derivs(live, t):
            calls.append(t.copy())
            return -(t**4), -4.0 * t**3, -12.0 * t**2

        values, t = polish(derivs, [-1.0], [0.5])
        assert len(calls) == 1
        assert t.tolist() == [0.0] and values.tolist() == [0.0]

    def test_zero_slope_at_a_minimum_still_bisects(self):
        # t^2 has slope 0 and a finite step at its minimum t = 0; the maximum on [-1, 0.5] is at -1
        calls = []

        def derivs(live, t):
            calls.append(t.copy())
            return t**2, 2.0 * t, np.full(t.size, 2.0)

        values, t = polish(derivs, [-1.0], [0.5])
        assert calls[1].tolist() == [-0.25]
        assert abs(t[0] + 1.0) <= 1e-11 and abs(values[0] - 1.0) <= 1e-10


def _suppliers(monkeypatch, module, run):
    """(lo, hi, derivs) of every bracket set that `run` polishes through module.maximize."""
    seen = []

    def record(grid, samples, derivs_at):
        def at(nodes, lo, hi):
            seen.append((lo, hi, derivs_at(nodes, lo, hi)))
            return seen[-1][2]

        return maximize(grid, samples, at)

    monkeypatch.setattr(module, "maximize", record)
    run()
    return seen


# central-difference weights of the first and second derivative on 3 and 5 points
_CENTRAL = {
    3: ([-0.5, 0.0, 0.5], [1.0, -2.0, 1.0]),
    5: ([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12], [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12]),
}


def _assert_newton_steps(lo, hi, derivs, power, points, spacing):
    """-slope / curv from derivs matches a central-difference Newton step of the supplier's
    own function (its value to the given power), spaced `spacing` times the bracket width,
    at interior points of each bracket."""
    frac = np.array([0.2, 0.4, 0.6, 0.8])
    live = np.repeat(np.arange(lo.size), frac.size)
    width = hi[live] - lo[live]
    t = lo[live] + np.tile(frac, lo.size) * width
    _, slope, curv = derivs(live, t)
    h = spacing * width
    offsets = np.arange(points) - points // 2
    f = np.array([derivs(live, t + k * h)[0] ** power for k in offsets])
    first, second = (np.dot(weights, f) for weights in _CENTRAL[points])
    np.testing.assert_allclose(-slope / curv, -h * first / second, rtol=1e-6)


class TestSupplierContract:
    """Each production supplier returns the slope and curvature of the function its
    Newton iteration runs on, up to one positive factor per point."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["symmetric", "general"])
    def test_torus(self, monkeypatch, kind, m):
        rng = np.random.default_rng(2600 + m)
        u = random_symmetric(rng, 9) if kind == "symmetric" else random_general(rng, 9)
        seen = _suppliers(monkeypatch, multiplier, lambda: multiplier.operator_norm(u, m))
        for lo, hi, derivs in seen:
            _assert_newton_steps(lo, hi, derivs, power=2, points=5, spacing=5e-3)

    def test_mu(self, monkeypatch):
        (supplier,) = _suppliers(monkeypatch, asymptotics, asymptotics.compute_mu)
        _assert_newton_steps(*supplier, power=2, points=5, spacing=5e-3)

    def test_weighted_max_stencil(self, monkeypatch):
        rng = np.random.default_rng(2626)
        u = random_symmetric(rng, 12)
        seen = _suppliers(monkeypatch, gridsearch, lambda: multiplier.operator_norm_via_polynomial(u))
        seen += _suppliers(
            monkeypatch, gridsearch, lambda: extremal.minimax_lower_bound_check(random_unit_at_one(rng, 5), 5)
        )
        assert len(seen) == 2
        for lo, hi, derivs in seen:
            # the stencil is itself a 3-point central difference, at its own spacing
            _assert_newton_steps(lo, hi, derivs, power=1, points=3, spacing=gridsearch._SPACING)


class TestSelectPeaks:
    def test_best_first_with_endpoints(self):
        fs = np.array([5.95, 1.0, 3.0, 1.0, 5.9, 2.0, 6.0])
        assert select_peaks(fs).tolist() == [6, 0, 4]

    def test_band_edge(self):
        # best 1, so the edge BAND * best is exactly BAND
        fs = np.array([BAND, 0.0, 1.0, 0.0, np.nextafter(BAND, 0.0)])
        assert select_peaks(fs).tolist() == [2, 0]

    def test_negative_samples_keep_their_best_peak(self):
        assert select_peaks(np.array([-3.0, -1.0, -2.0, -0.5, -4.0])).tolist() == [3]

    def test_negative_function_maximum(self):
        # peaks -2 at x = 1 and -1.5 at x = 3: the band keeps only the higher one
        bumps = two_bumps(1.0, 0.5)
        value, x = refine_grid_max(lambda x: bumps(x) - 3.0, np.linspace(0.0, 4.0, 401))
        assert abs(value + 1.5) <= 1e-12
        assert abs(x - 3.0) < 1e-6

    def test_near_ties_kept_up_to_twelve(self):
        xs = np.linspace(0.0, 40.0 * math.pi, 4001)
        fs = np.cos(xs) + 1e-4 * xs
        chosen = select_peaks(fs)
        assert chosen.size == 12
        assert np.all(np.diff(fs[chosen]) <= 0)


class TestFftLength:
    def test_length_is_smallest_even_5_smooth(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for L in range(1, 5001):
            brute = next(m for m in range(L + L % 2, 2 * L + 3, 2) if smooth(m))
            assert fft_length(L) == brute, L


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


def _dense_floor(u, m):
    """Least norm allowed by the symbol on an FFT grid 16 times denser than the rule's."""
    count = 16 * 2 * (sample_count(u.half_width + m) - 1)
    xi = 2.0 * math.pi * np.arange(count // 2 + 1) / count
    w = full_weights(u)
    dense = (2.0 * np.sin(0.5 * xi)) ** m * np.abs(np.fft.rfft(w, count))
    # FFT rounding: a few eps of sum |w| per butterfly stage, times 2^m; it
    # dominates where |u_hat| cancels far below sum |w| (Epanechnikov at xi = pi)
    return (1.0 - 1e-12) * np.max(dense) - 2.0**m * np.abs(w).sum() * 8 * math.log2(count) * EPS


class TestDenseGrid:
    """The band never drops the peak holding the maximum: no sample of a grid 16 times
    denser than the rule's lies above the polished norm."""

    @pytest.mark.parametrize("n", [1, 7, 64, 513])
    def test_norms_reach_the_dense_grid_maximum(self, n):
        rng = np.random.default_rng(1900 + n)
        for u in (random_general(rng, n), random_symmetric(rng, n), epanechnikov_kernel(n)):
            for m in (1, 2, 3):
                floor = _dense_floor(u, m)
                assert multiplier.operator_norm(u, m).value >= floor
                if m == 2 and isinstance(u, SymmetricKernel):
                    assert multiplier.operator_norm_via_polynomial(u).value >= floor

    @pytest.mark.parametrize("n", [3, 7, 11])
    def test_near_tied_peaks(self, n):
        # the optimal kernel's n + 1 tied order-2 peaks, split by 1e-7 weight noise into
        # near ties that the samples rank at random; n <= 11 keeps them under the cap of 12
        rng = np.random.default_rng(1900 + n)
        for _ in range(16):
            w = optimal_kernel(n).weights * (1.0 + 1e-7 * rng.standard_normal(n + 1))
            u = SymmetricKernel(n, w / (w[0] + 2.0 * w[1:].sum()))
            floor = _dense_floor(u, 2)
            assert multiplier.operator_norm(u, 2).value >= floor
            assert multiplier.operator_norm_via_polynomial(u).value >= floor
