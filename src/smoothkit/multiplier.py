"""Operator norms of smoothing-then-differencing, computed as multiplier symbol maxima.

For a kernel u and difference order m, the map f -> D^m(u * f) on square-
summable sequences has operator norm equal to the maximum over frequencies
of (2 |sin(xi/2)|)^m |u_hat(xi)|, the modulus of the transform of the m-th
difference of the weights. That maximum is located on a fixed dense grid,
sampled by one FFT of the differenced weights, and polished by batched
Newton steps on the same sequence, so results are deterministic. For
symmetric kernels and m = 2 the same quantity can be computed as
2 max |(1-x) p_u(x)| over [-1, 1] by Clenshaw evaluation at the same
frequencies, giving an independent cross-check path; both grids follow
`gridsearch.sample_count` and both maxima come from `gridsearch.maximize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import clenshaw_eval, integer, real
from .extremal import alpha_closed_form, weighted_max
from .gridsearch import maximize, sample_count
from .kernels import GeneralKernel, SymmetricKernel, full_weights, to_polynomial
from .series import TimeSeries, l2_norm

__all__ = [
    "MultiplierBound",
    "operator_norm",
    "operator_norm_via_polynomial",
    "closed_form_c2",
    "rayleigh_quotient",
    "wave_packet",
]

_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - float(2 pi)
# the factor 2^m of the symbol at xi = pi overflows a double from m = 1024
MAX_ORDER = 1023


@dataclass(frozen=True)
class MultiplierBound:
    """Computed norm, the frequency attaining it, and the method used."""

    value: float
    argmax_xi: float
    order: int
    method: str


# not exported; stays only until perfbench stops naming it (ROADMAP item 5 deletes it)
def symbol_magnitude(u: SymmetricKernel | GeneralKernel, m: int, xi):
    """Symbol value (2 |sin(xi/2)|)^m |u_hat(xi)| at frequency xi.

    Symmetric kernels use the real cosine series u_hat(xi) = p_u(cos xi);
    general kernels evaluate the complex exponential sum directly.
    """
    if m < 1:
        raise ValueError("difference order must be at least 1")
    x = np.asarray(xi, dtype=float)
    if isinstance(u, SymmetricKernel):
        mag = np.abs(clenshaw_eval(to_polynomial(u), np.cos(x)))
    else:
        ks = np.arange(-u.half_width, u.half_width + 1)
        mag = np.abs(np.exp(-1j * np.multiply.outer(x, ks)) @ u.weights)
    out = (2.0 * np.abs(np.sin(0.5 * x))) ** m * mag
    return float(out) if np.ndim(xi) == 0 else out


def operator_norm(u: SymmetricKernel | GeneralKernel, m: int) -> MultiplierBound:
    """Sharp constant of the smoothing inequality, found on the frequency torus.

    The symbol is the modulus of one transform. The weights w, zero-padded
    by m on the left and m + (m mod 2) on the right, go through m steps
    v <- v[1:] / 2 - v[:-1] / 2, which leave v = 2^-m (Delta^m w) of odd
    length, with DFT ((e^(i xi) - 1) / 2)^m u_hat; so the symbol is
    2^m |V(xi)|, V the DFT of v. Each halving is exact, so |v| <= max |w|
    and nothing overflows before the final, exact factor 2^m. The symbol is
    the modulus of a trigonometric polynomial of degree n + m, so |V| is
    sampled at `gridsearch.sample_count(n + m)` frequencies on [0, pi]: one
    real FFT of v zero-padded to twice that count less two, the half grid
    of which suffices because real weights make the symbol even.
    `gridsearch.maximize` owns peak selection, brackets and ties (to the
    smallest frequency); `_polish` supplies the derivatives that polish to
    1e-12 in xi. At xi = pi the symbol is 2^m |sum (-1)^k w_k|, taken from
    one `math.fsum` of the alternating weights scaled by a power of two, so
    a maximum there is correctly rounded. The argmax is clipped to pi,
    which the last node can pass by an ulp. Orders run from 1 to MAX_ORDER;
    a maximum past the largest double raises ValueError.
    """
    m = integer(m, "difference order")
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"difference order must be in [1, {MAX_ORDER}]")
    w = full_weights(u)
    v = np.concatenate((np.zeros(m), w, np.zeros(m + m % 2)))
    for _ in range(m):
        v = 0.5 * v[1:] - 0.5 * v[:-1]
    count = 2 * (sample_count(u.half_width + m) - 1)
    xi = np.arange(count // 2 + 1) * (2.0 * math.pi / count)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.abs(np.fft.rfft(v, count))
        value, argmax = maximize(xi, samples, lambda nodes, lo, hi: _polish(w, v, m, count, nodes))
    if not math.isfinite(value):
        raise ValueError(f"the order-{m} symbol of this kernel overflows double precision")
    return MultiplierBound(value, min(argmax, math.pi), m, "torus_grid")


def _polish(w: np.ndarray, v: np.ndarray, m: int, count: int, nodes: np.ndarray):
    """The symbol's derivative function for `gridsearch.polish` at the given grid nodes.

    w are the full weights and v is `operator_norm`'s 2^-m (Delta^m w), of
    odd length 2 N + 1. This supplies the symbol 2^m |V| and the slope
    Re(V' conj V) and curvature |V'|^2 + Re(V'' conj V) of |V|^2 / 2, V
    the DFT of v, the form `asymptotics.compute_mu` uses;
    `gridsearch.maximize` picks the nodes, brackets them and resolves
    ties, and `gridsearch.polish` takes the steps. At the grid's last
    node, xi = pi, an evaluation at t = 0 returns 2^m |sum (-1)^k w_k|
    from one `math.fsum`, summed only when that node is among the given
    ones.

    Real v makes exp(+i k xi) the conjugate of exp(-i k xi), so with
    a_k = v_k + v_-k and b_k = v_k - v_-k for k = 1..N, centred on v_0,
    V is summed over the half spectrum in real arithmetic:
    V = v_0 + sum a_k cos k xi - i sum b_k sin k xi,
    V' = -sum k a_k sin k xi - i sum k b_k cos k xi and
    V'' = -sum k^2 a_k cos k xi + i sum k^2 b_k sin k xi. A frequency is
    written xi = 2 pi j / count + t with j the node, and the angle k xi as
    c_hi r + c_lo r + t k with r = (k j) mod count reduced in integers; each
    step takes one cos and one sin of that angle, and the six sums are two
    (brackets, 3, N) elementwise products reduced by numpy's pairwise
    summation, so the result does not depend on the BLAS build.

    Each polished value is within (19 + D) u sum |2^m v_k| of 2^m |V| at
    its reported frequency xi*, u = 2^-53, to first order. The angle is off
    by at most (4 + 1/4) pi u: c_hi r is exact for r < 2^29, c_lo r is
    below 2^-21 and |t k| <= pi / 8 (|t| is at most one spacing and
    count >= 16 (n + m) >= 16 N), so rounding c_hi r + c_lo r costs at most
    2 pi u, t k at most pi u / 8 and their sum at most (2 pi + pi / 8) u.
    With cos and sin within one ulp, that phase error, the roundings of
    a_k, b_k and their products and the final add of v_0 move V by at most
    (4.25 pi + sqrt 2 + 3) u per unit of |v_k| + |v_-k|, since
    |a_k cos - i b_k sin| <= |v_k| + |v_-k|. numpy's pairwise summation
    (eight accumulators up to 128 terms, halving above) adds D u sum |v_k|,
    D its depth: at most 24 for N <= 128 and 24 + ceil(log2(N / 128))
    above. The modulus costs one more u relative and the factor 2^m none.
    Last, xi* is at most 4 u (xi* + h) from the frequency the phases
    describe, h the spacing, and |V| is stationary at a polished maximum,
    so that moves it only to second order.

    v itself is 2^-m (Delta^m w) up to the rounding of the differences:
    each halving is exact and each subtraction rounds once, so step j of m
    moves the symbol by at most u (2 |sin(xi*/2)|)^(m - j) sum |2^j v_k^(j)|,
    v^(j) the sequence after j steps. That is 0 where the subtractions are
    exact, as they are (Sterbenz) between neighbours within a factor 2 of
    each other, as in the interior of a smooth kernel. sum |2^m v_k| stays
    near the value: at most 2.0 times it for the four named families,
    measured at n <= 64 and seven n from 100 to 4096 with m in
    {1, 2, 3, 5}. Summing u_hat first and applying the factor
    (2 sin(xi/2))^m after would leave an error scale of
    sum |w_k| (2 |sin(xi*/2)|)^m instead, up to 2.2e7 times the value for
    smooth kernels at n = 4096.
    """
    N = (v.size - 1) // 2
    k = np.arange(1, N + 1)
    pos, neg = v[N + 1 :], v[:N][::-1]
    a, b = pos + neg, pos - neg
    cos_terms = np.stack([a, k * b, k * k * a])
    sin_terms = np.stack([b, k * a, k * k * b])
    h = 2.0 * math.pi / count
    # 2 pi / count = c_hi + c_lo with c_hi * r exact for r < 2^29, so the
    # rounding of each phase angle is unbiased rather than growing with r
    c_hi = float(np.float32(h))
    c_lo = ((2.0 * math.pi - c_hi * count) + _TWO_PI_LO) / count
    r = np.multiply.outer(nodes, k) % count
    base = c_hi * r + c_lo * r
    last = nodes == count // 2
    at_pi = math.nan  # read only where `last` holds
    if last.any():
        # 2^shift > w.size, so no partial sum of the alternating scaled weights overflows in `math.fsum`
        shift = w.size.bit_length()
        scaled = np.ldexp(w, -shift)
        at_pi = np.ldexp(abs(math.fsum(scaled[::2].tolist() + (-scaled[1::2]).tolist())), m + shift)

    def derivs(live, tl):
        angle = base[live] + np.multiply.outer(tl, k)
        cs = (np.cos(angle)[:, None, :] * cos_terms).sum(axis=2)
        sn = (np.sin(angle)[:, None, :] * sin_terms).sum(axis=2)
        re0, im0 = v[N] + cs[:, 0], -sn[:, 0]
        re1, im1 = -sn[:, 1], -cs[:, 1]
        re2, im2 = -cs[:, 2], sn[:, 2]
        value = np.where(last[live] & (tl == 0.0), at_pi, np.ldexp(np.hypot(re0, im0), m))
        return value, re0 * re1 + im0 * im1, re1**2 + im1**2 + re0 * re2 + im0 * im2

    return derivs


def operator_norm_via_polynomial(u: SymmetricKernel) -> MultiplierBound:
    """Order-2 norm by the substitution x = cos(xi): 2 max |(1-x) p_u(x)|.

    Only the second-difference case reduces this way, since
    |exp(i xi) - 1|^2 = 2 (1 - cos xi). `extremal.weighted_max` samples it
    by Clenshaw at `gridsearch.sample_count(n + 2)` equally spaced theta in
    [0, pi], the frequencies of the torus half grid at m = 2, and polishes
    it by `gridsearch.refine_grid_max`. A maximum past the largest double
    raises ValueError, as on the torus path.
    """
    if not isinstance(u, SymmetricKernel):
        raise ValueError("polynomial form needs a symmetric kernel")
    value, theta = weighted_max(to_polynomial(u))
    return MultiplierBound(2.0 * value, theta, 2, "polynomial_form")


def closed_form_c2(n: int) -> float:
    """Smallest possible order-2 constant over all half-width-n kernels."""
    n = integer(n, "half width")
    if n < 0:
        raise ValueError("half width must be nonnegative")
    return 2.0 * alpha_closed_form(n)


def rayleigh_quotient(u: SymmetricKernel | GeneralKernel, m: int, f: TimeSeries) -> float:
    """Achieved ratio norm(D^m(u * f)) / norm(f) for one concrete signal.

    The signal is treated as finitely supported: the convolution keeps its
    full support and the differences are taken over a zero-padded window, so
    no mass is lost at the ends. Always at most the operator norm. Orders
    run from 1 to MAX_ORDER. f is first scaled by a power of two so that
    max |f| lies in [1/2, 1), which is exact and keeps the quotient; a norm
    of the differences still past the largest double raises ValueError.
    """
    m = integer(m, "difference order")
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"difference order must be in [1, {MAX_ORDER}]")
    _, e = np.frexp(np.max(np.abs(f.values)))
    v = np.ldexp(f.values, -e)
    fnorm = l2_norm(v)
    if fnorm == 0.0:
        raise ValueError("signal must not be identically zero")
    smoothed = np.convolve(v, full_weights(u), mode="full")
    with np.errstate(over="ignore", invalid="ignore"):
        quotient = l2_norm(np.diff(np.pad(smoothed, m), m)) / fnorm
    if not math.isfinite(quotient):
        raise ValueError(f"the order-{m} difference of this smoothed signal overflows double precision")
    return quotient


def wave_packet(xi_star: float, sigma: float, length: int) -> TimeSeries:
    """Gaussian-windowed oscillation cos(xi_star k) concentrating near xi_star.

    Spectral width is O(1/sigma), so for sigma large the packet nearly
    attains the operator norm when xi_star is the symbol's argmax. The
    window must cover the envelope: length >= 8 sigma keeps the truncated
    tail below exp(-8). A xi_star or sigma whose phase xi_star k or
    exponent (k - center)^2 / (2 sigma^2) overflows raises ValueError.
    """
    xi_star = real(xi_star, "xi_star")
    sigma = real(sigma, "sigma")
    if not math.isfinite(xi_star):
        raise ValueError("xi_star must be finite")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not math.isfinite(sigma):
        raise ValueError("sigma must be finite")
    length = integer(length, "length")
    if length < 1:
        raise ValueError("length must be positive")
    if length < 8 * sigma:
        raise ValueError("window too short for the envelope: need length >= 8 sigma")
    if not math.isfinite(xi_star * (length - 1)):
        raise ValueError("xi_star is too large: xi_star * (length - 1) overflows")
    k = np.arange(float(length))
    center = 0.5 * (length - 1)
    spread = 2.0 * sigma * sigma
    if spread == 0.0 or not math.isfinite(center * center / spread):
        raise ValueError("sigma is too small: (length - 1)^2 / (8 sigma^2) overflows")
    envelope = np.exp(-((k - center) ** 2) / spread)
    return TimeSeries(envelope * np.cos(xi_star * k))
