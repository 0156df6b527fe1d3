"""Operator norms of smoothing-then-differencing, computed as multiplier symbol maxima.

For a kernel u and difference order m, the map f -> D^m(u * f) on square-
summable sequences has operator norm equal to the maximum over frequencies
of (2 |sin(xi/2)|)^m |u_hat(xi)|. The maximum of this trigonometric
polynomial is located on a fixed dense grid, sampled by one FFT, and
polished by batched Newton steps, so results are deterministic. For
symmetric kernels and m = 2 the same quantity can be computed as
2 max |(1-x) p_u(x)| over [-1, 1] by Clenshaw evaluation at the same
frequencies, giving an independent cross-check path; both grids follow
`gridsearch.sample_count` and both polish with the same Newton loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import clenshaw_eval
from .extremal import alpha_closed_form, weighted_max
from .gridsearch import polish, resolve_ties, sample_count, select_peaks
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

    The symbol is a trigonometric polynomial of degree n + m, so it is
    sampled at `gridsearch.sample_count(n + m)` frequencies on [0, pi]: one
    real FFT of the weights zero-padded to twice that count less two, the
    half grid of which suffices because real weights make the symbol even.
    The best brackets are polished together by safeguarded Newton to 1e-12 in
    xi. Values tied within 1e-12 relative resolve to the smallest frequency.
    Orders run from 1 to MAX_ORDER; a maximum past the largest double raises
    ValueError.
    """
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"difference order must be in [1, {MAX_ORDER}]")
    w = full_weights(u)
    count = 2 * (sample_count(u.half_width + m) - 1)
    xi = np.arange(count // 2 + 1) * (2.0 * math.pi / count)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = (2.0 * np.sin(0.5 * xi)) ** m * np.abs(np.fft.rfft(w, count))
        values, argmaxes = _polish(w, m, count, select_peaks(samples))
    if not np.all(np.isfinite(values)):
        raise ValueError(f"the order-{m} symbol of this kernel overflows double precision")
    value, argmax = resolve_ties(values, argmaxes)
    return MultiplierBound(value, argmax, m, "torus_grid")


def _polish(w: np.ndarray, m: int, count: int, nodes: np.ndarray):
    """Maximize the symbol near each grid node, all brackets at once.

    Analytic derivatives of g = (2 - 2 cos xi)^m |u_hat|^2 drive
    `gridsearch.polish` in brackets of one grid step either side, clipped to
    [0, pi]. Returns the symbol values and the frequencies they were taken at.

    A frequency is written xi = 2 pi j / count + t with j the node: the phase
    of exp(-i k xi) is reduced as (k j) mod count in integers, and every sum
    is an elementwise product reduced by numpy's pairwise summation. Phase
    errors then stay at roundoff and uncorrelated with k, which keeps
    |u_hat| accurate where it is far below sum |w_k|, and the result does not
    depend on the BLAS build.
    """
    n = (w.size - 1) // 2
    k = np.arange(-n, n + 1)
    kw = k * w
    kkw = k * kw
    h = 2.0 * math.pi / count
    # 2 pi / count = c_hi + c_lo with c_hi * r exact for r < 2^29, so the
    # rounding of each phase angle is unbiased rather than growing with r
    c_hi = float(np.float32(h))
    c_lo = ((2.0 * math.pi - c_hi * count) + _TWO_PI_LO) / count
    r = np.multiply.outer(nodes, k) % count
    phase = np.exp(-1j * (c_hi * r + c_lo * r))

    def derivs(live, tl):
        e = phase[live] * np.exp(-1j * np.multiply.outer(tl, k))
        u0 = (e * w).sum(axis=1)
        u1 = -1j * (e * kw).sum(axis=1)
        u2 = -(e * kkw).sum(axis=1)
        xi = nodes[live] * h + tl
        sin_half = np.sin(0.5 * xi)
        # s = 2 - 2 cos xi and a = |u_hat|^2 with their derivatives; g1 and g2
        # are g' / s^(m-1) and g'' / s^(m-2), so they stay finite at xi = 0
        s, ds, dds = 4.0 * sin_half**2, 2.0 * np.sin(xi), 2.0 * np.cos(xi)
        a0 = u0.real**2 + u0.imag**2
        a1 = 2.0 * (u0.conj() * u1).real
        a2 = 2.0 * (u1.real**2 + u1.imag**2 + (u0.conj() * u2).real)
        g1 = m * ds * a0 + s * a1
        g2 = m * (m - 1) * ds * ds * a0 + m * s * (dds * a0 + 2.0 * ds * a1) + s * s * a2
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(g2 < 0, -(s * g1 / g2), np.nan)
        return (2.0 * sin_half) ** m * np.abs(u0), g1, step

    values, t = polish(derivs, np.where(nodes > 0, -h, 0.0), np.where(nodes < count // 2, h, 0.0))
    return values, np.clip(nodes * h + t, 0.0, math.pi)


def operator_norm_via_polynomial(u: SymmetricKernel) -> MultiplierBound:
    """Order-2 norm by the substitution x = cos(xi): 2 max |(1-x) p_u(x)|.

    Only the second-difference case reduces this way, since
    |exp(i xi) - 1|^2 = 2 (1 - cos xi). The maximum is sampled by Clenshaw
    at `gridsearch.sample_count(n + 2)` equally spaced theta in [0, pi], the
    frequencies of the torus half grid at m = 2, and polished by
    `gridsearch.refine_grid_max`.
    """
    if not isinstance(u, SymmetricKernel):
        raise ValueError("polynomial form needs a symmetric kernel")
    value, theta = weighted_max(to_polynomial(u), sample_count(u.half_width + 2))
    return MultiplierBound(2.0 * value, theta, 2, "polynomial_form")


def closed_form_c2(n: int) -> float:
    """Smallest possible order-2 constant over all half-width-n kernels."""
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
    tail below exp(-8).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if length < 1:
        raise ValueError("length must be positive")
    if length < 8 * sigma:
        raise ValueError("window too short for the envelope: need length >= 8 sigma")
    k = np.arange(length, dtype=float)
    center = 0.5 * (length - 1)
    envelope = np.exp(-((k - center) ** 2) / (2.0 * sigma * sigma))
    return TimeSeries(envelope * np.cos(xi_star * k))
