"""Minimax solutions of the weighted problem: minimize max |(1-x) p(x)| with p(1) = 1.

For degree d the optimizer is a rescaled Chebyshev polynomial composed with
an affine stretch that parks one of its zeros at x = 1. The product
(1-x) S(x) then equioscillates between -alpha and +alpha at d+1 points,
which certifies optimality and pins the minimax value alpha in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import MAX_DEGREE, ChebSeries, clenshaw_eval, transform
from .gridsearch import refine_grid_max, sample_count

__all__ = [
    "ExtremalSolution",
    "EquioscillationReport",
    "LowerBoundReport",
    "alpha_closed_form",
    "build_solution",
    "verify_equioscillation",
    "minimax_lower_bound_check",
]


@dataclass(frozen=True, eq=False)
class ExtremalSolution:
    """Degree-d minimax solution and the data certifying it.

    S is the optimal polynomial, q(x) = (1-x) S(x) the weighted product, and
    alternation_points the d+1 inputs y_1 > ... > y_{d+1} = -1 at which q
    alternates between +alpha and -alpha.
    """

    degree: int
    alpha: float
    S: ChebSeries
    q: ChebSeries
    alternation_points: np.ndarray


@dataclass(frozen=True, eq=False)
class EquioscillationReport:
    passed: bool
    residuals: np.ndarray
    grid_max: float
    alpha: float


@dataclass(frozen=True)
class LowerBoundReport:
    passed: bool
    max_weighted: float
    alpha: float
    gap: float


def alpha_closed_form(d: int) -> float:
    """Minimax value 2 sin(pi/2N) / (N (1 + cos(pi/2N))) with N = d + 1."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    N = d + 1
    half = math.pi / (2 * N)
    return 2.0 * math.sin(half) / (N * (1.0 + math.cos(half)))


def build_solution(d: int) -> ExtremalSolution:
    """Construct the degree-d minimax solution with its alternation data.

    S(x) = -alpha T_N(L(x)) / (1 - x), N = d + 1, is sampled at cheb_nodes(N),
    x = cos(theta), in closed form. With s = sin(theta/2) and
    c = sin^2(pi/4N), arcsin(r) = arccos(L(x))/2 - pi/4N for
    r = sqrt(1-c) s^2 / (sqrt(c + (1-c) s^2) + sqrt(c) cos(theta/2)), so
    S(cos theta) = alpha sin(2N arcsin r) / (2 s^2). No term cancels and the
    nodes avoid theta = 0. One transform gives S, and q = (1 - x) S is formed
    from S's coefficients, so the certificate checks the polynomial that
    becomes the kernel.

    Raises ArithmeticError unless S(1) = sum(c_k) is 1 within
    tol = u (64 Lambda + 16 (1 + log2 N) ||v||_2), u = 2^-53, where v are
    the samples and Lambda = 1 + (2/pi) ln N bounds the nodes' Lebesgue
    constant. Each sample is off by at most 64u: a first-order bound over its
    rounded operations, with alpha N arcsin(r) / s^2 <= pi / cos(pi/4N)
    capping the effect of the phase error. FFT rounding moves sum(c_k) by
    at most 2 eta log2(N) ||v||_2 with eta = 7u per stage (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2); the
    extra stage covers the twiddle and scaling pass. At N = 4097 the bound is
    6.3e-14; observed errors stay below 7e-16.
    """
    if not 0 <= d <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}]")
    N = d + 1
    alpha = alpha_closed_form(d)
    c = math.sin(math.pi / (4 * N)) ** 2
    half = (np.arange(N) + 0.5) * (math.pi / (2 * N))
    s2 = np.sin(half) ** 2
    h = np.sqrt(c + (1.0 - c) * s2)
    r = math.sqrt(1.0 - c) * s2 / (h + math.sqrt(c) * np.cos(half))
    v = alpha * np.sin(2 * N * np.arcsin(r)) / (2.0 * s2)
    S = transform(v)
    lebesgue = 1.0 + 2.0 / math.pi * math.log(N)
    tol = 2.0**-53 * (64.0 * lebesgue + 16.0 * (1.0 + math.log2(N)) * float(np.linalg.norm(v)))
    at_one = float(np.sum(S.coeffs))
    if not abs(at_one - 1.0) <= tol:
        raise ArithmeticError(f"S(1) = {at_one!r} is not 1 within {tol:.3g}")
    # x T_0 = T_1 and x T_k = (T_{k+1} + T_{k-1}) / 2
    xS = np.zeros(N + 1)
    xS[1] = S.coeffs[0]
    xS[2:] += 0.5 * S.coeffs[1:]
    xS[: N - 1] += 0.5 * S.coeffs[1:]
    q = ChebSeries(np.append(S.coeffs, 0.0) - xS)
    scale = 0.5 * (1.0 + math.cos(math.pi / (2 * N)))
    # L^{-1}(cos(i pi / N)) for i = 1..N; cos(pi) = -1 makes y_N = -1 exact
    y = (np.cos(np.arange(1, N + 1) * (math.pi / N)) + 1.0) / scale - 1.0
    return ExtremalSolution(degree=d, alpha=alpha, S=S, q=q, alternation_points=y)


def verify_equioscillation(sol: ExtremalSolution, tol: float) -> EquioscillationReport:
    """Check the alternation values of q and the grid maximum of |(1-x) S(x)|.

    Failures are reported, not raised: residuals hold |q(y_i) + alpha (-1)^i|
    per point, and the report passes iff all residuals are within tol and the
    grid maximum does not exceed alpha (1 + 1e-9).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    N = sol.degree + 1
    signs = (-1.0) ** np.arange(1, N + 1)
    residuals = np.abs(clenshaw_eval(sol.q, sol.alternation_points) + sol.alpha * signs)
    theta = np.linspace(0.0, math.pi, 10 * N)
    x = np.cos(theta)
    grid_max = float(np.max(np.abs((1.0 - x) * clenshaw_eval(sol.S, x))))
    passed = bool(np.all(residuals <= tol)) and grid_max <= sol.alpha * (1.0 + 1e-9)
    return EquioscillationReport(passed, residuals, grid_max, sol.alpha)


def weighted_max(p: ChebSeries, points: int) -> tuple[float, float]:
    """Maximum over theta in [0, pi] of |(1 - cos theta) p(cos theta)|; returns (value, theta).

    The maximum is located on `points` equally spaced theta (extrema of
    Chebyshev-like products equidistribute in theta, not x) and polished by
    `gridsearch.refine_grid_max`.
    """

    def weighted(theta):
        x = np.cos(theta)
        return np.abs((1.0 - x) * clenshaw_eval(p, x))

    return refine_grid_max(weighted, np.linspace(0.0, math.pi, points))


def minimax_lower_bound_check(p: ChebSeries, d: int) -> LowerBoundReport:
    """Confirm max |(1-x) p(x)| >= alpha(d) for a challenger p with p(1) = 1.

    The maximum is `weighted_max` on `gridsearch.sample_count(d + 2)` points.
    """
    if p.degree > d:
        raise ValueError("challenger degree exceeds the stated bound")
    if abs(float(np.sum(p.coeffs)) - 1.0) > 1e-9:
        raise ValueError("challenger must satisfy p(1) = 1")
    m, _ = weighted_max(p, sample_count(d + 2))
    alpha = alpha_closed_form(d)
    return LowerBoundReport(m >= alpha * (1.0 - 1e-9), m, alpha, m - alpha)
