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

from .chebyshev import MAX_DEGREE, ChebSeries, clenshaw_eval, integer, transform
from .gridsearch import fft_length, refine_grid_max, sample_count

__all__ = [
    "ConstructionError",
    "ExtremalSolution",
    "EquioscillationReport",
    "LowerBoundReport",
    "alpha_closed_form",
    "build_solution",
    "verify_equioscillation",
    "minimax_lower_bound_check",
]


class ConstructionError(ArithmeticError):
    """The construction of S failed its own S(1) = 1 self-check: a verification failure, not a crash."""


@dataclass(frozen=True, eq=False)
class ExtremalSolution:
    """Degree-d minimax solution: the optimal polynomial S and what follows from it.

    Only S is stored. Its degree d, the minimax value alpha(d), the weighted
    product q(x) = (1-x) S(x) and the d+1 alternation points
    y_1 > ... > y_{d+1} = -1, at which q alternates between +alpha and -alpha,
    are derived on each read, so none can disagree with the S that becomes
    the kernel.
    """

    S: ChebSeries

    @property
    def degree(self) -> int:
        return self.S.degree

    @property
    def alpha(self) -> float:
        return alpha_closed_form(self.degree)

    @property
    def q(self) -> ChebSeries:
        return ChebSeries(_one_minus_x_times(self.S.coeffs))

    @property
    def alternation_points(self) -> np.ndarray:
        N = self.degree + 1
        scale = 0.5 * (1.0 + math.cos(math.pi / (2 * N)))
        # L^{-1}(cos(i pi / N)) for i = 1..N; cos(pi) = -1 makes y_N = -1 exact
        return (np.cos(np.arange(1, N + 1) * (math.pi / N)) + 1.0) / scale - 1.0


@dataclass(frozen=True, eq=False)
class EquioscillationReport:
    residuals: np.ndarray
    grid_max: float
    alpha: float
    measures: tuple[float, float, float]  # one per name in CONDITIONS, in their order
    failed: tuple[str, ...]  # the failing names among CONDITIONS, in their order

    @property
    def passed(self) -> bool:
        return not self.failed


@dataclass(frozen=True)
class LowerBoundReport:
    passed: bool
    max_weighted: float
    alpha: float
    gap: float


# the certificate's conditions, as `verify_equioscillation` lists them and reports the failing ones
CONDITIONS = ("guard", "residuals", "S(1)")
# Taylor terms in `_cosine_sum_at`: the least J with (pi/2)^J / J! e^(pi/2) < 2^-53
_TAYLOR_TERMS = next(
    J for J in range(1, 64) if (math.pi / 2) ** J / math.factorial(J) * math.exp(math.pi / 2) < 2.0**-53
)
# complex outputs per rfft call in `_cosine_sum_at`; a call takes at least one row
_BLOCK_OUTPUTS = 2**14


def alpha_closed_form(d: int) -> float:
    """Minimax value 2 sin(pi/2N) / (N (1 + cos(pi/2N))) with N = d + 1."""
    d = integer(d, "degree")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    N = d + 1
    half = math.pi / (2 * N)
    return 2.0 * math.sin(half) / (N * (1.0 + math.cos(half)))


def _one_minus_x_times(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of (1 - x) p from those of p."""
    # x T_0 = T_1 and x T_k = (T_{k+1} + T_{k-1}) / 2
    xp = np.zeros(c.size + 1)
    xp[1] = c[0]
    xp[2:] += 0.5 * c[1:]
    xp[: c.size - 1] += 0.5 * c[1:]
    return np.append(c, 0.0) - xp


def build_solution(d: int) -> ExtremalSolution:
    """Construct the degree-d minimax solution; it stores S alone.

    S(x) = -alpha T_N(L(x)) / (1 - x), N = d + 1, is sampled at cheb_nodes(N),
    x = cos(theta), in closed form. With s = sin(theta/2) and
    c = sin^2(pi/4N), arcsin(r) = arccos(L(x))/2 - pi/4N for
    r = sqrt(1-c) s^2 / (sqrt(c + (1-c) s^2) + sqrt(c) cos(theta/2)), so
    S(cos theta) = alpha sin(2N arcsin r) / (2 s^2). No term cancels and the
    nodes avoid theta = 0. One transform gives S. Everything else the
    solution offers, q = (1 - x) S and the alternation points among it, is
    derived from S on each read, so `verify_equioscillation`, which decides
    the three conditions of the certificate from them, checks the polynomial
    that becomes the kernel.

    Raises ConstructionError unless S(1) = sum(c_k) is 1 within
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
    d = integer(d, "degree")
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
        raise ConstructionError(f"S(1) = {at_one!r} is not 1 within {tol:.3g}")
    return ExtremalSolution(S)


def _cosine_sum_at(c: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_k c_k cos(k theta) at each theta in [0, pi], by a Taylor model of zero-padded rffts.

    With L = `gridsearch.fft_length(2 c.size)`, h = 2 pi / L, j = rint(theta / h)
    and s = theta / h - j, |s| <= 1/2, the sum is
    sum_p s^p / p! Re((-i)^p F_p[j]) with F_p = rfft(c (k h)^p, L), which is
    +-Re F_p[j] or +-Im F_p[j] by p mod 4. The series is walked upward from
    one running row: each block of at most `_BLOCK_OUTPUTS` outputs is filled
    with the next rows c, c k h, c (k h)^2, ..., each formed once from the
    one before, and goes through one rfft; each of its rows, gathered at j,
    joins the upward sum out +- (s^p / p!) term, whose weight s^p / p! is
    updated in place. The transient is one block's rows and transform and a
    few vectors of length c.size, at any J.
    Since k < c.size <= L / 2, k h |s| < pi/2, so cutting the series after
    J = `_TAYLOR_TERMS` terms leaves at most
    (pi/2)^J / J! e^(pi/2) ||c||_1 < u ||c||_1, u = 2^-53.

    Rounding, to first order: forming c (k h)^p costs 2 p u relative per
    entry, and the FFT adds at most eta (1 + log2 L) sqrt(L) ||c (k h)^p||_2
    with eta = 7 u per stage (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 24.2; the extra stage covers the twiddles), where
    (k h)^p < pi^p. Each weight s^p / p!, one division and one product per
    step, carries at most 2 p u relative error. Weighting term p by
    |s|^p / p! <= 2^-p / p!, so that pi^p becomes (pi/2)^p, bounds the sum of
    the terms' sizes by e^(pi/2) ||c||_1, and the upward sum, one product and
    one addition per term, costs at most J u e^(pi/2) ||c||_1. With
    2 p u + 2 p u <= 4 J u for the rows and weights, summing over p gives, in
    all, e^(pi/2) (u ||c||_1 + 7 u (1 + log2 L) sqrt(L) ||c||_2 + 5 J u ||c||_1).
    s = t - j is exact, so rounding t = theta / h and h only moves the point:
    the value is the sum's at some theta' with |theta' - theta| <= 3 u theta.
    """
    L = fft_length(2 * c.size)
    h = 2.0 * math.pi / L
    t = theta / h
    j = np.rint(t).astype(np.intp)
    s = t - j
    kh = np.arange(c.size) * h
    rows = min(_TAYLOR_TERMS, max(1, _BLOCK_OUTPUTS // (L // 2 + 1)))
    block = np.empty((rows, c.size))
    row, weight, out = c, np.ones_like(s), np.zeros_like(s)
    for start in range(0, _TAYLOR_TERMS, rows):
        stop = min(start + rows, _TAYLOR_TERMS)
        for p in range(start, stop):
            # row p = c (k h)^p, formed once from row p - 1; row 0 is a copy of c
            row = np.multiply(row, kh if p else 1.0, out=block[p - start])
        for p, F in enumerate(np.fft.rfft(block[: stop - start], L, axis=-1), start):
            # Re((-i)^p F_p) is Re F_p, Im F_p, -Re F_p, -Im F_p for p mod 4 = 0, 1, 2, 3
            term = (F.imag if p % 2 else F.real)[j]
            (np.subtract if p & 2 else np.add)(out, weight * term, out=out)
            weight *= s / (p + 1)  # s^(p + 1) / (p + 1)!
    return out


def verify_equioscillation(sol: ExtremalSolution, tol: float) -> EquioscillationReport:
    """Decide the equioscillation certificate of sol from q = (1 - x) S, derived from sol.S.

    Failures are reported, not raised. Each of the three conditions in
    `CONDITIONS` has one measure, and it holds iff its measure is at most
    tol (a nan measure fails). With c the coefficients of sol.q:
    - the guard: grid_max / alpha - 1, relative, with grid_max the grid
      maximum of |q|;
    - the residuals: the largest |q(y_i) + alpha (-1)^i| over the
      alternation points y_i of sol, which lie in [-1, 1) with y_N = -1
      exactly; absolute;
    - S(1): |S(1) - 1|, with S(1) the sum of sol.S's coefficients; absolute.
    The report carries the residuals, the grid maximum, the three measures
    in `CONDITIONS` order and the names of the failing conditions, in that
    order too; it passes iff none fails. q(1) = 0 needs no condition: the
    coefficients of (1 - x) p sum to sum(p_k) - sum(p_k).

    q(y_i) = sum_k c_k cos(k theta_i), theta_i = arccos(y_i), comes from
    `_cosine_sum_at`: a Taylor model in the offset from the nearest node of a
    grid of L = `gridsearch.fft_length` of 2 (N + 1) points, J = 22 terms
    in an upward sum from one running row, whose blocks of at most 2^14
    outputs each go through one rfft. Its error is below
    e^(pi/2) (u ||c||_1 + 7 u (1 + log2 L) sqrt(L) ||c||_2 + 5 J u ||c||_1)
    with u = 2^-53, ||c||_1 about 2 alpha and ||c||_2 about alpha: 5.0e-12
    alpha at N = 4097, where it is within 1.4e-15 alpha of a longdouble sum.

    The guard's grid is theta_j = 2 pi j / L, j = 0..L/2, with
    L = `gridsearch.fft_length` of 2 (10 N - 1): at least 10 N points from 0
    to pi, no wider apart than pi / (10 N - 1). Since
    (1 - cos theta) S(cos theta) = sum_k c_k cos(k theta), the grid values
    are the real part of one zero-padded rfft of c. The transform is of q and
    not of S: S's coefficients are O(1/N) and cancel to about alpha/2 near
    x = -1, so any evaluation from them is off by about eps sum |S_k|, some
    1e-9 alpha at N = 4097. Those of q are O(alpha): at N = 4097 the rfft is
    within 1e-15 alpha of a longdouble sum.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    N = sol.degree + 1
    alpha = sol.alpha
    c = sol.q.coeffs
    theta = np.arccos(sol.alternation_points)
    residuals = np.abs(_cosine_sum_at(c, theta) + alpha * (-1.0) ** np.arange(1, N + 1))
    grid = np.fft.rfft(c, fft_length(2 * (10 * N - 1))).real
    grid_max = float(max(grid.max(), -grid.min()))
    measures = (
        grid_max / alpha - 1.0,
        float(np.max(residuals)),
        abs(float(np.sum(sol.S.coeffs)) - 1.0),
    )
    failed = tuple(name for name, value in zip(CONDITIONS, measures) if not value <= tol)
    return EquioscillationReport(residuals, grid_max, alpha, measures, failed)


def weighted_max(p: ChebSeries) -> tuple[float, float]:
    """Maximum over theta in [0, pi] of |(1 - cos theta) p(cos theta)|; returns (value, theta).

    The maximum is located on `gridsearch.sample_count(p.degree + 2)` equally
    spaced theta (extrema of Chebyshev-like products equidistribute in
    theta, not x): the product has degree p.degree + 1, and one more gives a
    kernel's p the torus half grid at m = 2. It is polished by
    `gridsearch.refine_grid_max`, whose `maximize` owns peaks, brackets and ties.

    Each value is (1 - x) times Clenshaw's p(x) at x = np.cos(theta). With
    W(x) = (1 - x) p(x), Clenshaw's intermediates
    b_k = sum_{j >= k} c_j U_{j-k}(x) and u = 2^-53, it is within
    u (|W'(x)| + 6 (1 - x) sum_{k >= 1} |b_k| + 3 |W(x)|) of |W(cos theta)|,
    to first order. The step b_k = (2x b_{k+1} - b_{k+2}) + c_k rounds by
    at most u (|b_k| + 4 |b_{k+1}| + |b_{k+2}|), and an error e in b_k moves
    p by e T_k(x), |T_k| <= 1; the last step x b_1 - b_2 + c_0 adds
    u (2 |b_1| + |b_2| + |p|). np.cos within one ulp moves x by at most u,
    so W by u |W'(x)|, which is small at a polished peak, where W' vanishes.
    1 - x and the product round once each. Since
    |U_m(cos theta)| <= min(m + 1, 1 / sin theta), sum |b_k| is at most
    sum_k k (k + 1) / 2 |c_k|, so the bound can grow with the degree squared;
    it does near theta = 0 and pi, where the b_k do not cancel. A maximum
    past the largest double raises ValueError.
    """

    def weighted(theta):
        x = np.cos(theta)
        return np.abs((1.0 - x) * clenshaw_eval(p, x))

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value, theta = refine_grid_max(weighted, np.linspace(0.0, math.pi, sample_count(p.degree + 2)))
    except ValueError:  # clenshaw_eval's overflow
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("the weighted maximum of this polynomial overflows double precision")
    return value, theta


def minimax_lower_bound_check(p: ChebSeries, d: int) -> LowerBoundReport:
    """Confirm max |(1-x) p(x)| >= alpha(d) for a challenger p with p(1) = 1.

    The maximum is `weighted_max`'s, on `gridsearch.sample_count(p.degree + 2)` points;
    one past the largest double raises ValueError.
    """
    if p.degree > d:
        raise ValueError("challenger degree exceeds the stated bound")
    if abs(float(np.sum(p.coeffs)) - 1.0) > 1e-9:
        raise ValueError("challenger must satisfy p(1) = 1")
    m, _ = weighted_max(p)
    alpha = alpha_closed_form(d)
    return LowerBoundReport(m >= alpha * (1.0 - 1e-9), m, alpha, m - alpha)
