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

from .chebyshev import MAX_DEGREE, ChebSeries, clenshaw_eval, integer, real, transform
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
    lower: float  # lower <= alpha*, the least max |(1 - x) p| over p(1) = 1 of degree d
    upper: float  # max |q| over [-1, 1] <= upper
    alpha: float
    measures: tuple[float, float]  # one per name in CONDITIONS, in their order
    failed: tuple[str, ...]  # the failing names among CONDITIONS, in their order

    @property
    def passed(self) -> bool:
        return not self.failed

    # perfbench's `construct` op reads the upper end by this name (ROADMAP item 5 deletes such names)
    @property
    def grid_max(self) -> float:
        return self.upper


@dataclass(frozen=True)
class LowerBoundReport:
    passed: bool
    max_weighted: float
    alpha: float
    gap: float


# the certificate's conditions, as `verify_equioscillation` lists them and reports the failing ones
CONDITIONS = ("upper", "S(1)")
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


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """t_i = sum_{j >= i} v_j for every i, each as Sum2 gives it: within u |t_i| to first order.

    One `np.cumsum` of v reversed adds in order, c_k = fl(c_{k-1} + v_k),
    so TwoSum (Knuth, TAOCP vol. 2, 4.2.2) gives each addition's exact
    error; a second `np.cumsum` of those errors is added back to each c_k
    with one rounding. That is Ogita, Rump and Oishi's Sum2 (SIAM J. Sci.
    Comput. 26, 2005) on every suffix: its error is at most
    u |t_i| + gamma_n^2 sum_{j >= i} |v_j|, u = 2^-53.
    """
    c = np.cumsum(v[::-1])
    a, b, s = c[:-1], v[-2::-1], c[1:]
    bb = s - a
    c[1:] += np.cumsum((a - (s - bb)) + (b - bb))
    return c[::-1]


def build_solution(d: int) -> ExtremalSolution:
    """Construct the degree-d minimax solution; it stores S alone.

    q(x) = -alpha T_N(L(x)), N = d + 1, is sampled at cheb_nodes(M),
    x = cos(theta), with M = `gridsearch.fft_length(N + 1)` (the FFT is
    fast at such lengths), in closed form: with a = pi/4N and
    beta = theta/2, L(x) = T_2(cos a cos beta), so q = -alpha cos(2N gamma)
    with gamma = arccos(cos a cos beta) in [beta, beta + a]. The phase is
    split as 2N gamma = 2N (gamma - beta) + N theta, where
    sin(gamma - beta) = cos beta sin^2 a / (sin gamma + cos a sin beta) and
    sin gamma = sqrt(sin^2 a + cos^2 a sin^2 beta) have no cancellation,
    2N (gamma - beta) <= pi/2, and N theta_j = pi N (2j + 1) / 2M is reduced
    mod 2 pi in integers. So |q| <= alpha at every sample and no term
    cancels. One transform gives q's coefficients c_0..c_N; those past N
    are rounding noise and are dropped. Undoing (1 - x) S = q
    (`_one_minus_x_times`) from the top down, with r_i = sum_{j >= i} c_j:
    S_k = -2 sum_{i > k} r_i for k >= 1, and S_0 = S_1 - S_2 / 2 - c_1.
    Both sums are compensated (`_suffix_sums`). Everything else the
    solution offers, q = (1 - x) S and the alternation points among it, is
    derived from S on each read, so `verify_equioscillation`, which decides
    the certificate from them, checks the polynomial that becomes the kernel.

    In exact arithmetic these steps give S(1) = sum S_k = -sum_k k^2 c_k,
    which is -q'(1) = 1 for the exact c. Raises ConstructionError unless
    the correctly rounded sum `math.fsum(S)` is 1 within
    tol = u (K alpha (64 sqrt(2) + 14 (1 + log2 M)) + 4 ||S||_1
    + (2N + 1) ||r||_1 + 1), u = 2^-53, K^2 = sum_{k <= N} k^4; then S is
    divided by that sum. The terms, to first order:
    - Samples. Counting the rounded operations, alpha's 6 u and the
      reduced phase's included, each sample is within 64 alpha u of q at its
      node. The transform's rows k >= 1 are orthogonal with norm
      sqrt(2/M), so the errors move c by at most 64 sqrt(2) alpha u in the
      2-norm, and S(1) by K times that (Cauchy-Schwarz against the k^2).
    - Transform. Its FFT moves c by at most 2 eta (1 + log2 M) ||v||_2 /
      sqrt(M) <= 2 eta (1 + log2 M) alpha in the 2-norm, v the samples, with
      eta = 7 u per stage (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., Thm 24.2; the extra stage covers the twiddle and
      scaling pass), and S(1) by K times that.
    - Division. Each suffix sum errs by u relative; summing over k what
      S_1..S_{N-1} inherit and S_0's two roundings gives
      u (4 ||S||_1 + (2N + 1) ||r||_1), and fsum adds u.
    At N = 4097 the bound is 1.4e-12; at N = 65 it is 1.2e-13, so samples
    moved by 1e-12 relative trip it there.
    """
    d = integer(d, "degree")
    if not 0 <= d <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}]")
    N = d + 1
    M = fft_length(N + 1)
    alpha = alpha_closed_form(d)
    a = math.pi / (4 * N)
    sin2a, cos_a = math.sin(a) ** 2, math.cos(a)
    odd = np.arange(1, 2 * M, 2)
    beta = odd * (math.pi / (4 * M))  # theta_j / 2 at cheb_nodes(M)
    cos_a_sin_b = cos_a * np.sin(beta)
    sin_gamma = np.sqrt(sin2a + cos_a_sin_b * cos_a_sin_b)
    gamma_minus_beta = np.arcsin(np.cos(beta) * sin2a / (sin_gamma + cos_a_sin_b))
    v = -alpha * np.cos(2 * N * gamma_minus_beta + (N * odd % (4 * M)) * (math.pi / (2 * M)))
    c = transform(v).coeffs[: N + 1]
    r = _suffix_sums(c[2:])  # r_i for i = 2..N
    S = np.zeros(N + 2)  # S_0..S_{N+1}, with S_N = S_{N+1} = 0
    S[1:N] = -2.0 * _suffix_sums(r)
    S[0] = S[1] - 0.5 * S[2] - c[1]
    S = S[:N]
    K = math.sqrt(N * (N + 1) * (2 * N + 1) * (3 * N * N + 3 * N - 1) // 30)  # K^2 = sum_{k <= N} k^4, in integers
    sizes = 4.0 * float(np.abs(S).sum()) + (2 * N + 1) * float(np.abs(r).sum())
    tol = 2.0**-53 * (K * alpha * (64.0 * math.sqrt(2.0) + 14.0 * (1.0 + math.log2(M))) + sizes + 1.0)
    at_one = math.fsum(memoryview(S))  # a memoryview yields Python floats, faster than a list or the array
    if not abs(at_one - 1.0) <= tol:
        raise ConstructionError(f"S(1) = {at_one!r} is not 1 within {tol:.3g}")
    return ExtremalSolution(ChebSeries(S / at_one))


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


def _lebesgue_bound(N: int) -> float:
    """An upper bound on the Lebesgue constant of the N + 1 points {1, y_1, ..., y_N} of a degree-(N - 1) solution.

    The Lagrange basis does not change under the affine map t = L(x), which
    takes the points to t_0 = cos(pi/2N) and t_i = cos(i pi/N), i = 1..N, and
    [-1, 1] onto [-1, t_0]. For i >= 1, l_i differs from the basis
    polynomial l_i^L of the Chebyshev-Lobatto points cos(i pi/N), i = 0..N,
    only in the factor for the first point:
    l_i(t) / l_i^L(t) = ((t_0 - t) / (1 - t)) ((1 - t_i) / (t_0 - t_i)), whose
    first factor lies in [0, 1] on [-1, t_0] and whose second is at most
    rho_N = 1 + (1 - t_0) / (t_0 - t_1). Since
    prod_{i >= 1} (t - t_i) = (t + 1) U_{N-1}(t) / 2^(N-1), with t = cos(phi),
    |l_0| = cot(phi/2) |sin(N phi)| / cot(pi/4N) <= 1. The Lobatto Lebesgue
    constant is at most (2/pi) ln(N + 1) + 1 (Trefethen, Approximation
    Theory and Approximation Practice, Thm 15.2), so the bound is
    rho_N ((2/pi) ln(N + 1) + 1) + 1: 4.8, 7.1 and 8.2 at N = 17, 257 and 1025.
    """
    t0 = math.cos(math.pi / (2 * N))
    rho = 1.0 + (1.0 - t0) / (t0 - math.cos(math.pi / N))
    return rho * (2.0 / math.pi * math.log(N + 1) + 1.0) + 1.0


def verify_equioscillation(sol: ExtremalSolution, tol: float) -> EquioscillationReport:
    """Decide the certificate of sol: an enclosure lower <= alpha* <= upper, from q = (1 - x) S.

    Failures are reported, not raised. Each of the two conditions in
    `CONDITIONS` has one measure, and it holds iff its measure is at most
    tol (a nan measure fails). With c the coefficients of sol.q and alpha
    from `alpha_closed_form`:
    - upper: upper / alpha - 1, with max |q| <= upper on [-1, 1];
    - S(1): |S(1) - 1|, with S(1) the sum of sol.S's coefficients; absolute.
    The report carries the residuals |q(y_i) + alpha (-1)^i| at sol's
    alternation points y_i, both ends, the two measures and the failing
    names, both in `CONDITIONS` order; it passes iff none fails. A sol that
    is not an ExtremalSolution raises ValueError.

    The enclosure. Let q_e = -alpha T_N(L(x)) be the exact product, N = d + 1:
    |q_e| <= alpha on [-1, 1], q_e(y_i) = -alpha (-1)^i and q_e(1) = 0. The
    difference q - q_e has degree at most N, so it is the interpolant of its
    values at the N + 1 points {1, y_1, ..., y_N}: the residuals and q(1),
    taken as `math.fsum` of c, correctly rounded. With Lambda =
    `_lebesgue_bound(N)`,
    upper = alpha + Lambda (max(largest residual, |q(1)|) + E).
    And q alternates in sign at the d + 1 points y_i in [-1, 1) with
    |q(y_i)| >= alpha - (largest residual + E). The q = (1 - x) p with
    p(1) = 1 differ from each other by (1 - x)^2 times a polynomial of
    degree d - 1, a Haar space of dimension d on [-1, 1), so by de la Vallee
    Poussin (Trefethen, Approximation Theory and Approximation Practice,
    ch. 10) no p of degree d with p(1) = 1 has max |(1 - x) p| below
    lower = alpha - (largest residual + E), given S(1) = 1. Lambda >=
    max(1, alpha) (at d = 0, alpha = 2 and Lambda = 3.88), so
    alpha - lower <= upper - alpha and upper / alpha - 1 >= largest
    residual / min(1, alpha): "upper" alone holds both ends within tol alpha
    of alpha, and every residual within tol min(1, alpha). Both ends are of
    q as sol.q forms it from S; the rounding of forming it is in neither.

    q(y_i) = sum_k c_k cos(k theta_i), theta_i = arccos(y_i), comes from
    `_cosine_sum_at`: a Taylor model in the offset from the nearest node of a
    grid of L = `gridsearch.fft_length` of 2 (N + 1) points, J = 22 terms
    in an upward sum from one running row, whose blocks of at most 2^14
    outputs each go through one rfft. Its error is at most
    E = e^(pi/2) u ((1 + 5 J) ||c||_1 + 7 (1 + log2 L) sqrt(L) ||c||_2)
    with u = 2^-53, ||c||_1 about 2 alpha and ||c||_2 about alpha: 5.0e-12
    alpha at N = 4097, where it is within 1.4e-15 alpha of a longdouble sum.
    Rounding in the points theta_i moves each value only at second order,
    since q_e is extremal there.
    """
    if not isinstance(sol, ExtremalSolution):
        raise ValueError("sol must be an ExtremalSolution")
    tol = real(tol, "tolerance")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    N = sol.degree + 1
    alpha = sol.alpha
    c = sol.q.coeffs
    theta = np.arccos(sol.alternation_points)
    signs = np.ones(N)
    signs[::2] = -1.0  # (-1)^i for i = 1..N
    residuals = np.abs(_cosine_sum_at(c, theta) + alpha * signs)
    worst = float(np.max(residuals))
    L = fft_length(2 * c.size)
    l1, l2 = float(np.abs(c).sum()), float(np.linalg.norm(c))
    # E, `_cosine_sum_at`'s error bound
    error = math.exp(math.pi / 2) * 2.0**-53 * ((1 + 5 * _TAYLOR_TERMS) * l1 + 7 * (1 + math.log2(L)) * L**0.5 * l2)
    upper = alpha + _lebesgue_bound(N) * (max(worst, abs(math.fsum(memoryview(c)))) + error)
    lower = alpha - (worst + error)
    measures = (upper / alpha - 1.0, abs(float(np.sum(sol.S.coeffs)) - 1.0))
    failed = tuple(name for name, value in zip(CONDITIONS, measures) if not value <= tol)
    return EquioscillationReport(residuals, lower, upper, alpha, measures, failed)


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
    past the largest double raises ValueError, and so does a p that is not a ChebSeries.
    """
    if not isinstance(p, ChebSeries):
        raise ValueError("p must be a ChebSeries")

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
    one past the largest double raises ValueError, and so does a p that is not a ChebSeries.
    """
    if not isinstance(p, ChebSeries):
        raise ValueError("p must be a ChebSeries")
    if p.degree > integer(d, "degree"):
        raise ValueError("challenger degree exceeds the stated bound")
    if abs(float(np.sum(p.coeffs)) - 1.0) > 1e-9:
        raise ValueError("challenger must satisfy p(1) = 1")
    m, _ = weighted_max(p)
    alpha = alpha_closed_form(d)
    return LowerBoundReport(m >= alpha * (1.0 - 1e-9), m, alpha, m - alpha)
