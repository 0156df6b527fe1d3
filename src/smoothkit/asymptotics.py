"""Large-half-width behavior of the parabolic kernel and the constant mu behind it.

mu is the maximum of |sin(a)/a - cos(a)| over [0, 16]. Scaled second-
difference symbols of the parabolic (Epanechnikov) kernel converge
uniformly to that function, so the kernel's sharp constant approaches
3 mu / pi times the optimal one. Every quantity here has two evaluation
paths, a Chebyshev series and a closed trigonometric form, and the tests
compare them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import ChebSeries, clenshaw_eval, integer, reals
from .gridsearch import maximize, sample_count
from .kernels import epanechnikov_kernel
from .multiplier import operator_norm

__all__ = [
    "MuResult",
    "sinc_cos_gap",
    "compute_mu",
    "epanechnikov_series",
    "verify_identity",
    "beat_bound_check",
    "scaled_symbol",
    "epanechnikov_ratio",
]


@dataclass(frozen=True)
class MuResult:
    mu: float
    alpha_star: float
    three_mu_over_pi: float


def sinc_cos_gap(alpha):
    """|sin(a)/a - cos(a)| with the limit value 0 at a = 0."""
    a = reals(alpha, "alpha")
    if not np.all(np.isfinite(a)):
        raise ValueError("alpha must be finite")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(a == 0.0, 1.0, np.sin(a) / np.where(a == 0.0, 1.0, a))
    out = np.abs(ratio - np.cos(a))
    return float(out) if np.ndim(alpha) == 0 else out


def compute_mu() -> MuResult:
    """Maximize sinc_cos_gap over [0, 16] on a `gridsearch.sample_count(6)` grid.

    With theta = pi a / 16, f(a) = sin(a)/a - cos(a) has exponential type
    16 / pi <= 6 in theta, so `sample_count(ceil(16 / pi))` = 81 equally
    spaced points bracket its maximum (the `sample_count` docstring says
    why). `gridsearch.maximize` picks the peaks, brackets and ties (to the
    smallest alpha) and polishes by Newton on g = f^2 / 2; this function
    supplies |f| and the slope and curvature of g from the closed forms

        f'  = cos a / a - sin a / a^2 + sin a
        f'' = -sin a / a - 2 cos a / a^2 + 2 sin a / a^3 + cos a,

    g' = f f' and g'' = f'^2 + f f''. They are singular at a = 0, which the
    polish never reaches: f rises strictly from f(0) = 0 to its first
    maximum near 2.74, so no node below 2.6 is a sampled peak, and each
    bracket, one grid step (0.2) either side of a kept node, stays in
    [2.4, 16]. The argmax is located each time, never hard-coded.
    """
    grid = np.linspace(0.0, 16.0, sample_count(math.ceil(16.0 / math.pi)))

    def derivs(nodes, live, t):
        f, f1, f2 = _gap_derivs(grid[nodes[live]] + t)
        return np.abs(f), f * f1, f1 * f1 + f * f2

    mu, alpha_star = maximize(
        grid, sinc_cos_gap(grid), lambda nodes, lo, hi: lambda live, t: derivs(nodes, live, t)
    )
    return MuResult(mu, alpha_star, 3.0 * mu / math.pi)


def _gap_derivs(a):
    """sin(a)/a - cos(a) and its first two derivatives at a != 0, by the closed forms."""
    s, c = np.sin(a), np.cos(a)
    return s / a - c, c / a - s / a**2 + s, -s / a - 2.0 * c / a**2 + 2.0 * s / a**3 + c


def epanechnikov_series(n: int) -> ChebSeries:
    """Integer-coefficient series n^2 + sum_{k<n} 2 (n^2 - k^2) T_k.

    Rescaling by 3 / (n (4n^2 - 1)) gives exactly the cosine-series
    polynomial of the half-width-n Epanechnikov kernel.
    """
    n = integer(n, "half width")
    if n < 1:
        raise ValueError("half width must be at least 1")
    k = np.arange(1, n)
    return ChebSeries(np.concatenate(([float(n * n)], 2.0 * (n * n - k * k))))


def verify_identity(n: int, x):
    """Residual of the closed difference form of the weighted parabolic series.

    Compares (1-x) times the series against
    (T_n(x) - T_{n-1}(x)) / (x - 1) + (1 - 2n) T_n(x), with the quotient
    evaluated trigonometrically as sin((2n-1) theta/2) / sin(theta/2) so the
    x -> 1 singularity never enters. x = 1 itself is rejected.
    """
    n = integer(n, "half width")
    if n < 1:
        raise ValueError("half width must be at least 1")
    arr = reals(x, "x")
    if np.any(arr >= 1.0):
        raise ValueError("x must be strictly below 1")
    if not np.all(arr >= -1.0):
        raise ValueError("x must lie in [-1, 1)")
    theta = np.arccos(arr)
    lhs = (1.0 - arr) * clenshaw_eval(epanechnikov_series(n), arr)
    quotient = np.sin((2 * n - 1) * theta / 2.0) / np.sin(theta / 2.0)
    rhs = quotient + (1.0 - 2.0 * n) * np.cos(n * theta)
    out = np.abs(lhs - rhs)
    return float(out) if np.ndim(x) == 0 else out


def beat_bound_check(n: int, x) -> bool:
    """Check |T_n(x) - T_{n-1}(x)| / (1 - x) <= sqrt(2) / sqrt(1 - x) + 1e-10.

    The difference of adjacent orders is the beat product
    -2 sin((2n-1) theta/2) sin(theta/2), which is how it is evaluated here.
    Equality holds at x = -1.
    """
    n = integer(n, "order")
    if n < 1:
        raise ValueError("order must be at least 1")
    arr = reals(x, "x")
    if not np.all((arr >= -1.0) & (arr < 1.0)):
        raise ValueError("x must lie in [-1, 1)")
    theta = np.arccos(arr)
    beat = 2.0 * np.abs(np.sin((2 * n - 1) * theta / 2.0) * np.sin(theta / 2.0))
    lhs = beat / (1.0 - arr)
    rhs = math.sqrt(2.0) / np.sqrt(1.0 - arr) + 1e-10
    return bool(np.all(lhs <= rhs))


def scaled_symbol(n: int, alpha):
    """(1/2n) (1 - cos(a/n)) times the parabolic series at cos(a/n), closed form.

    Evaluated as (1/n) sin((2n-1) a / 2n) / (2 sin(a / 2n)) minus
    ((2n-1)/2n) cos(a); at a = 0 both halves cancel to the limit value 0.
    Converges uniformly on [0, 16] to sin(a)/a - cos(a).
    """
    n = integer(n, "half width")
    if n < 1:
        raise ValueError("half width must be at least 1")
    a = reals(alpha, "alpha")
    if not np.all(np.isfinite(a)):
        raise ValueError("alpha must be finite")
    c = (2.0 * n - 1.0) / (2.0 * n)
    small = np.abs(a) < 1e-12
    safe = np.where(small, 1.0, a)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(
            small, c, np.sin(c * safe) / (2.0 * n * np.sin(safe / (2.0 * n)))
        )
    out = ratio - c * np.cos(a)
    return float(out) if np.ndim(alpha) == 0 else out


def epanechnikov_ratio(n: int) -> float:
    """Sharp constant of the half-width-n Epanechnikov kernel, scaled by n^2 / pi."""
    n = integer(n, "half width")
    if n < 2:
        raise ValueError("ratio needs half width >= 2")
    return operator_norm(epanechnikov_kernel(n), 2).value * n * n / math.pi
