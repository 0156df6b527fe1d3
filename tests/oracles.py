"""Trigonometric reference forms that the tests check the library against.

Each is a direct closed form, independent of the library's Clenshaw
recurrence and DCT, so agreement between the two is evidence for both.
The module also draws the random challengers of the lower-bound tests.
"""

from __future__ import annotations

import math

import numpy as np

from smoothkit import suites
from smoothkit.chebyshev import CLAMP_BAND, ChebSeries


def _domain(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + CLAMP_BAND):
        raise ValueError("evaluation point outside [-1, 1] beyond the clamp band")
    return np.clip(arr, -1.0, 1.0)


def eval_T(k: int, x):
    """First-kind value T_k(x) = cos(k * arccos(x))."""
    if k < 0:
        raise ValueError("order k must be nonnegative")
    out = np.cos(k * np.arccos(_domain(x)))
    return float(out) if np.ndim(x) == 0 else out


def eval_U(k: int, x):
    """Second-kind value U_k(x) = sin((k+1) theta) / sin(theta) at x = cos(theta).

    Close to x = +-1 the quotient degenerates; there the limit value
    (+-1)^k * (k+1) is returned instead.
    """
    if k < 0:
        raise ValueError("order k must be nonnegative")
    arr = _domain(x)
    theta = np.arccos(arr)
    s = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sin((k + 1) * theta) / s
    out = np.where(s < 1e-8, np.sign(arr) ** k * (k + 1.0), vals)
    return float(out) if np.ndim(x) == 0 else out


def stretch_map(d: int, x):
    """Affine map L with L(-1) = -1 and L(1) = cos(pi/(2(d+1))), the first T_{d+1} zero."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    scale = 0.5 * (1.0 + math.cos(math.pi / (2 * (d + 1))))
    out = scale * (np.asarray(x, dtype=float) + 1.0) - 1.0
    return float(out) if np.ndim(x) == 0 else out


def random_unit_at_one(rng, d: int) -> ChebSeries:
    """A random degree-d challenger p with p(1) = 1: normal coefficients over their sum, redrawn while |sum| <= 0.05."""
    return ChebSeries(suites._draw(rng, d + 1, 0.05, np.sum))
