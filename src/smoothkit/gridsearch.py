"""Deterministic maximization of smooth 1-D functions: dense grid, then golden section."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["golden_max", "refine_grid_max", "resolve_ties", "select_peaks"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo: float, hi: float, xtol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization of fn on [lo, hi]; returns (value, argmax)."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(fn(c))
    fd = float(fn(d))
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(fn(d))
    x = 0.5 * (a + b)
    return float(fn(x)), x


def select_peaks(samples, top: int = 3) -> np.ndarray:
    """Indices of the sampled local maxima worth polishing, best first.

    Every local maximum of the samples (endpoints included) defines a
    bracket. The `top` best, plus any sampled within 5% of the best, are
    kept, capped at 12 in total: symbols with many exactly tied peaks need
    only one of them. Equal samples rank by index.
    """
    fs = np.asarray(samples, dtype=float)
    n = fs.size
    if n < 2:
        return np.arange(n)
    peaks = np.nonzero((fs[1:-1] >= fs[:-2]) & (fs[1:-1] >= fs[2:]))[0] + 1
    if fs[0] >= fs[1]:
        peaks = np.insert(peaks, 0, 0)
    if fs[n - 1] >= fs[n - 2]:
        peaks = np.append(peaks, n - 1)
    order = peaks[np.lexsort((peaks, -fs[peaks]))]
    rank = np.arange(order.size)
    keep = (rank < top) | ((rank < 12) & (fs[order] >= 0.95 * fs[order[0]]))
    return order[keep]


def resolve_ties(values, args) -> tuple[float, float]:
    """Largest value, at the smallest argument among values tied with it.

    Values within 1e-12 relative of the largest count as tied, so the
    reported argument does not depend on roundoff in the polished values.
    """
    best_val = float(np.max(values))
    tie_band = 1e-12 * abs(best_val)
    args = np.asarray(args, dtype=float)
    return best_val, float(np.min(args[np.asarray(values) >= best_val - tie_band]))


def refine_grid_max(fn, grid, xtol: float = 1e-12, top: int = 3) -> tuple[float, float]:
    """Global maximum of fn over the span of a dense grid; returns (value, argmax).

    The brackets of `select_peaks` around the best grid samples are
    polished by golden section; `resolve_ties` picks the result, keeping it
    deterministic for a fixed grid.
    """
    xs = np.asarray(grid, dtype=float)
    fs = np.asarray(fn(xs), dtype=float)
    n = xs.size
    if n < 2:
        return float(fs[0]), float(xs[0])
    results = [
        golden_max(fn, xs[max(i - 1, 0)], xs[min(i + 1, n - 1)], xtol)
        for i in select_peaks(fs, top)
    ]
    return resolve_ties([v for v, _ in results], [x for _, x in results])
