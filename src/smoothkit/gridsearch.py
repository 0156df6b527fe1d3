"""Deterministic maximization of smooth 1-D functions: dense grid, then batched Newton."""

from __future__ import annotations

import numpy as np

__all__ = ["polish", "refine_grid_max", "resolve_ties", "sample_count", "select_peaks"]

_MAX_STEPS = 100
_TOP = 3  # brackets always polished, best first
# central-difference spacing over bracket width; much smaller spacings turn the
# ~1e-9 relative rounding of 1 - cos(theta) near theta ~ 1/n into slope noise
_SPACING = 2.5e-3


def sample_count(degree: int) -> int:
    """Equally spaced samples on [0, pi] that bracket the maximum of a degree-D cosine polynomial.

    The count is 8 D + 33, a spacing h = pi / (8 D + 32). Every maximum
    sampled here is of |P| for a trigonometric polynomial P of degree at most
    D (the symbol on the torus; |(1 - cos theta) p(cos theta)| for the
    polynomial form). Where |P| peaks at M, the real part of P turned to
    phase 0 there is a real polynomial R <= M of degree D with its maximum M
    at the peak, so R' = 0 there and |R''| <= D^2 M (Bernstein's inequality,
    twice). The nearest node lies within h / 2 of the peak, where
    |P| >= R >= M (1 - D^2 h^2 / 8) >= (1 - pi^2 / 512) M > 0.98 M. That is
    inside `select_peaks`' 5% band, so the true peak's bracket is kept unless
    more than 12 sampled peaks lie in that band (its cap). Past the cap, the
    peaks ranked by samples that are up to 2% low may leave the highest out.
    """
    return 8 * degree + 33


def polish(derivs, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Batched safeguarded Newton maximization; returns (values, t) per bracket.

    Each bracket [lo, hi] holds the start t = 0 of a local coordinate.
    `derivs(live, t)` gets the indices of the moving brackets and their points
    and returns the values, the slopes (only their sign is used) and the Newton
    steps, nan where the curvature is >= 0. A bracket shrinks to t on the sign
    of the slope, takes the Newton step if it stays inside, else bisects, and
    stops once a step is <= 1e-12 (after at most 100 steps).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    t = np.zeros(lo.size)
    values = np.empty(lo.size)
    live = np.arange(lo.size)
    for step in range(_MAX_STEPS):
        tl = t[live]
        values[live], slope, newton_step = derivs(live, tl)
        lo[live] = np.where(slope > 0, tl, lo[live])
        hi[live] = np.where(slope < 0, tl, hi[live])
        newton = tl + newton_step
        ok = (newton >= lo[live]) & (newton <= hi[live])
        nxt = np.where(ok, newton, 0.5 * (lo[live] + hi[live]))
        moving = np.abs(nxt - tl) > 1e-12
        live = live[moving]
        if live.size == 0 or step == _MAX_STEPS - 1:
            break
        t[live] = nxt[moving]
    return values, t


def select_peaks(samples) -> np.ndarray:
    """Indices of the sampled local maxima worth polishing, best first.

    Every local maximum of the samples (endpoints included) defines a
    bracket. The `_TOP` best, plus any sampled within 5% of the best, are
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
    keep = (rank < _TOP) | ((rank < 12) & (fs[order] >= 0.95 * fs[order[0]]))
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


def refine_grid_max(fn, grid) -> tuple[float, float]:
    """Global maximum of fn over the span of a dense grid; returns (value, argmax).

    fn is value-only and vectorized. The brackets of `select_peaks` (one grid
    step either side of the best samples) go through `polish` together, with
    slope and curvature from a three-point central stencil: one fn call per
    step, at most one spacing outside the grid's span. Newton steps below
    1e-3 of the spacing, where stencil rounding takes over, count as
    converged. `resolve_ties` picks the result, deterministic for a fixed grid.
    """
    xs = np.asarray(grid, dtype=float)
    nodes = select_peaks(np.asarray(fn(xs), dtype=float))
    centers = xs[nodes]
    lo = xs[np.maximum(nodes - 1, 0)] - centers
    hi = xs[np.minimum(nodes + 1, xs.size - 1)] - centers

    def stencil(live, t):
        d = _SPACING * (hi[live] - lo[live])
        x = centers[live] + t
        f_lo, f_mid, f_hi = np.reshape(fn(np.concatenate([x - d, x, x + d])), (3, -1))
        curv = f_hi - 2.0 * f_mid + f_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(curv < 0, 0.5 * d * (f_lo - f_hi) / curv, np.nan)
        return f_mid, f_hi - f_lo, np.where(np.abs(step) < 1e-3 * d, 0.0, step)

    values, t = polish(stencil, lo, hi)
    return resolve_ties(values, centers + t)
