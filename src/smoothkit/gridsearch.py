"""Deterministic maximization of smooth 1-D functions: dense grid, then batched Newton."""

from __future__ import annotations

import numpy as np

__all__ = [
    "fft_length",
    "maximize",
    "polish",
    "refine_grid_max",
    "resolve_ties",
    "sample_count",
    "select_peaks",
]

_MAX_STEPS = 100
_BAND = 1.0 - np.pi**2 / 512  # sampled peak over true peak on a `sample_count` grid, at worst
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
    |P| >= R >= M (1 - D^2 h^2 / 8) >= (1 - pi^2 / 512) M > 0.98 M.

    That factor is `select_peaks`' band. The true peak samples at least that
    factor times M, hence times the best sample, so its bracket is kept; a
    peak sampled below that line cannot hold the maximum. Only past the
    band's cap of 12 peaks can the highest be left out. The same holds on
    any denser grid.

    The same count serves a bounded entire function of exponential type
    sigma sampled on [0, pi], with D >= sigma: Bernstein's inequality holds
    for such functions with the bound sup |f| over the real line (Boas,
    Entire Functions, 1954, ch. 11), so the argument above goes through
    with that sup as M. `asymptotics.compute_mu` uses this for
    f(a) = sin(a)/a - cos(a) on [0, 16]: f is entire of type 1 and even,
    and |f(a)| <= sqrt(1 + 1/a^2) < 1 + 1/16 <= mu for |a| >= 16 (the
    `mu_constants` check asserts the last inequality), so its sup over the
    real line is mu, its maximum on [0, 16]. In theta = pi a / 16 it has
    type 16 / pi <= 6, which gives D = 6.
    """
    return 8 * degree + 33


def fft_length(n: int) -> int:
    """Smallest even 5-smooth integer (2^a 3^b 5^c, a >= 1) that is >= n.

    numpy's FFT is fast on such lengths; a length with a large prime factor
    falls back to Bluestein's algorithm, slower and with a larger transient
    allocation.
    """
    best = 2
    while best < n:
        best *= 2
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            m = 2 * odd
            while m < n:
                m *= 2
            best = min(best, m)
            odd *= 3
        odd5 *= 5
    return best


def polish(derivs, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Batched safeguarded Newton maximization; returns (values, t) per bracket.

    Each bracket [lo, hi] holds the start t = 0 of a local coordinate.
    `derivs(live, t)` gets the indices of the moving brackets and their points
    and returns the values, slopes and curvatures of the function Newton runs
    on; slope and curvature may share one positive factor per point. A
    bracket shrinks to t on the sign of the slope and takes the Newton step
    t - slope / curv where curv < 0 and the step stays inside, else bisects.
    It stops once a step is <= 1e-12 (after at most 100 steps), or at once
    where the slope is exactly 0 and the Newton step is not finite (curv 0
    too): there is no direction to move in, and bisecting would walk off a
    flat maximum. A zero slope with a finite step still bisects where
    curv >= 0.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    t = np.zeros(lo.size)
    values = np.empty(lo.size)
    live = np.arange(lo.size)
    for step in range(_MAX_STEPS):
        tl = t[live]
        values[live], slope, curv = derivs(live, tl)
        lo[live] = np.where(slope > 0, tl, lo[live])
        hi[live] = np.where(slope < 0, tl, hi[live])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = tl - slope / curv
        ok = (curv < 0) & (newton >= lo[live]) & (newton <= hi[live])
        nxt = np.where(ok, newton, 0.5 * (lo[live] + hi[live]))
        moving = (np.abs(nxt - tl) > 1e-12) & ((slope != 0) | np.isfinite(newton))
        live = live[moving]
        if live.size == 0 or step == _MAX_STEPS - 1:
            break
        t[live] = nxt[moving]
    return values, t


def select_peaks(samples) -> np.ndarray:
    """Indices of the sampled local maxima worth polishing, best first.

    Every local maximum of the samples (endpoints included) defines a
    bracket. The best is kept, plus every peak sampled at least
    1 - pi^2 / 512 times the best, at most 12 in rank order: symbols with
    many exactly tied peaks need only one of them. Equal samples rank by
    index. `sample_count` says why the true peak is kept.
    """
    fs = np.asarray(samples, dtype=float)
    padded = np.concatenate(([-np.inf], fs, [-np.inf]))
    peaks = np.nonzero((fs >= padded[:-2]) & (fs >= padded[2:]))[0]
    order = peaks[np.lexsort((peaks, -fs[peaks]))]
    rank = np.arange(order.size)
    keep = (rank < 12) & ((rank == 0) | (fs[order] >= _BAND * fs[order[:1]]))
    return order[keep]


def resolve_ties(values, args) -> tuple[float, float]:
    """Largest value, at the smallest argument among values tied with it.

    Values within 1e-12 relative of the largest count as tied, so the
    reported argument does not depend on roundoff in the polished values.
    A non-finite largest value (from any nan or inf) comes back at inf.
    """
    best_val = float(np.max(values))
    tied = np.asarray(values) >= best_val - 1e-12 * abs(best_val)
    return best_val, float(np.min(np.asarray(args, dtype=float)[tied], initial=np.inf))


def maximize(grid, samples, derivs_at) -> tuple[float, float]:
    """Global maximum from samples on a `sample_count` grid or a denser one; returns (value, argmax).

    `select_peaks` picks nodes bracketed by their neighbours (one-sided at
    the grid ends), `polish` runs all brackets on the `derivs` returned by
    `derivs_at(nodes, lo, hi)` (lo, hi relative to the nodes) and `resolve_ties` picks the result.
    """
    xs = np.asarray(grid, dtype=float)
    nodes = select_peaks(samples)
    lo = xs[np.maximum(nodes - 1, 0)] - xs[nodes]
    hi = xs[np.minimum(nodes + 1, xs.size - 1)] - xs[nodes]
    values, t = polish(derivs_at(nodes, lo, hi), lo, hi)
    return resolve_ties(values, xs[nodes] + t)


def refine_grid_max(fn, grid) -> tuple[float, float]:
    """Global maximum of a value-only, vectorized fn by `maximize` over the grid; returns (value, argmax).

    A three-point central stencil with spacing d gives slope and curvature,
    both times d^2: one fn call per step, at most one spacing outside the
    grid. Newton steps below 1e-3 d, where stencil rounding takes over, count
    as converged: the slope is set to 0 there.
    """
    xs = np.asarray(grid, dtype=float)

    def stencil(nodes, lo, hi, live, t):
        d = _SPACING * (hi[live] - lo[live])
        x = xs[nodes[live]] + t
        f_lo, f_mid, f_hi = np.reshape(fn(np.concatenate([x - d, x, x + d])), (3, -1))
        slope, curv = 0.5 * d * (f_hi - f_lo), f_hi - 2.0 * f_mid + f_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            converged = (curv < 0) & (np.abs(slope / curv) < 1e-3 * d)
        return f_mid, np.where(converged, 0.0, slope), curv

    return maximize(xs, fn(xs), lambda nodes, lo, hi: lambda live, t: stencil(nodes, lo, hi, live, t))
