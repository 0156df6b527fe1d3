"""Chebyshev-basis machinery: evaluation, nodes, discrete transform.

Series are evaluated by Clenshaw's recurrence and interpolated by a DCT-II
built on numpy's FFT, up to the supported degree (4096).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebSeries",
    "cheb_nodes",
    "clenshaw_eval",
    "transform",
]

# Arguments may exceed [-1, 1] by this much (roundoff from upstream cos calls)
# before they are rejected instead of clamped.
CLAMP_BAND = 1e-12

MAX_DEGREE = 4096


def integer(value, name: str) -> int:
    """A size or order as an int, by `operator.index`; anything else, 2.0 too, raises ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _floats(values) -> np.ndarray | None:
    """values as a float64 array, float64 input as it is; None unless every value is a real number.

    Real numbers are numpy's bool, integer and floating dtypes and, in an
    object array, instances of `numbers.Real`. The dtype is checked before
    any cast, since numpy casts a complex array to its real part with only
    a warning and an object array's None to nan.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype == object and all(isinstance(v, numbers.Real) for v in arr.flat):
            arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError):  # ragged nesting; an int past the largest double
        return None
    if arr.dtype.kind not in "biuf":
        return None
    if arr.dtype != float:
        with np.errstate(over="ignore"):  # a longdouble past the largest double is inf
            arr = arr.astype(float)
    return arr


def real(value, name: str) -> float:
    """One real number as a float; anything else, complex 1 + 0j too, raises ValueError naming it."""
    arr = _floats(value)
    if arr is None or arr.ndim:
        raise ValueError(f"{name} must be a real number")
    return float(arr)


def reals(values, name: str) -> np.ndarray:
    """Real numbers of any shape as a float64 array, float64 input uncopied; else ValueError naming them."""
    arr = _floats(values)
    if arr is None:
        raise ValueError(f"{name} must be real numbers")
    return arr


def finite_vector(values, name: str, size_error: str, size: int | None = None) -> np.ndarray:
    """reals(values, name) as a 1-D array, a scalar as one value.

    Then, in this order: a shape that is not 1-D, no values, or a count
    other than size (if given) raises ValueError(size_error), and a nan or
    infinite value raises ValueError("<name> must be finite").
    """
    v = np.atleast_1d(reals(values, name))
    if v.ndim != 1 or v.size == 0 or (size is not None and v.size != size):
        raise ValueError(size_error)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True, eq=False)
class ChebSeries:
    """Polynomial sum(c_k * T_k(x)) stored by its coefficients c_0..c_d."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = finite_vector(
            self.coeffs, "ChebSeries coefficients", "ChebSeries needs a non-empty 1-D coefficient list"
        )
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _domain(x) -> np.ndarray:
    arr = reals(x, "x")
    # phrased so that nan fails too
    if not np.all(np.abs(arr) <= 1.0 + CLAMP_BAND):
        raise ValueError("evaluation point outside [-1, 1] beyond the clamp band")
    return np.clip(arr, -1.0, 1.0)


def cheb_nodes(M: int) -> np.ndarray:
    """Gauss-Chebyshev points cos(pi (j + 1/2) / M), decreasing, none equal +-1."""
    M = integer(M, "node count")
    if M < 1:
        raise ValueError("node count must be at least 1")
    return np.cos(np.pi * (np.arange(M) + 0.5) / M)


def clenshaw_eval(s: ChebSeries, x):
    """Evaluate the series at x by Clenshaw's recurrence; a scalar x gives a float.

    A value past the largest double raises ValueError.
    """
    c = s.coeffs
    arr = _domain(x)
    t2 = 2.0 * arr
    b1 = np.zeros_like(arr)
    b2 = np.zeros_like(arr)
    nxt = np.empty_like(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        # in-place update, same evaluation order as (t2 * b1 - b2) + ck
        for ck in c[:0:-1]:
            np.multiply(t2, b1, out=nxt)
            np.subtract(nxt, b2, out=nxt)
            np.add(nxt, ck, out=nxt)
            b1, b2, nxt = nxt, b1, b2
        out = arr * b1 - b2 + c[0]
    if not np.isfinite(out).all():
        raise ValueError("Clenshaw evaluation of this series overflows double precision")
    return float(out) if np.ndim(x) == 0 else out


def transform(values) -> ChebSeries:
    """Interpolate samples taken at cheb_nodes(len(values)) into a ChebSeries.

    The type-II DCT computes exactly the discrete orthogonality sums
    c_0 = mean(v) and c_k = (2/M) sum_j v_j T_k(x_j), so a polynomial of
    degree <= M-1 sampled at the M nodes is recovered to roundoff. It is one
    complex FFT of the even-indexed samples followed by the odd-indexed ones
    reversed: c_k = (2/M) Re(exp(-i pi k / 2M) V_k) (Makhoul, IEEE TASSP 1980).
    Samples so large that this overflows raise ValueError.
    """
    v = finite_vector(values, "samples", "transform needs a non-empty 1-D sample vector")
    M = v.size
    try:
        with np.errstate(over="raise"):
            V = np.fft.fft(np.concatenate([v[::2], v[1::2][::-1]]))
            c = (np.exp(-0.5j * np.pi / M * np.arange(M)) * V).real * (2.0 / M)
    except FloatingPointError:
        raise ValueError("samples overflow the transform's FFT") from None
    c[0] *= 0.5
    return ChebSeries(c)


# not exported; perfbench's traced mode looks the name up and never calls it (ROADMAP item 5 deletes it)
def deflate_at_one(q: ChebSeries) -> ChebSeries:
    """Removed: `extremal.build_solution` samples S = q / (1 - x) in closed form."""
    raise NotImplementedError("deflate_at_one is removed; only its name is kept")
