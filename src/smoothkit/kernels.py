"""Discrete averaging kernels: named families, symmetrization, polynomial form, CSV I/O.

A kernel is a finitely supported weight function on {-n, ..., n} whose
weights sum to 1, so convolving with it is a local average. Symmetric
kernels are stored in half-width form (w_0..w_n), which makes the evenness
a property of the type rather than of the data.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .chebyshev import MAX_DEGREE, ChebSeries, finite_vector, integer
from .extremal import build_solution

__all__ = [
    "SymmetricKernel",
    "GeneralKernel",
    "constant_kernel",
    "triangle_kernel",
    "epanechnikov_kernel",
    "optimal_kernel",
    "symmetrize",
    "to_polynomial",
    "full_weights",
    "write_kernel_csv",
    "read_kernel_csv",
]


@dataclass(frozen=True, eq=False)
class SymmetricKernel:
    """Even weights w_0..w_n with u(k) = u(-k) = w_|k| and total mass 1."""

    half_width: int
    weights: np.ndarray

    def __post_init__(self):
        mass = lambda w: w[0] + 2.0 * float(w[1:].sum())
        _store_weights(self, 1, "symmetric kernel needs half_width + 1 weights", mass)


@dataclass(frozen=True, eq=False)
class GeneralKernel:
    """Weights w_{-n}..w_n (not necessarily even) with total mass 1."""

    half_width: int
    weights: np.ndarray

    def __post_init__(self):
        mass = lambda w: float(w.sum())
        _store_weights(self, 2, "general kernel needs 2 * half_width + 1 weights", mass)


def _store_weights(kernel, sides: int, size_error: str, mass) -> None:
    """Set kernel.half_width to an int n and kernel.weights to its weights as floats.

    There must be sides n + 1 weights in one dimension, all real and finite,
    with mass(w) equal to 1; a half width that is not an integer raises
    ValueError.
    """
    n = integer(kernel.half_width, "half width")
    w = finite_vector(kernel.weights, "kernel weights", size_error, sides * n + 1)
    if abs(mass(w) - 1.0) > 1e-9:
        raise ValueError("kernel weights must sum to 1")
    object.__setattr__(kernel, "half_width", n)
    object.__setattr__(kernel, "weights", w)


def constant_kernel(n: int) -> SymmetricKernel:
    """Flat moving-average weights u(k) = 1/(2n+1)."""
    n = integer(n, "half width")
    if n < 0:
        raise ValueError("half width must be nonnegative")
    return SymmetricKernel(n, np.full(n + 1, 1.0 / (2 * n + 1)))


def triangle_kernel(n: int) -> SymmetricKernel:
    """Triangle weights u(k) = (n + 1 - |k|) / (n + 1)^2."""
    n = integer(n, "half width")
    if n < 0:
        raise ValueError("half width must be nonnegative")
    k = np.arange(n + 1)
    return SymmetricKernel(n, (n + 1.0 - k) / (n + 1.0) ** 2)


def epanechnikov_kernel(n: int) -> SymmetricKernel:
    """Parabola-sampled weights u(k) = 3 (n^2 - k^2) / (n (4n^2 - 1)).

    The formula divides by zero at n = 0, so that case is rejected rather
    than patched.
    """
    n = integer(n, "half width")
    if n < 1:
        raise ValueError("Epanechnikov weights need half width >= 1")
    k = np.arange(n + 1)
    return SymmetricKernel(n, 3.0 * (n * n - k * k) / (n * (4.0 * n * n - 1.0)))


def optimal_kernel(n: int) -> SymmetricKernel:
    """Kernel minimizing the sharp second-difference constant at half width n.

    The weights are the Chebyshev coefficients of the degree-n minimax
    polynomial S: w_0 = c_0 and w_k = c_k / 2, which is the discrete
    orthogonality quadrature of S against T_k.
    """
    n = integer(n, "half width")
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"half width must be in [0, {MAX_DEGREE}]")
    w = build_solution(n).S.coeffs.copy()
    w[1:] *= 0.5
    return SymmetricKernel(n, w)


def _kernel(u):
    """u itself if it is a SymmetricKernel or a GeneralKernel; anything else raises ValueError naming it."""
    if not isinstance(u, (SymmetricKernel, GeneralKernel)):
        raise ValueError("u must be a SymmetricKernel or a GeneralKernel")
    return u


def symmetrize(u: SymmetricKernel | GeneralKernel) -> SymmetricKernel:
    """Average a kernel with its reflection: w_k = (u(k) + u(-k)) / 2; a SymmetricKernel is returned as it is."""
    if isinstance(_kernel(u), SymmetricKernel):
        return u
    n = u.half_width
    w = u.weights
    return SymmetricKernel(n, 0.5 * (w[n:] + w[n::-1]))


def to_polynomial(u: SymmetricKernel) -> ChebSeries:
    """Cosine-series polynomial of the kernel: p_u = w_0 + sum 2 w_k T_k.

    p_u(cos xi) equals the kernel's Fourier transform at xi, and p_u(1) = 1
    restates the normalization.
    """
    c = u.weights.copy()
    c[1:] *= 2.0
    return ChebSeries(c)


def full_weights(u: SymmetricKernel | GeneralKernel) -> np.ndarray:
    """Weights laid out over k = -n..n for either kernel representation."""
    if isinstance(_kernel(u), SymmetricKernel):
        w = u.weights
        return np.concatenate([w[:0:-1], w])
    return u.weights.copy()


def write_kernel_csv(u: SymmetricKernel | GeneralKernel, path_or_file) -> None:
    """Write the kernel file format: header `k,weight`, one row per k in -n..n.

    The rows come from one `%` call on a repeated `k,weight` template: the
    k >= 0 rows of a SymmetricKernel, whose k < 0 rows are those mirrored
    with a leading "-", or all 2n + 1 rows of a GeneralKernel.
    """
    from .series import _CELL  # series imports this module

    w = u.weights.tolist()
    symmetric = isinstance(u, SymmetricKernel)
    ks = range(0 if symmetric else -u.half_width, u.half_width + 1)
    rows = (f"%d,{_CELL}\n" * len(w)) % tuple(itertools.chain.from_iterable(zip(ks, w)))
    if symmetric:
        rows = "".join(["-" + line for line in rows.splitlines(True)[:0:-1]]) + rows
    text = "k,weight\n" + rows

    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", newline="") as fh:
            fh.write(text)


def read_kernel_csv(path: str | os.PathLike) -> GeneralKernel:
    """Read a kernel file as a GeneralKernel.

    Rows are read by `series.Rows`, with the row rules of every data CSV.
    The header must be `k,weight`, the indices must run contiguously from
    -n to n with n <= MAX_DEGREE, and the weights must make a GeneralKernel.
    Every problem with the content raises CsvFormatError naming the file.
    Evenness is not checked here; `symmetrize` gives the even part.
    """
    from .series import CsvFormatError, CsvSource  # series imports this module

    limit = 2 * MAX_DEGREE + 1
    ks = []
    ws = []
    with CsvSource(path) as source, source.rows() as rows:
        if [h.strip() for h in rows.fields] != ["k", "weight"]:
            raise CsvFormatError(f"{path}: expected header 'k,weight'")
        for row in rows:
            if len(ks) == limit:
                raise CsvFormatError(
                    f"{path} row {rows.line_num}: more than {limit} rows (half width > {MAX_DEGREE})"
                )
            try:
                ks.append(int(row[0]))
                ws.append(float(row[1]))
            except ValueError:
                raise CsvFormatError(f"{path} row {rows.line_num}: cannot parse {row!r}") from None
    if not ks:
        raise CsvFormatError(f"{path}: no kernel rows")
    n = (len(ks) - 1) // 2
    if ks != list(range(-n, n + 1)):
        raise CsvFormatError(f"{path}: indices must run contiguously from -n to n")
    try:
        return GeneralKernel(n, ws)
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
