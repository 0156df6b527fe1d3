"""smoothkit: optimal discrete averaging kernels and sharp smoothing constants.

Builds the half-width-n kernel that minimizes the operator norm of
second-differencing after smoothing, evaluates such norms for arbitrary
kernels via their frequency symbols, and applies kernels to finite time
series. The minimax polynomial construction, the parabolic (Epanechnikov)
approximation, and the limiting constants are each exposed with
independent cross-check paths.
"""

from .asymptotics import (
    MuResult,
    beat_bound_check,
    compute_mu,
    epanechnikov_ratio,
    epanechnikov_series,
    scaled_symbol,
    sinc_cos_gap,
    verify_identity,
)
from .chebyshev import (
    ChebSeries,
    cheb_nodes,
    clenshaw_eval,
    deflate_at_one,
    eval_T,
    eval_U,
    transform,
)
from .extremal import (
    EquioscillationReport,
    ExtremalSolution,
    LowerBoundReport,
    alpha_closed_form,
    build_solution,
    minimax_lower_bound_check,
    stretch_map,
    verify_equioscillation,
)
from .kernels import (
    GeneralKernel,
    SymmetricKernel,
    constant_kernel,
    epanechnikov_kernel,
    full_weights,
    optimal_kernel,
    read_kernel_csv,
    symmetrize,
    to_polynomial,
    triangle_kernel,
    write_kernel_csv,
)
from .multiplier import (
    MultiplierBound,
    closed_form_c2,
    operator_norm,
    operator_norm_via_polynomial,
    rayleigh_quotient,
    symbol_magnitude,
    wave_packet,
)
from .series import (
    CsvFormatError,
    TimeSeries,
    convolve,
    derivative,
    l2_norm,
    read_csv,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ChebSeries",
    "CsvFormatError",
    "EquioscillationReport",
    "ExtremalSolution",
    "GeneralKernel",
    "LowerBoundReport",
    "MultiplierBound",
    "MuResult",
    "SymmetricKernel",
    "TimeSeries",
    "alpha_closed_form",
    "beat_bound_check",
    "build_solution",
    "cheb_nodes",
    "clenshaw_eval",
    "closed_form_c2",
    "compute_mu",
    "constant_kernel",
    "convolve",
    "deflate_at_one",
    "derivative",
    "epanechnikov_kernel",
    "epanechnikov_ratio",
    "epanechnikov_series",
    "eval_T",
    "eval_U",
    "full_weights",
    "l2_norm",
    "minimax_lower_bound_check",
    "operator_norm",
    "operator_norm_via_polynomial",
    "optimal_kernel",
    "rayleigh_quotient",
    "read_csv",
    "read_kernel_csv",
    "scaled_symbol",
    "sinc_cos_gap",
    "stretch_map",
    "symbol_magnitude",
    "symmetrize",
    "to_polynomial",
    "transform",
    "triangle_kernel",
    "verify_equioscillation",
    "verify_identity",
    "wave_packet",
    "write_csv",
    "write_kernel_csv",
]
