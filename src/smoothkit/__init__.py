"""smoothkit: optimal discrete averaging kernels and sharp smoothing constants.

Builds the half-width-n kernel that minimizes the operator norm of
second-differencing after smoothing, evaluates such norms for arbitrary
kernels via their frequency symbols, and applies kernels to finite time
series. The minimax polynomial construction, the parabolic (Epanechnikov)
approximation, and the limiting constants are each exposed with
independent cross-check paths.
"""

from .asymptotics import *
from .chebyshev import *
from .extremal import *
from .kernels import *
from .multiplier import *
from .series import *

__version__ = "0.1.0"
__all__: list[str] = []
__all__ += asymptotics.__all__  # each import above also binds its module's name
__all__ += chebyshev.__all__
__all__ += extremal.__all__
__all__ += kernels.__all__
__all__ += multiplier.__all__
__all__ += series.__all__
