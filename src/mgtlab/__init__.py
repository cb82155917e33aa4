"""Numerical laboratory for the MGT Cauchy-Dirichlet problem.

Two cross-validating solution routes (per-mode Volterra reduction and direct
per-mode ODE integration), boundary-trace diagnostics, and a symbol-level
certification of the uniform Lopatinskii condition for the equivalent
first-order system.
"""

from .modal_oracle import solve_by_modes
from .reduction import (
    ForcingData,
    MgtData,
    MgtParams,
    build_kernel,
    forcing_transform,
    solve_mgt,
)
from .spectral import (
    BoundaryData,
    BoundarySignal,
    DomainSpec,
    EigenBasis,
    SpectralField,
    TimeGrid,
    Trajectory,
    build_basis,
    normal_trace,
)
from .symbols import boundary_convolution_probe, estimate_probe, lopatinskii_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
