"""Cosine/sine operator families: phase rows and boundary probes.

All operators act diagonally on eigen-coefficients through the real-valued
primitives cos(omega_k t) and sin(omega_k t)/sqrt(mu_k) with
omega_k = speed * sqrt(mu_k); no complex arithmetic is needed because every
formula pairs operator powers so that products are real.
"""

from __future__ import annotations

import numpy as np

from .quadrature import prefix_trapezoid
from .spectral import BoundarySignal, EigenBasis, TimeGrid

# Anchor spacing of PhaseRows: trig on one row in 64 plus a 64-row offset
# table per mode group, both small next to a row chunk.
ANCHOR = 64


class PhaseRows:
    """cos(omega t) and sin(omega t) on any rows of a uniform grid.

    cos/sin are evaluated only at the anchor rows n = a*ANCHOR and at the
    in-block offsets j*dt; row a*ANCHOR + j is
        cos = cos_a cos_j - sin_a sin_j,  sin = sin_a cos_j + cos_a sin_j,
    so a row's bits depend on its absolute index alone, whichever rows a
    call asks for, and the trig work on a grid of S+1 rows and N modes is
    (ceil((S+1)/ANCHOR) + ANCHOR) N values instead of (S+1) N.  The result
    is within a few ulp of |omega t| of cos/sin of outer(times, omega).
    """

    def __init__(self, omega: np.ndarray, times: np.ndarray, dt: float):
        self._anchor_cos, self._anchor_sin = _cos_sin(np.outer(times[::ANCHOR], omega))
        offsets = np.arange(min(ANCHOR, len(times))) * dt
        self._step_cos, self._step_sin = _cos_sin(np.outer(offsets, omega))

    def rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of omega t on the grid rows rows, (len, modes) each."""
        anchor, step = np.divmod(np.arange(rows.start, rows.stop), ANCHOR)
        ca, sa = self._anchor_cos[anchor], self._anchor_sin[anchor]
        cj, sj = self._step_cos[step], self._step_sin[step]
        return ca * cj - sa * sj, sa * cj + ca * sj


def _cos_sin(phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(phase) and sin(phase), sin computed in the phase buffer."""
    return np.cos(phase), np.sin(phase, out=phase)


def boundary_convolution_probe(basis: EigenBasis, speed: float, g: BoundarySignal,
                               grid: TimeGrid) -> np.ndarray:
    """C([0,T]; L2) norm series witnessing boundary-to-interior regularity.

    Returns the (steps+1,) L2 norms of A int R_-(t-s) D g(s) ds for the wave
    family of frequencies omega = speed * sqrt(mu): by angle addition the
    sine convolution is sin(omega t) Pc - cos(omega t) Ps, with Pc and Ps the
    running integrals of cos(omega s) and sin(omega s) times the lifted data.
    """
    dhat = g.values @ basis.lift_matrix()
    omega = speed * basis.sqrt_eigenvalues
    cos, sin = PhaseRows(omega, grid.times, grid.dt).rows(slice(0, grid.steps + 1))
    conv_s = sin * prefix_trapezoid(cos * dhat, grid.dt) - cos * prefix_trapezoid(sin * dhat,
                                                                                 grid.dt)
    return np.linalg.norm(basis.sqrt_eigenvalues * conv_s, axis=1)
