"""Cosine/sine operator families, the sin/cos convolution, and boundary probes.

All operators act diagonally on eigen-coefficients through the real-valued
primitives cos(omega_k t) and sin(omega_k t)/sqrt(mu_k) with
omega_k = speed * sqrt(mu_k); no complex arithmetic is needed because every
formula pairs operator powers so that products are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import prefix_trapezoid
from .spectral import BoundarySignal, EigenBasis, TimeGrid


@dataclass(frozen=True)
class Phases:
    """cos(omega t) and sin(omega t) per mode: (len(times), len(omega)) each.

    The Volterra route builds one table per row chunk of its grid;
    boundary_convolution_probe builds one for the whole grid.
    """

    times: np.ndarray
    cos: np.ndarray
    sin: np.ndarray


def phases(omega: np.ndarray, times: np.ndarray) -> Phases:
    """The phase table of omega on times (sin is computed in the phase buffer)."""
    phase = np.outer(times, omega)
    cos = np.cos(phase)
    return Phases(times, cos, np.sin(phase, out=phase))


def sincos_conv(ph: Phases, f: np.ndarray, dt: float,
                carry: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Running integrals of sin(omega (t-s)) f(s) ds and cos(omega (t-s)) f(s) ds.

    The angle addition turns both into one pair of prefix sums, of cos f and
    sin f, read against the table at t.  carry continues both sums over
    consecutive row chunks (quadrature.prefix_trapezoid); ph and f then hold
    one chunk's rows.
    """
    pc, ps = _prefix_pair(ph, f, dt, carry)
    return ph.sin * pc - ph.cos * ps, ph.cos * pc + ph.sin * ps


def sin_conv(ph: Phases, f: np.ndarray, dt: float, carry: dict | None = None) -> np.ndarray:
    """The sine convolution of sincos_conv alone, with the same bits."""
    pc, ps = _prefix_pair(ph, f, dt, carry)
    return ph.sin * pc - ph.cos * ps


def _prefix_pair(ph: Phases, f: np.ndarray, dt: float,
                 carry: dict | None) -> tuple[np.ndarray, np.ndarray]:
    """The carried prefix sums of cos f and sin f."""
    carry = {} if carry is None else carry
    return (prefix_trapezoid(ph.cos * f, dt, carry.setdefault("cos", {})),
            prefix_trapezoid(ph.sin * f, dt, carry.setdefault("sin", {})))


def boundary_convolution_probe(basis: EigenBasis, speed: float, g: BoundarySignal,
                               grid: TimeGrid) -> np.ndarray:
    """C([0,T]; L2) norm series witnessing boundary-to-interior regularity.

    Returns the (steps+1,) L2 norms of A int R_-(t-s) D g(s) ds for the wave
    family of frequencies omega = speed * sqrt(mu).
    """
    dhat = g.values @ basis.lift_matrix()
    omega = speed * basis.sqrt_eigenvalues
    conv_s = sin_conv(phases(omega, grid.times), dhat, grid.dt)
    return np.linalg.norm(basis.sqrt_eigenvalues * conv_s, axis=1)
