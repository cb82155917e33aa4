"""Cosine/sine operator families, the smoothing convolution, and wave solves.

All operators act diagonally on eigen-coefficients through the real-valued
primitives cos(omega_k t) and sin(omega_k t)/sqrt(mu_k) with
omega_k = speed * sqrt(mu_k); no complex arithmetic is needed because every
formula pairs operator powers so that products are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import prefix_trapezoid
from .spectral import BoundarySignal, EigenBasis, SpectralField, TimeGrid, Trajectory


@dataclass(frozen=True)
class CosineFamily:
    """Diagonal cosine family with a time scaling (speed = sqrt(b))."""

    basis: EigenBasis
    speed: float = 1.0

    def __post_init__(self):
        if self.speed <= 0:
            raise ValueError("speed must be positive")

    @property
    def omega(self) -> np.ndarray:
        return self.speed * self.basis.sqrt_eigenvalues


@dataclass(frozen=True)
class Phases:
    """cos(omega t) and sin(omega t) per mode: (len(times), len(omega)) each.

    The Volterra route builds one table per row chunk of its grid; the other
    users build one for the whole grid and pass it to everything that reads
    the cosine/sine family there.
    """

    omega: np.ndarray
    times: np.ndarray
    cos: np.ndarray
    sin: np.ndarray


def phases(omega: np.ndarray, times: np.ndarray) -> Phases:
    """The phase table of omega on times (sin is computed in the phase buffer)."""
    phase = np.outer(times, omega)
    cos = np.cos(phase)
    return Phases(omega, times, cos, np.sin(phase, out=phase))


def sincos_conv(ph: Phases, f: np.ndarray, dt: float,
                carry: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Running integrals of sin(omega (t-s)) f(s) ds and cos(omega (t-s)) f(s) ds.

    The angle addition turns both into one pair of prefix sums, of cos f and
    sin f, read against the table at t.  carry continues both sums over
    consecutive row chunks (quadrature.prefix_trapezoid); ph and f then hold
    one chunk's rows.
    """
    carry = {} if carry is None else carry
    pc = prefix_trapezoid(ph.cos * f, dt, carry.setdefault("cos", {}))
    ps = prefix_trapezoid(ph.sin * f, dt, carry.setdefault("sin", {}))
    return ph.sin * pc - ph.cos * ps, ph.cos * pc + ph.sin * ps


def kop_apply(fam: CosineFamily, f: np.ndarray, grid: TimeGrid,
              ph: Phases | None = None) -> np.ndarray:
    """Smoothing convolution: per mode (1/sqrt(mu)) int_0^t sin(omega(t-s)) f(s) ds.

    f is a coefficient trajectory of shape (steps+1, modes); the result has
    the same shape.  ph is the phase table of fam.omega on grid.times, built
    here when the caller does not pass the one it holds.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != grid.steps + 1 or f.shape[1] != fam.basis.size:
        raise ValueError("trajectory shape must be (steps+1, modes)")
    if f.shape[0] == 0:
        raise ValueError("empty trajectory")
    if ph is None:
        ph = phases(fam.omega, grid.times)
    conv, _ = sincos_conv(ph, f, grid.dt)
    return conv / fam.basis.sqrt_eigenvalues


def wave_solve(fam: CosineFamily, z0: SpectralField, z1: SpectralField,
               f: np.ndarray | None, g: BoundarySignal | None,
               grid: TimeGrid, ph: Phases | None = None) -> Trajectory:
    """Solve z_tt = speed^2 Lap z + f, z|Gamma = g, by the explicit representation.

    Per mode: cos(omega t) z0 + sin(omega t)/omega z1
              + (1/omega) int sin(omega(t-s)) f(s) ds
              + omega int sin(omega(t-s)) <D g(s), e_k> ds,
    whose second derivative is -omega^2 z + f + omega^2 <D g, e_k>.  The
    trajectory holds the zero-trace part; g's lifting completes it.  ph is
    the phase table of fam.omega on grid.times, built here when not given.
    """
    basis = fam.basis
    omega = fam.omega
    z0c = z0.total_coeffs()
    z1c = z1.total_coeffs()
    if ph is None:
        ph = phases(omega, grid.times)
    ct, st = ph.cos, ph.sin
    coeffs = ct * z0c + st / omega * z1c
    dcoeffs = -omega * st * z0c + ct * z1c
    if f is not None:
        f = np.asarray(f, dtype=float)
        if f.shape != (grid.steps + 1, basis.size):
            raise ValueError("forcing trajectory shape must be (steps+1, modes)")
        conv_s, conv_c = sincos_conv(ph, f, grid.dt)
        coeffs += conv_s / omega
        dcoeffs += conv_c
    if g is not None:
        if g.grid.steps != grid.steps or g.grid.horizon != grid.horizon:
            raise ValueError("boundary signal and solve share one time grid")
        lift = basis.lift_matrix()
        dhat = g.values @ lift
        conv_s, conv_c = sincos_conv(ph, dhat, grid.dt)
        coeffs += omega * conv_s
        dcoeffs += omega**2 * conv_c
    ddcoeffs = -omega**2 * coeffs
    if f is not None:
        ddcoeffs += f
    if g is None:
        return Trajectory(basis, grid, coeffs, dcoeffs, ddcoeffs, None)
    ddcoeffs += omega**2 * dhat
    return Trajectory(basis, grid, coeffs - dhat, dcoeffs - g.dvalues @ lift,
                      ddcoeffs - g.ddvalues @ lift, g)


@dataclass
class BoundaryProbeResult:
    """Norm series of the two boundary-to-interior convolution entries."""

    grid: TimeGrid
    minus_entry: np.ndarray  # L2 norms of A int R_-(t-s) D g(s) ds
    plus_entry: np.ndarray   # L2 norms of A int R_+(t-s) D g(s) ds

    def sup_minus(self) -> float:
        return float(np.max(self.minus_entry))


def boundary_convolution_probe(fam: CosineFamily, g: BoundarySignal,
                               grid: TimeGrid) -> BoundaryProbeResult:
    """C([0,T]; L2) norm series witnessing boundary-to-interior regularity."""
    basis = fam.basis
    dhat = g.values @ basis.lift_matrix()
    root = basis.sqrt_eigenvalues
    conv_s, conv_c = sincos_conv(phases(fam.omega, grid.times), dhat, grid.dt)
    minus = root * conv_s
    plus = root * conv_c
    return BoundaryProbeResult(grid,
                               np.linalg.norm(minus, axis=1),
                               np.linalg.norm(plus, axis=1))
