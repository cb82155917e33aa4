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


def variant_symbol(fam: CosineFamily, t: float, variant: str) -> np.ndarray:
    """Per-mode multiplier of the requested operator at time t."""
    mu = fam.basis.eigenvalues
    root = fam.basis.sqrt_eigenvalues
    phase = fam.omega * t
    if variant == "Rplus":
        return np.cos(phase)
    if variant == "AinvRminus":
        return np.sin(phase) / root
    if variant == "ARminus":
        return -root * np.sin(phase)
    if variant == "A2Rplus":
        return -mu * np.cos(phase)
    raise ValueError(f"unknown variant {variant!r}")


def cosine_apply(fam: CosineFamily, t: float, x: SpectralField,
                 variant: str = "Rplus") -> SpectralField:
    """Apply a cosine-family operator to a field, coefficient-wise."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if x.basis is not fam.basis and (
            x.basis.size != fam.basis.size
            or not np.array_equal(x.basis.eigenvalues, fam.basis.eigenvalues)):
        raise ValueError("field and family live on different bases")
    sym = variant_symbol(fam, t, variant)
    return SpectralField(fam.basis, sym * x.total_coeffs())


def conv_sin(omega: np.ndarray, f: np.ndarray, times: np.ndarray, dt: float) -> np.ndarray:
    """Running integrals of sin(omega (t-s)) f(s) ds via the angle addition."""
    phase = np.outer(times, omega)
    ct, st = np.cos(phase), np.sin(phase)
    pc = prefix_trapezoid(ct * f, dt)
    ps = prefix_trapezoid(st * f, dt)
    return st * pc - ct * ps


def conv_cos(omega: np.ndarray, f: np.ndarray, times: np.ndarray, dt: float) -> np.ndarray:
    phase = np.outer(times, omega)
    ct, st = np.cos(phase), np.sin(phase)
    pc = prefix_trapezoid(ct * f, dt)
    ps = prefix_trapezoid(st * f, dt)
    return ct * pc + st * ps


def kop_apply(fam: CosineFamily, f: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Smoothing convolution: per mode (1/sqrt(mu)) int_0^t sin(omega(t-s)) f(s) ds.

    f is a coefficient trajectory of shape (steps+1, modes); the result has
    the same shape.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != grid.steps + 1 or f.shape[1] != fam.basis.size:
        raise ValueError("trajectory shape must be (steps+1, modes)")
    if f.shape[0] == 0:
        raise ValueError("empty trajectory")
    conv = conv_sin(fam.omega, f, grid.times, grid.dt)
    return conv / fam.basis.sqrt_eigenvalues


def wave_solve(fam: CosineFamily, z0: SpectralField, z1: SpectralField,
               f: np.ndarray | None, g: BoundarySignal | None,
               grid: TimeGrid) -> Trajectory:
    """Solve z_tt = speed^2 Lap z + f, z|Gamma = g, by the explicit representation.

    Per mode: cos(omega t) z0 + sin(omega t)/omega z1
              + (1/omega) int sin(omega(t-s)) f(s) ds
              + omega int sin(omega(t-s)) <D g(s), e_k> ds,
    whose second derivative is -omega^2 z + f + omega^2 <D g, e_k>.  The
    trajectory holds the zero-trace part; g's lifting completes it.
    """
    basis = fam.basis
    times, dt = grid.times, grid.dt
    omega = fam.omega
    z0c = z0.total_coeffs()
    z1c = z1.total_coeffs()
    phase = np.outer(times, omega)
    ct, st = np.cos(phase), np.sin(phase)
    coeffs = ct * z0c + st / omega * z1c
    dcoeffs = -omega * st * z0c + ct * z1c
    if f is not None:
        f = np.asarray(f, dtype=float)
        if f.shape != (grid.steps + 1, basis.size):
            raise ValueError("forcing trajectory shape must be (steps+1, modes)")
        coeffs += conv_sin(omega, f, times, dt) / omega
        dcoeffs += conv_cos(omega, f, times, dt)
    if g is not None:
        if g.grid.steps != grid.steps or g.grid.horizon != grid.horizon:
            raise ValueError("boundary signal and solve share one time grid")
        lift = basis.lift_matrix()
        dhat = g.values @ lift
        coeffs += omega * conv_sin(omega, dhat, times, dt)
        dcoeffs += omega**2 * conv_cos(omega, dhat, times, dt)
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
    minus = root * conv_sin(fam.omega, dhat, grid.times, grid.dt)
    plus = root * conv_cos(fam.omega, dhat, grid.times, grid.dt)
    return BoundaryProbeResult(grid,
                               np.linalg.norm(minus, axis=1),
                               np.linalg.norm(plus, axis=1))
