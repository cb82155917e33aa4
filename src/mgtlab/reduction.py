"""Reduction of the MGT Cauchy-Dirichlet problem to per-mode Volterra solves.

Pipeline: take the constants of the exponential transform v = e^{gamma t/2} w
from MgtParams, assemble the per-mode memory kernel and the right-hand sides
built from the affine histories H, H_t, H_tt, run three collocated Volterra
solves for (v, v_t, v_tt), and undo the transform to recover (w, w_t, w_tt)
with the Dirichlet data.  Assembly and recovery stream over row chunks of
the time grid (quadrature.row_chunks), carrying the running integrals from
chunk to chunk, so that no grid-length phase table or history is formed.

The solution fields are kept as zero-trace eigen-expansions plus the exact
harmonic lifting of the Dirichlet data, which keeps Sobolev norms and normal
traces honest for nonzero boundary data.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cosine import Phases, phases, sincos_conv
from .quadrature import power_increments, prefix_exponential, row_chunks, scan_blocks
from .spectral import (
    BoundaryData,
    BoundarySignal,
    EigenBasis,
    SpectralField,
    TimeGrid,
    Trajectory,
)

COMPAT_TOL = 1e-8


class ReductionError(RuntimeError):
    """Raised when a Volterra solve fails to converge or yields non-finite values."""


@dataclass(frozen=True)
class MgtParams:
    """Constants of the equation w_ttt + alpha w_tt - c^2 Lap w - b Lap w_t = f.

    alpha is the viscosity constant (1/s), b the sound diffusivity (m^2/s),
    c the sound speed (m/s).  The relaxation constant is fixed at 1.
    """

    alpha: float
    b: float
    c: float

    def __post_init__(self):
        if self.alpha <= 0 or self.b <= 0 or self.c <= 0:
            raise ValueError("alpha, b, c must all be positive")

    @property
    def gamma(self) -> float:
        """Uniform-stability threshold parameter alpha - c^2/b."""
        return self.alpha - self.c**2 / self.b

    @property
    def volterra_beta(self) -> float:
        return -self.gamma * (0.75 * self.gamma - self.alpha)

    @property
    def decay_exponent(self) -> float:
        return 1.5 * self.gamma - self.alpha

    @property
    def kernel_scale(self) -> float:
        return -self.gamma * (self.gamma - self.alpha) ** 2


def _data_source(params: MgtParams, times: np.ndarray, w0tot: np.ndarray,
                 w1tot: np.ndarray) -> np.ndarray:
    """h0(t) w0 + h1(t) w1, the initial-data part of the transformed source.

    The signs of h0 and h1 are fixed by consistency of the transformed
    problem with the original equation: the memory residual
    R = v_tt + b mu v - beta v - K*v satisfies R' = rho R, hence
    R(t) = e^{rho t} [w2_k + gamma w1_k + (gamma^2/4 - beta + b mu) w0_k],
    which identifies h0 = gamma (gamma - alpha) e^{rho t} and
    h1 = gamma e^{rho t}; the remaining term is h2 = e^{rho t} times
    w2 - b Lap w0.  (At gamma = 0 the operator factorizes as
    (d/dt + alpha)(d^2/dt^2 + b mu) and only the h2 term survives, which the
    formulas reproduce.)  The cross-route oracle agreement pins these signs.
    """
    gamma = params.gamma
    hs = np.exp(params.decay_exponent * times)[:, None]
    return gamma * (gamma - params.alpha) * hs * w0tot + gamma * hs * w1tot


@dataclass
class ForcingData:
    """Interior forcing as a callable: times (T,) -> eigen-coefficients (T, modes)."""

    modes: Callable[[np.ndarray], np.ndarray]

    def sample(self, grid: TimeGrid, size: int) -> np.ndarray:
        out = np.asarray(self.modes(grid.times), dtype=float)
        if out.shape != (grid.steps + 1, size):
            raise ValueError("forcing callable must map (T,) times to (T, modes) values")
        return out

    @classmethod
    def separable(cls, time_profile: Callable[[np.ndarray], np.ndarray],
                  coeffs: np.ndarray) -> "ForcingData":
        coeffs = np.asarray(coeffs, dtype=float)
        return cls(modes=lambda t: time_profile(t)[:, None] * coeffs)


@dataclass
class MgtData:
    """Initial data, forcing and Dirichlet data with compatibility flags."""

    w0: SpectralField
    w1: SpectralField
    w2: SpectralField
    f: ForcingData | None = None
    g: BoundaryData | None = None
    compatible_position: bool = field(init=False)
    compatible_velocity: bool = field(init=False)

    def __post_init__(self):
        basis = self.w0.basis
        for other in (self.w1, self.w2):
            if other.basis.size != basis.size:
                raise ValueError("data fields must share one basis")
        g0, gt0 = self._boundary_at_zero()
        self.compatible_position = bool(
            np.max(np.abs(self.w0.boundary_values() - g0)) <= COMPAT_TOL)
        self.compatible_velocity = bool(
            np.max(np.abs(self.w1.boundary_values() - gt0)) <= COMPAT_TOL)

    def _boundary_at_zero(self):
        nodes = self.w0.basis.domain.boundary_size
        if self.g is None:
            return np.zeros(nodes), np.zeros(nodes)
        zero = np.zeros(1)
        return (np.asarray(self.g.g(zero), dtype=float)[0],
                np.asarray(self.g.gt(zero), dtype=float)[0])

    @property
    def basis(self) -> EigenBasis:
        return self.w0.basis


def forcing_transform(f_samples: np.ndarray, params: MgtParams, grid: TimeGrid,
                      rows: slice = slice(None),
                      carry: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """f-tilde and its time derivative, from lam(t) = int_0^t e^{-alpha(t-s)} f(s) ds.

    lam uses the exact exponential-integrator recursion per step, so
    lam(0) = 0 and ftilde(0) = 0 hold exactly and linear-in-time forcing is
    integrated without quadrature error.  f_samples holds the grid's rows
    `rows`; carry continues both running integrals over consecutive row
    chunks (quadrature.prefix_exponential).
    """
    f_samples = np.asarray(f_samples, dtype=float)
    gamma = params.gamma
    carry = {} if carry is None else carry
    lam = prefix_exponential(-params.alpha, f_samples, grid.dt,
                             carry.setdefault("lam", {}))
    conv = prefix_exponential(-params.c**2 / params.b, lam, grid.dt,
                              carry.setdefault("conv", {}))
    envelope = np.exp(0.5 * gamma * grid.times[rows])
    if f_samples.ndim == 2:
        envelope = envelope[:, None]
    ftilde = envelope * (lam + gamma * conv)
    lam_t = f_samples - params.alpha * lam
    conv_t = lam - (params.c**2 / params.b) * conv
    ftilde_t = 0.5 * gamma * ftilde + envelope * (lam_t + gamma * conv_t)
    return ftilde, ftilde_t


@dataclass(frozen=True)
class KernelFamily:
    """Per-mode memory kernels  A sin(omega t) + B cos(omega t) + C e^{rho t}.

    The closed form of the inner exponential integral makes B + C = 0, so
    every kernel vanishes at t = 0 and the collocation stays explicit.
    """

    omega: np.ndarray
    rho: float
    sin_coeff: np.ndarray
    cos_coeff: np.ndarray
    exp_coeff: np.ndarray

    def samples(self, ph: Phases) -> tuple[np.ndarray, np.ndarray]:
        """The kernels and their time derivatives on the table's times."""
        grow = np.exp(self.rho * ph.times)[:, None]
        ker = self.sin_coeff * ph.sin + self.cos_coeff * ph.cos + self.exp_coeff * grow
        kdot = (self.sin_coeff * self.omega * ph.cos
                - self.cos_coeff * self.omega * ph.sin
                + self.rho * self.exp_coeff * grow)
        return ker, kdot

    @property
    def size(self) -> int:
        return len(self.omega)


def build_kernel(params: MgtParams, basis: EigenBasis) -> KernelFamily:
    """Memory kernel of the transformed problem, in closed per-mode form.

    omega holds the per-mode frequencies of the speed-sqrt(b) wave family.
    """
    omega = np.sqrt(params.b) * basis.sqrt_eigenvalues
    rho = params.decay_exponent
    kappa = params.kernel_scale
    beta = params.volterra_beta
    denom = rho**2 + omega**2
    sin_coeff = -beta / omega + kappa * rho / (omega * denom)
    cos_coeff = kappa / denom
    exp_coeff = -kappa / denom
    return KernelFamily(omega, rho, sin_coeff, cos_coeff, exp_coeff)


def _gtilde(sig: BoundarySignal, gamma: float, times: np.ndarray,
            rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g-tilde = e^{gamma t/2} g and its first two time derivatives on rows at times."""
    g, gt, gtt = sig.values[rows], sig.dvalues[rows], sig.ddvalues[rows]
    envelope = np.exp(0.5 * gamma * times)[:, None]
    return (envelope * g, envelope * (0.5 * gamma * g + gt),
            envelope * (0.25 * gamma**2 * g + gamma * gt + gtt))


@dataclass
class ReducedProblem:
    """What the Volterra solves and the recovery read.

    rhs has shape (steps+1, 3, modes): the right-hand sides of the v, v_t and
    v_tt solves, H, H_t - k v0 and H_tt - k' v0 - k v1 with k, k' the kernel
    samples and their time derivatives, v0 = w0 and v1 = gamma/2 w0 + w1.
    """

    kernels: KernelFamily
    rhs: np.ndarray
    boundary_signal: BoundarySignal
    f_samples: np.ndarray


def reduce_problem(data: MgtData, params: MgtParams, grid: TimeGrid) -> ReducedProblem:
    """Assemble the kernels and the three right-hand sides per mode.

    H comes from the twice integrated-by-parts form of the wave
    representation (terms in w0 - Dg(0), the shifted velocity datum, the
    lifting of g-tilde, the g-tilde_tt convolution and the source
    convolution); H_t and H_tt are its time derivatives.  The rows are built
    chunk by chunk, each from its own phase table, with the running
    convolutions carried from chunk to chunk.
    """
    basis = data.basis
    gamma, rho = params.gamma, params.decay_exponent
    times, dt = grid.times, grid.dt
    kernels = build_kernel(params, basis)
    omega = kernels.omega

    sig = (data.g.sample(grid) if data.g is not None
           else BoundarySignal.zero(grid, basis.domain.boundary_size))
    lift = basis.lift_matrix()

    w0tot = data.w0.total_coeffs()
    w1tot = data.w1.total_coeffs()
    w2tot = data.w2.total_coeffs()
    g0 = sig.values[0]
    gt0 = sig.dvalues[0]
    a0 = data.w0.coeffs + (data.w0.boundary_values() - g0) @ lift
    a1 = (0.5 * gamma * data.w0.coeffs + data.w1.coeffs
          + (0.5 * gamma * data.w0.boundary_values() + data.w1.boundary_values()
             - 0.5 * gamma * g0 - gt0) @ lift)
    v1 = 0.5 * gamma * w0tot + w1tot

    # interior source h0 w0 + h1 w1 + h2 (w2 - b Lap w0); the lifting part of
    # w0 is harmonic so Lap w0 only sees the zero-trace coefficients
    source_fixed = w2tot + params.b * basis.eigenvalues * data.w0.coeffs
    source_0 = _data_source(params, times[:1], w0tot, w1tot)[0] + source_fixed  # h2(0) = 1

    if data.f is not None:
        fsamp = data.f.sample(grid, basis.size)
    else:
        fsamp = np.zeros((grid.steps + 1, basis.size))

    rhs = np.empty((grid.steps + 1, 3, basis.size))
    carry = defaultdict(dict)
    for rows in row_chunks(grid.steps + 1, basis.size):
        t = times[rows]
        ph = phases(omega, t)
        ct, st = ph.cos, ph.sin
        dhat, dhat_t, dhat_tt = (x @ lift for x in _gtilde(sig, gamma, t, rows))
        source = _data_source(params, t, w0tot, w1tot) + np.exp(rho * t)[:, None] * source_fixed
        ftilde, ftilde_t = forcing_transform(fsamp[rows], params, grid, rows, carry["forcing"])
        conv_dtt, conv_dtt_c = sincos_conv(ph, dhat_tt, dt, carry["dtt"])
        conv_src_t, conv_src_t_c = sincos_conv(ph, rho * source + ftilde_t,
                                               dt, carry["source_t"])
        conv_src = sincos_conv(ph, source + ftilde, dt, carry["source"])[0]
        ker, kdot = kernels.samples(ph)
        out = rhs[rows]
        out[:, 0] = ct * a0 + st / omega * a1 + dhat - conv_dtt / omega + conv_src / omega
        Ht = (-omega * st * a0 + ct * a1 + dhat_t - conv_dtt_c
              + st / omega * source_0 + conv_src_t / omega)
        np.subtract(Ht, ker * w0tot, out=out[:, 1])
        Htt = (-omega**2 * ct * a0 - omega * st * a1 + omega * conv_dtt
               + ct * source_0 + conv_src_t_c)
        np.subtract(Htt, kdot * w0tot, out=out[:, 2])
        out[:, 2] -= ker * v1

    return ReducedProblem(kernels, rhs, sig, fsamp)


def _solve_structured(kernels: KernelFamily, rhs: np.ndarray,
                      grid: TimeGrid) -> np.ndarray:
    """Trapezoid collocation for the structured kernel, as a blocked linear scan.

    In the rotating frame X_m = sum_{j<m} w_j (cos, sin, e^rho)(t_m - t_j) v_j
    (trapezoid weights w_j, w_0 = 1/2) the memory sum is dt k.X_m with
    k = (B, A, C), so v_m = rhs_m - dt k.X_m and X_{m+1} = G (X_m + w_m e v_m)
    with e = (1, 0, 1) and G = rot(omega dt) + e^{rho dt}: per mode an order-3
    linear recurrence with one-step map M = G (I - dt e k^T) from m = 1 on,
    run as a blocked scan (quadrature.scan_blocks).  The kernel vanishes at
    0, so the step is explicit; the equations are identical to solve_direct
    with trapezoid weights.  G - I and M - I are formed without cancellation
    (half-angle sine, expm1), so that their rounding does not build up.

    rhs has shape (steps+1, modes) or (steps+1, k, modes) and must be
    C-contiguous; it is overwritten with the solution, which is returned.
    The k right-hand sides go through the same elementwise float operations
    as k separate solves, so batching does not change a bit.
    """
    dt = grid.dt
    a, b, c = kernels.sin_coeff, kernels.cos_coeff, kernels.exp_coeff
    # G - I: cos(omega dt) - 1, sin(omega dt) and e^{rho dt} - 1
    cm1 = -2.0 * np.sin(0.5 * kernels.omega * dt) ** 2
    sn = np.sin(kernels.omega * dt)
    em1 = np.expm1(kernels.rho * dt)
    grot = np.zeros((kernels.size, 3, 3))
    grot[:, 0, 0] = grot[:, 1, 1] = cm1
    grot[:, 0, 1], grot[:, 1, 0], grot[:, 2, 2] = -sn, sn, em1
    kvec = np.stack([b, a, c], axis=-1)
    kick = dt * np.array([1.0, 0.0, 1.0])[:, None] * kvec[:, None, :]
    v = rhs.reshape(rhs.shape[0], -1, rhs.shape[-1])
    segments = scan_blocks(v[1:])
    length = segments[0].shape[1]
    # M^i - I for i = 0..L; memory read-out rows dt k^T M^i, component-major
    pw = power_increments(grot @ (np.eye(3) - kick) - kick, length)
    reads = dt * (kvec[:, None, :] @ (pw[:length] + np.eye(3)))[:, :, 0]
    reads = np.ascontiguousarray(np.moveaxis(reads, -1, 1))
    carry = np.ascontiguousarray(np.moveaxis(pw[length], 0, -1))

    def zero_state(blocks):
        # the collocation inside every block at once, from X = 0; the
        # products go through buffers in the order of the plain expressions
        xc, xs, xe = x = np.zeros((3,) + blocks[:, 0].shape)
        t1, t2, t3 = np.empty_like(x)
        for i in range(blocks.shape[1]):
            vi = blocks[:, i]
            np.multiply(a, xs, out=t1)
            t1 += np.multiply(b, xc, out=t2)
            t1 += np.multiply(c, xe, out=t2)
            t1 *= dt
            vi -= t1
            xc += vi
            xe += vi
            # xc + (cm1 xc - sn xs), xs + (sn xc + cm1 xs)
            np.multiply(cm1, xc, out=t1)
            t1 -= np.multiply(sn, xs, out=t3)
            np.multiply(sn, xc, out=t2)
            t2 += np.multiply(cm1, xs, out=t3)
            xc += t1
            xs += t2
            xe += np.multiply(em1, xe, out=t1)
        return np.stack([xc, xs, xe], axis=1)

    ends = [zero_state(seg) for seg in segments]
    # X at row 1 is G e v_0 / 2; carry it from block to block
    x = 0.5 * np.stack([(1.0 + cm1) * v[0], sn * v[0], (1.0 + em1) * v[0]])
    acc, tmp = np.empty((2,) + segments[0][0].shape)
    for seg, seg_ends in zip(segments, ends):
        for block, end in zip(seg, seg_ends):
            n = block.shape[0]
            np.multiply(reads[:n, 0, None], x[0], out=acc[:n])
            for j in (1, 2):
                acc[:n] += np.multiply(reads[:n, j, None], x[j], out=tmp[:n])
            block -= acc[:n]
            step = (carry[:, 0, None] * x[0] + carry[:, 1, None] * x[1]
                    + carry[:, 2, None] * x[2])
            step += end
            x = x + step
    return rhs


@dataclass
class SolutionBundle(Trajectory):
    """The solved trajectory, the forcing it was solved with, and diagnostics.

    w/wt/wtt are zero-trace coefficients completed by the lifting of the
    sampled Dirichlet data (boundary); f_samples holds the sampled interior
    forcing, zeros when the problem has none.
    """

    params: MgtParams
    f_samples: np.ndarray
    metadata: dict


def solve_mgt(data: MgtData, params: MgtParams, grid: TimeGrid) -> SolutionBundle:
    """Solve the MGT Cauchy-Dirichlet problem through the Volterra reduction.

    Three per-mode Volterra solves produce v, v_t, v_tt with right-hand sides
    H, H_t - L(t)v0, H_tt - (d/dt L(t))v0 - L(t)v1 (reduce_problem); the
    exponential transform is then undone chunk by chunk via w = e^{-gamma t/2} v
    and the product-rule recovery of the derivatives.
    """
    # overflow of the exponential weights is reported once, by the
    # finite-output check below, not as a stream of numpy warnings
    names, first_bad = ("w", "wt", "wtt"), {}
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = params.gamma
        times = grid.times
        basis = data.basis
        rp = reduce_problem(data, params, grid)
        sol = _solve_structured(rp.kernels, rp.rhs, grid)
        lift = basis.lift_matrix()
        w_int, wt_int, wtt_int = outs = [np.empty((grid.steps + 1, basis.size))
                                         for _ in names]
        for rows in row_chunks(grid.steps + 1, basis.size):
            t = times[rows]
            dhat, dhat_t, dhat_tt = (x @ lift for x in _gtilde(rp.boundary_signal, gamma, t, rows))
            v_int = sol[rows, 0] - dhat
            vt_int = sol[rows, 1] - dhat_t
            vtt_int = sol[rows, 2] - dhat_tt
            damp = np.exp(-0.5 * gamma * t)[:, None]
            np.multiply(damp, v_int, out=w_int[rows])
            np.multiply(damp, vt_int - 0.5 * gamma * v_int, out=wt_int[rows])
            np.multiply(damp, vtt_int - gamma * vt_int + 0.25 * gamma**2 * v_int,
                        out=wtt_int[rows])
            for name, arr in zip(names, outs):
                # min/max propagate NaN and +-inf, read while the chunk is in cache
                chunk = arr[rows]
                if name not in first_bad and not (np.isfinite(chunk.min())
                                                  and np.isfinite(chunk.max())):
                    first_bad[name] = t[np.argmin(np.all(np.isfinite(chunk), axis=1))]

    for name in names:
        if name in first_bad:
            raise ReductionError(
                f"non-finite {name} from t = {first_bad[name]:.6g} on: the "
                "exponentially weighted transform left the float range")

    meta = {"compatible_position": data.compatible_position,
            "compatible_velocity": data.compatible_velocity}
    bundle = SolutionBundle(basis, grid, w_int, wt_int, wtt_int,
                            rp.boundary_signal, params=params,
                            f_samples=rp.f_samples, metadata=meta)
    if basis.domain.kind == "interval":
        meta["trace_w_converged"] = bundle.trace("w").converged
        meta["trace_wt_converged"] = bundle.trace("wt").converged
    else:
        # pointwise normal traces are an interval-only diagnostic
        meta["traces"] = "unavailable on the square"
    return bundle
