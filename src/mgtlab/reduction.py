"""Reduction of the MGT Cauchy-Dirichlet problem to per-mode Volterra solves.

Pipeline: take the constants of the exponential transform v = e^{gamma t/2} w
from MgtParams, assemble the per-mode memory kernel and the right-hand sides
built from the affine histories H, H_t, H_tt, run three collocated Volterra
solves for (v, v_t, v_tt), and undo the transform to recover (w, w_t, w_tt)
with the Dirichlet data.  Assembly and recovery stream over row chunks of
the time grid, so that no grid-length phase table, history or forcing table
is formed.  Modes are independent through the whole route, so it runs in one
pass over mode groups (quadrature.mode_groups, each_part), one per core on
wide bases: each group assembles, scans and recovers its own columns of one
buffer, with its own carries and its columns of the lifting products.

The solution fields are kept as zero-trace eigen-expansions plus the exact
harmonic lifting of the Dirichlet data, which keeps Sobolev norms and normal
traces honest for nonzero boundary data.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cosine import PhaseRows
from .quadrature import (
    blas_threads,
    each_part,
    mode_groups,
    power_increments,
    prefix_exponential,
    prefix_trapezoid,
    row_chunks,
    scan_blocks,
)
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
    """Interior forcing as a callable: times (T,) -> eigen-coefficients (T, modes).

    The callable acts elementwise in time, so a row chunk of times gives the
    same floats as the whole grid: the solvers sample it chunk by chunk and
    no grid-length forcing table is formed.  It must be pure, its values
    depending on the times alone: every mode group of both routes calls it
    from its own thread.
    """

    modes: Callable[[np.ndarray], np.ndarray]

    def sample(self, times: np.ndarray, size: int) -> np.ndarray:
        """The eigen-coefficients at times, of shape (len(times), size)."""
        out = np.asarray(self.modes(times), dtype=float)
        if out.shape != (len(times), size):
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
    every kernel vanishes at t = 0 and the collocation stays explicit.  The
    assembly folds A, B, C into per-mode constants of its planes and the
    scan reads them through its rotating frame, so no kernel is sampled on
    the grid.
    """

    omega: np.ndarray
    rho: float
    sin_coeff: np.ndarray
    cos_coeff: np.ndarray
    exp_coeff: np.ndarray

    @property
    def size(self) -> int:
        return len(self.omega)

    def __getitem__(self, cols: slice) -> "KernelFamily":
        """The kernels of the modes cols."""
        return KernelFamily(self.omega[cols], self.rho, self.sin_coeff[cols],
                            self.cos_coeff[cols], self.exp_coeff[cols])


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


def _assembly(data: MgtData, params: MgtParams, grid: TimeGrid):
    """The kernels, the sampled Dirichlet data and the assembly of a mode group.

    assemble(out, cols) writes the right-hand sides of the v, v_t and v_tt
    solves for the modes cols into the three planes of out, of shape
    (3, steps+1, modes): H, H_t - k v0 and H_tt - k' v0 - k v1 with k, k' the
    kernels and their time derivatives, v0 = w0 and v1 = gamma/2 w0 + w1.
    H comes from the twice integrated-by-parts form of the wave
    representation (terms in w0 - Dg(0), the shifted velocity datum, the
    lifting of g-tilde, the g-tilde_tt convolution and the source
    convolution); H_t and H_tt are its time derivatives.

    By angle addition every convolution with sin or cos of omega (t - s)
    reads cos(omega t) and sin(omega t) against the running trapezoid
    integrals Pc_k, Ps_k of cos(omega s) u_k and sin(omega s) u_k, for
    u_1 = dhat_tt, u_2 = rho source + ftilde_t and u_3 = source + ftilde.
    The kernel terms fold into per-mode constants, built once per group, so
    each plane is cos(omega t) X + sin(omega t) Y (+ e^{rho t} Z) plus its
    lifting term dhat or dhat_t, where X and Y are constants plus sums of
    the six integrals; no kernel is sampled on the grid.  The columns are
    built over the group's own row chunks, with phase rows from one
    PhaseRows per group and the integrals and the forcing transform carried
    from chunk to chunk; the group takes its columns of the lifting products
    and of the forcing samples at the chunk's times, and no forcing table is
    kept.  Each chunk temporary is dropped once read.
    """
    basis = data.basis
    gamma, rho = params.gamma, params.decay_exponent
    times, dt = grid.times, grid.dt
    kernels = build_kernel(params, basis)

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
    # w0 is harmonic so Lap w0 only sees the zero-trace coefficients.  Every
    # h is a constant times e^{rho t}, so the source is e^{rho t} source_0
    source_fixed = w2tot + params.b * basis.eigenvalues * data.w0.coeffs
    source_0 = _data_source(params, times[:1], w0tot, w1tot)[0] + source_fixed  # h2(0) = 1

    def assemble(out, cols):
        carry, kers = defaultdict(dict), kernels[cols]
        om, ka, kb, kc = kers.omega, kers.sin_coeff, kers.cos_coeff, kers.exp_coeff
        inv = 1.0 / om
        a0c, a1c, s0, v0, v1c = (x[cols] for x in (a0, a1, source_0, w0tot, v1))
        # the per-mode constants of cos, sin and e^{rho t} in each plane
        h_cos, h_sin = a0c, a1c * inv
        ht_cos, ht_sin, ht_exp = a1c - kb * v0, -om * a0c + s0 * inv - ka * v0, -kc * v0
        htt_cos = -om**2 * a0c + s0 - ka * om * v0 - kb * v1c
        htt_sin = -om * a1c + kb * om * v0 - ka * v1c
        htt_exp = -kc * (rho * v0 + v1c)
        lift_cols = lift[:, cols]
        phase = PhaseRows(om, times, dt)

        def sums(ct, st, u, name):
            # Pc and Ps of u, carried under name
            return (prefix_trapezoid(ct * u, dt, carry[name + " cos"]),
                    prefix_trapezoid(st * u, dt, carry[name + " sin"]))

        for rows in row_chunks(grid.steps + 1, cols.stop - cols.start):
            t = times[rows]
            ct, st = phase.rows(rows)
            dhat, dhat_t, dhat_tt = (x @ lift_cols for x in _gtilde(sig, gamma, t, rows))
            pc1, ps1 = sums(ct, st, dhat_tt, "dtt")
            del dhat_tt
            grow = np.exp(rho * t)[:, None]
            source = grow * s0
            source_t = rho * source
            if data.f is not None:
                ftilde, ftilde_t = forcing_transform(data.f.sample(t, basis.size)[:, cols],
                                                     params, grid, rows, carry["forcing"])
                source += ftilde
                source_t += ftilde_t
                del ftilde, ftilde_t
            pc3, ps3 = sums(ct, st, source, "source")
            del source
            h, ht, htt = (plane[rows, cols] for plane in out)
            h[:] = dhat + ct * (h_cos + (ps1 - ps3) * inv) + st * (h_sin + (pc3 - pc1) * inv)
            del pc3, ps3, dhat
            pc2, ps2 = sums(ct, st, source_t, "source_t")
            del source_t
            ht[:] = (dhat_t + grow * ht_exp + ct * (ht_cos - pc1 - ps2 * inv)
                     + st * (ht_sin - ps1 + pc2 * inv))
            del dhat_t
            htt[:] = (grow * htt_exp + ct * (htt_cos + pc2 - om * ps1)
                      + st * (htt_sin + ps2 + om * pc1))

    return kernels, sig, assemble


def _scan_group(kernels: KernelFamily, v: np.ndarray, dt: float) -> None:
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

    v holds the right-hand sides, shape (steps+1, k, modes) for the modes of
    kernels, and is overwritten with the solution; it may be a strided view.
    The k right-hand sides go through the same elementwise float operations
    as k separate solves, so neither batching, mode grouping nor the layout
    of v changes a bit.
    """
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


@dataclass
class SolutionBundle(Trajectory):
    """The solved trajectory, the forcing it was solved with, and diagnostics.

    w/wt/wtt are zero-trace coefficients completed by the lifting of the
    sampled Dirichlet data (boundary).  forcing is the interior forcing
    callable, None when the problem has none; the component "f" samples it
    on the grid on each read (zeros without forcing) and has no boundary
    part, so no forcing table outlives a read.
    """

    params: MgtParams
    forcing: ForcingData | None
    metadata: dict

    def interior(self, which: str) -> np.ndarray:
        if which != "f":
            return super().interior(which)
        if self.forcing is None:
            return np.zeros((self.grid.steps + 1, self.basis.size))
        return self.forcing.sample(self.grid.times, self.basis.size)

    def boundary_values(self, which: str) -> np.ndarray | None:
        return None if which == "f" else super().boundary_values(which)


def solve_mgt(data: MgtData, params: MgtParams, grid: TimeGrid) -> SolutionBundle:
    """Solve the MGT Cauchy-Dirichlet problem through the Volterra reduction.

    Three per-mode Volterra solves produce v, v_t, v_tt with right-hand sides
    H, H_t - L(t)v0, H_tt - (d/dt L(t))v0 - L(t)v1; the exponential transform
    is then undone via w = e^{-gamma t/2} v and the product-rule recovery of
    the derivatives.  Modes are independent throughout, so each mode group
    runs the whole route on its columns of one (3, steps+1, modes) buffer:
    it assembles the right-hand sides into the three planes, scans them in
    place as a (steps+1, 3, cols) view, and overwrites each plane with its
    output chunk by chunk; the planes are the bundle's w, wt and wtt.
    """
    # overflow of the exponential weights is reported once, by the
    # finite-output check below, not as a stream of numpy warnings; each
    # mode group notes the first bad time of each output in its columns
    names = ("w", "wt", "wtt")
    basis = data.basis
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = params.gamma
        times = grid.times
        kernels, sig, assemble = _assembly(data, params, grid)
        lift = basis.lift_matrix()
        buf = np.empty((3, grid.steps + 1, basis.size))

        def solve_group(cols):
            assemble(buf, cols)
            _scan_group(kernels[cols], np.moveaxis(buf[..., cols], 0, 1), grid.dt)
            bad = {}
            lift_cols = lift[:, cols]
            for rows in row_chunks(grid.steps + 1, cols.stop - cols.start):
                t = times[rows]
                dhats = [x @ lift_cols for x in _gtilde(sig, gamma, t, rows)]
                damp = np.exp(-0.5 * gamma * t)[:, None]
                w_int, wt_int, wtt_int = outs = [plane[rows, cols] for plane in buf]
                v_int, vt_int, vtt_int = (out - dhat for out, dhat in zip(outs, dhats))
                np.multiply(damp, v_int, out=w_int)
                np.multiply(damp, vt_int - 0.5 * gamma * v_int, out=wt_int)
                np.multiply(damp, vtt_int - gamma * vt_int + 0.25 * gamma**2 * v_int,
                            out=wtt_int)
                for name, chunk in zip(names, outs):
                    # min/max propagate NaN and +-inf, read while the chunk is in cache
                    if name not in bad and not (np.isfinite(chunk.min())
                                                and np.isfinite(chunk.max())):
                        bad[name] = t[np.argmin(np.all(np.isfinite(chunk), axis=1))]
            return bad

        first_bad = each_part(solve_group, mode_groups(basis.size))

    for name in names:
        found = [bad[name] for bad in first_bad if name in bad]
        if found:
            raise ReductionError(
                f"non-finite {name} from t = {min(found):.6g} on: the "
                "exponentially weighted transform left the float range")

    meta = {"compatible_position": data.compatible_position,
            "compatible_velocity": data.compatible_velocity,
            "mode_groups": len(mode_groups(basis.size)), "blas_threads": blas_threads()}
    bundle = SolutionBundle(basis, grid, *buf, sig, params=params,
                            forcing=data.f, metadata=meta)
    if basis.domain.kind == "interval":
        meta["trace_w_converged"] = bundle.trace("w").converged
        meta["trace_wt_converged"] = bundle.trace("wt").converged
    else:
        # pointwise normal traces are an interval-only diagnostic
        meta["traces"] = "unavailable on the square"
    return bundle
