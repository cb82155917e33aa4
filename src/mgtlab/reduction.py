"""Reduction of the MGT Cauchy-Dirichlet problem to per-mode Volterra solves.

Pipeline: take the constants of the exponential transform v = e^{gamma t/2} w
from MgtParams, assemble the per-mode memory kernel and the right-hand sides
built from the affine histories H, H_t, H_tt, run three collocated Volterra
solves for (v, v_t, v_tt), and undo the transform to recover (w, w_t, w_tt),
the whole function's.  Assembly streams over row chunks of the time grid,
and recovery over the row ranges that the scan finishes, so that no
grid-length phase table, history or forcing table is formed.  Modes are
independent through the whole route, so it runs in one pass over mode
groups (quadrature.mode_groups, each_part), one per core on wide bases:
each group assembles, scans and recovers its own columns of one buffer,
with its own carries and its columns of the lifting products, and with the
tables of its plan, built once per problem shape (group_plan).

The Trajectory carries the Dirichlet data, and takes the zero-trace part out
with its exact harmonic lifting where Sobolev norms and normal traces read
it, which keeps them honest for nonzero boundary data.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import (
    PhaseRows,
    blas_threads,
    block_length,
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
    _samples,
    group_plans,
)

COMPAT_TOL = 1e-8


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
        for name in ("alpha", "b", "c"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

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
        return _samples(self.modes, times, size, "forcing callable", "modes")


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
        kind = basis.domain.kind
        for name, other in (("w1", self.w1), ("w2", self.w2)):
            if (other.basis.domain.kind, other.basis.mode_count) != (kind, basis.mode_count):
                raise ValueError(
                    f"data fields must share one basis: w0 has mode count {basis.mode_count} "
                    f"on the {kind}, {name} {other.basis.mode_count} on the "
                    f"{other.basis.domain.kind}")
        nodes = basis.domain.boundary_size
        if self.g is not None and self.g.nodes != nodes:
            raise ValueError(f"Dirichlet data has {self.g.nodes} boundary nodes, the {kind} {nodes}")
        g0 = gt0 = np.zeros(nodes)
        if self.g is not None:
            g0, gt0 = (_samples(fn, np.zeros(1), nodes)[0] for fn in (self.g.g, self.g.gt))
        self.compatible_position = bool(
            np.max(np.abs(self.w0.boundary_values() - g0)) <= COMPAT_TOL)
        self.compatible_velocity = bool(
            np.max(np.abs(self.w1.boundary_values() - gt0)) <= COMPAT_TOL)

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
    # in place in the fresh lam and conv, f_samples left as it is:
    # ftilde = envelope (lam + gamma conv), lam_t = f - alpha lam,
    # conv_t = lam - (c^2/b) conv and
    # ftilde_t = gamma/2 ftilde + envelope (lam_t + gamma conv_t)
    ftilde = np.multiply(conv, gamma)
    np.add(lam, ftilde, out=ftilde)
    ftilde *= envelope
    conv *= params.c**2 / params.b
    conv_t = np.subtract(lam, conv, out=conv)
    lam *= params.alpha
    lam_t = np.subtract(f_samples, lam, out=lam)
    conv_t *= gamma
    lam_t += conv_t
    lam_t *= envelope
    ftilde_t = np.multiply(ftilde, 0.5 * gamma, out=conv_t)
    ftilde_t += lam_t
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
    """The sampled Dirichlet data and the assembly of a mode group.

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
    built over the group's own row chunks, with the kernels and phase rows
    of the group's plan (group_plan) and the integrals and the forcing
    transform carried from chunk to chunk; the group takes its columns of
    the lifting products and of the forcing samples at the chunk's times,
    and no forcing table is kept.  Each plane is formed in place in its rows
    of out, the chunk arrays that are read for the last time serving as
    scratch, so a chunk allocates few temporaries.
    """
    basis = data.basis
    gamma, rho = params.gamma, params.decay_exponent
    times, dt = grid.times, grid.dt

    sig = (data.g.sample(grid) if data.g is not None
           else BoundarySignal.zero(grid, basis.domain.boundary_size))
    lift = basis.lift_matrix

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
    # h is a constant times e^{rho t}, so the source is e^{rho t} source_0.
    # Consistency with the original equation fixes the signs: the memory
    # residual R = v_tt + b mu v - beta v - K*v satisfies R' = rho R, hence
    # R(t) = e^{rho t} [w2 + gamma w1 + (gamma^2/4 - beta + b mu) w0], so
    # h0 = gamma (gamma - alpha) e^{rho t}, h1 = gamma e^{rho t} and
    # h2 = e^{rho t}.  (At gamma = 0 the operator factorizes as (d/dt + alpha)
    # (d^2/dt^2 + b mu) and only h2 survives.)  The oracle pins these signs.
    source_fixed = w2tot + params.b * basis.eigenvalues * data.w0.coeffs
    source_0 = gamma * (gamma - params.alpha) * w0tot + gamma * w1tot + source_fixed

    def assemble(out, cols):
        carry, plan = defaultdict(dict), group_plan(params, basis, grid, cols)
        kers = plan.kernels
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

        def sums(ct, st, u, name):
            # Pc and Ps of u, carried under name, in place in fresh
            # products, the second in u, which is read no more
            return (prefix_trapezoid(np.multiply(ct, u), dt, carry[name + " cos"]),
                    prefix_trapezoid(np.multiply(st, u, out=u), dt, carry[name + " sin"]))

        for rows in row_chunks(grid.steps + 1, cols.stop - cols.start):
            t = times[rows]
            ct, st = plan.phase.rows(rows)
            dhat, dhat_t, dhat_tt = (x @ lift_cols for x in _gtilde(sig, gamma, t, rows))
            pc1, ps1 = sums(ct, st, dhat_tt, "dtt")
            grow = np.exp(rho * t)[:, None]
            source = grow * s0
            source_t = np.multiply(source, rho)
            if data.f is not None:
                ftilde, ftilde_t = forcing_transform(data.f.sample(t, basis.size)[:, cols],
                                                     params, grid, rows, carry["forcing"])
                source += ftilde
                source_t += ftilde_t
                del ftilde, ftilde_t
            pc3, ps3 = sums(ct, st, source, "source")
            # each plane is formed in its view of out, arrays read for the
            # last time serving as scratch; every operation keeps the
            # operands and association of the formula above its chain
            h, ht, htt = (plane[rows, cols] for plane in out)
            # h = dhat + ct (h_cos + (ps1 - ps3) inv) + st (h_sin + (pc3 - pc1) inv)
            x = np.subtract(ps1, ps3, out=ps3)
            x *= inv
            x += h_cos
            x *= ct
            np.add(dhat, x, out=h)
            y = np.subtract(pc3, pc1, out=pc3)
            y *= inv
            y += h_sin
            y *= st
            h += y
            pc2, ps2 = sums(ct, st, source_t, "source_t")
            # ht = dhat_t + grow ht_exp + ct (ht_cos - pc1 - ps2 inv)
            #      + st (ht_sin - ps1 + pc2 inv)
            np.add(dhat_t, np.multiply(grow, ht_exp, out=x), out=ht)
            np.subtract(ht_cos, pc1, out=x)
            x -= np.multiply(ps2, inv, out=y)
            x *= ct
            ht += x
            np.subtract(ht_sin, ps1, out=x)
            x += np.multiply(pc2, inv, out=y)
            x *= st
            ht += x
            # htt = grow htt_exp + ct (htt_cos + pc2 - om ps1)
            #       + st (htt_sin + ps2 + om pc1)
            np.multiply(grow, htt_exp, out=htt)
            pc2 += htt_cos
            pc2 -= np.multiply(om, ps1, out=ps1)
            pc2 *= ct
            htt += pc2
            ps2 += htt_sin
            ps2 += np.multiply(om, pc1, out=pc1)
            ps2 *= st
            htt += ps2

    return sig, assemble


@dataclass(frozen=True)
class GroupPlan:
    """The tables of one mode group's Volterra route on one grid, read-only.

    kernels and phase (quadrature.PhaseRows) serve the assembly; the rest the scan
    (_scan_group): dt, em1 = e^{rho dt} - 1 and, each laid out as
    contiguous (3, modes) rows, one per right-hand side, so that the scan's
    updates of (..., 3, modes) states run as 3 x modes inner loops:
    kvec (3, 3, n), k = (B, A, C) in the frame's order (cos, sin, exp);
    turn (2, 3, n), cos(omega dt) - 1 and sin(omega dt); counter (2, 3, n),
    -sin(omega dt) and cos(omega dt) - 1; reads (L, 3, 3, n), reads[i, j]
    the component j of the read-out row dt k^T M^i, i < L; and carry
    (3, 3, 3, n), carry[j, i] the (i, j) entry of the block carry M^L - I.
    A 128-mode group on 10^4 steps holds 1.4 MB.
    """

    kernels: KernelFamily
    phase: PhaseRows
    dt: float
    em1: float
    kvec: np.ndarray
    turn: np.ndarray
    counter: np.ndarray
    reads: np.ndarray
    carry: np.ndarray


def _rows(values: np.ndarray) -> np.ndarray:
    """values (..., n) as read-only contiguous (..., 3, n) rows."""
    out = np.ascontiguousarray(np.broadcast_to(values[..., None, :],
                                               values.shape[:-1] + (3, values.shape[-1])))
    out.flags.writeable = False
    return out


@group_plans
def group_plan(params: MgtParams, basis: EigenBasis, grid: TimeGrid, cols: slice) -> GroupPlan:
    """The GroupPlan of the modes cols of basis on grid, built once per
    value of its key (spectral.group_plans)."""
    kernels = build_kernel(params, basis)[cols]
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
    length = block_length(grid.steps)
    # M^i - I for i = 0..L; memory read-out rows dt k^T M^i
    pw = power_increments(grot @ (np.eye(3) - kick) - kick, length)
    reads = dt * (kvec[:, None, :] @ (pw[:length] + np.eye(3)))[:, :, 0]
    for array in kernels.omega, kernels.sin_coeff, kernels.cos_coeff, kernels.exp_coeff:
        array.flags.writeable = False
    return GroupPlan(kernels, PhaseRows(kernels.omega, grid.times, dt), dt, em1,
                     _rows(kvec.T), _rows(np.stack([cm1, sn])), _rows(np.stack([-sn, cm1])),
                     _rows(np.moveaxis(reads, -1, 1)),
                     _rows(np.transpose(pw[length], (2, 1, 0))))


def _scan_group(plan: GroupPlan, v: np.ndarray, done: Callable[[slice], None]) -> None:
    """Trapezoid collocation for the structured kernel, as a blocked linear scan.

    In the rotating frame X_m = sum_{j<m} w_j (cos, sin, e^rho)(t_m - t_j) v_j
    (trapezoid weights w_j, w_0 = 1/2) the memory sum is dt k.X_m with
    k = (B, A, C), so v_m = rhs_m - dt k.X_m and X_{m+1} = G (X_m + w_m e v_m)
    with e = (1, 0, 1) and G = rot(omega dt) + e^{rho dt}: per mode an order-3
    linear recurrence with one-step map M = G (I - dt e k^T) from m = 1 on,
    run as a blocked scan (quadrature.scan_blocks).  The kernel vanishes at
    0, so the step is explicit; the equations are identical to the
    collocation referee solve_direct (tests/reference.py) with trapezoid
    weights.  G - I and M - I are formed without cancellation
    (half-angle sine, expm1), so that their rounding does not build up.

    v holds the right-hand sides, shape (steps+1, k, modes), k <= 3, for the
    modes of plan (GroupPlan), and is overwritten with the solution; it may
    be a strided view.  The zero-state pass updates all three frame
    components of a run of blocks of a segment at once, the runs the row
    chunks of the segment's blocks by the width of one block row
    (quadrature.row_chunks), so that its working arrays stay in cache; the
    carry pass then carries the block-start states X from block to block
    and subtracts their read-outs dt k^T M^i X from a run of blocks at a
    time, the row chunks of the segment's blocks by their whole width.
    done is called with each range of rows as soon as its read-outs are
    subtracted, while they are in cache: slices of v's rows, in order,
    covering 0..steps once.  The k right-hand sides go through the same
    elementwise float operations as k separate solves, so neither batching,
    mode grouping, the runs nor the layout of v changes a bit.
    """
    k, dt, em1 = v.shape[1], plan.dt, plan.em1
    kvec, turn, counter, reads, carry = (table[..., :k, :] for table in (
        plan.kvec, plan.turn, plan.counter, plan.reads, plan.carry))

    def zero_state(blocks, x):
        # the collocation inside every block of a run at once, from X = 0
        # (x, zero on entry), on the frame states x = (cos, sin, exp); each
        # product goes through a buffer, and B xc + A xs and cm1 xc + (-sn xs)
        # round as the plain A xs + B xc and cm1 xc - sn xs do
        scratch = np.empty((4,) + x.shape[1:])
        prod, turned, back = scratch[:3], scratch[:2], scratch[2:]
        for i in range(blocks.shape[1]):
            vi = blocks[:, i]
            kick = np.multiply(kvec[:, None], x, out=prod)[0]
            kick += prod[1]
            kick += prod[2]
            kick *= dt
            vi -= kick
            x[::2] += vi
            # xc + (cm1 xc - sn xs), xs + (sn xc + cm1 xs)
            np.multiply(turn[:, None], x[0], out=turned)
            turned += np.multiply(counter[:, None], x[1], out=back)
            x[:2] += turned
            x[2] += np.multiply(em1, x[2], out=prod[0])

    # X at row 1 is G e v_0 / 2; carry it from block to block
    x = 0.5 * np.stack([(1.0 + turn[0]) * v[0], turn[1] * v[0], (1.0 + em1) * v[0]])
    terms = np.empty((3,) + x.shape)
    # rows 0..stop are solved, rows 0..handed handed to done
    handed, stop = 0, 1
    for seg in scan_blocks(v[1:]):
        ends = np.zeros((3,) + seg[:, 0].shape)
        for part in row_chunks(len(seg), seg[0, 0].size):
            zero_state(seg[part], ends[:, part])
        rows = seg.shape[1]
        for part in row_chunks(len(seg), seg[0].size):
            n = part.stop - part.start
            starts = np.empty((n + 1,) + x.shape)
            starts[0] = x
            for i in range(n):
                # X' = X + ((M^L - I) X + end)
                start, x = starts[i], starts[i + 1]
                np.multiply(carry, start[:, None], out=terms)
                np.add(terms[0], terms[1], out=x)
                x += terms[2]
                x += ends[:, part.start + i]
                x += start
            acc = np.multiply(reads[:rows, 0], starts[:n, None, 0])
            tmp = np.empty_like(acc)
            for j in (1, 2):
                acc += np.multiply(reads[:rows, j], starts[:n, None, j], out=tmp)
            seg[part] -= acc
            stop += n * rows
            done(slice(handed, stop))
            handed = stop


def _solved(traj: Trajectory, data: MgtData) -> Trajectory:
    """traj, a solution of data by either route, with the solve's metadata:
    the compatibility flags, the mode-group and BLAS thread counts and, on
    the interval, the convergence flags of the normal traces of w and w_t.
    The flags Cauchy-test the zero-trace part, taken out with the boundary
    signal, which the oracle does not carry: it records None and takes no
    trace."""
    traj.metadata.update(compatible_position=data.compatible_position,
                         compatible_velocity=data.compatible_velocity,
                         mode_groups=len(mode_groups(data.basis.size)),
                         blas_threads=blas_threads())
    if data.basis.domain.kind == "interval":
        zero_trace = traj.boundary is not None
        traj.metadata.update({f"trace_{which}_converged":
                              traj.trace(which).converged if zero_trace else None
                              for which in ("w", "wt")})
    else:
        # pointwise normal traces are an interval-only diagnostic
        traj.metadata["traces"] = "unavailable on the square"
    return traj


def solve_mgt(data: MgtData, params: MgtParams, grid: TimeGrid) -> Trajectory:
    """Solve the MGT Cauchy-Dirichlet problem through the Volterra reduction.

    Three per-mode Volterra solves produce v, v_t, v_tt with right-hand sides
    H, H_t - L(t)v0, H_tt - (d/dt L(t))v0 - L(t)v1; the exponential transform
    is then undone via w = e^{-gamma t/2} v and the product-rule recovery of
    the derivatives.  Modes are independent throughout, so each mode group
    runs the whole route on its columns of one (3, steps+1, modes) buffer:
    it assembles the right-hand sides into the three planes, scans them in
    place as a (steps+1, 3, cols) view, and overwrites each plane with its
    output one range of rows at a time, each as soon as the scan's carry
    pass has finished it and while it is in cache (_scan_group's done); the
    planes are the trajectory's w, wt and wtt, whole-function coefficients.
    """
    # overflow of the exponential weights is reported once, by the
    # finite-output check below, not as a stream of numpy warnings; each
    # mode group notes the first bad time of each output in its columns
    names = ("w", "wt", "wtt")
    basis = data.basis
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = params.gamma
        times = grid.times
        sig, assemble = _assembly(data, params, grid)
        buf = np.empty((3, grid.steps + 1, basis.size))

        def solve_group(cols):
            assemble(buf, cols)
            bad = {}

            def recover(rows):
                # undo the transform in place on rows the scan has just finished,
                # damp (v_tt - gamma v_t + gamma^2/4 v), damp (v_t - gamma/2 v), damp v
                t = times[rows]
                damp = np.exp(-0.5 * gamma * t)[:, None]
                v, vt, vtt = outs = [plane[rows, cols] for plane in buf]
                x = np.multiply(vt, gamma)
                vtt -= x
                vtt += np.multiply(v, 0.25 * gamma**2, out=x)
                vtt *= damp
                vt -= np.multiply(v, 0.5 * gamma, out=x)
                vt *= damp
                v *= damp
                for name, chunk in zip(names, outs):
                    # min/max propagate NaN and +-inf, read while the rows are in cache
                    if name not in bad and not (np.isfinite(chunk.min())
                                                and np.isfinite(chunk.max())):
                        bad[name] = t[np.argmin(np.all(np.isfinite(chunk), axis=1))]

            _scan_group(group_plan(params, basis, grid, cols),
                        np.moveaxis(buf[..., cols], 0, 1), recover)
            return bad

        first_bad = each_part(solve_group, mode_groups(basis.size))

    for name in names:
        found = [bad[name] for bad in first_bad if name in bad]
        if found:
            raise FloatingPointError(
                f"non-finite {name} from t = {min(found):.6g} on: the "
                "exponentially weighted transform left the float range")

    return _solved(Trajectory(basis, grid, *buf, sig, forcing=data.f), data)
