"""Independent ground truth: per-mode third-order ODE integration and roots.

Projecting the MGT equation on a Dirichlet eigenfunction e_k gives
    w_k''' + alpha w_k'' + b mu_k w_k' + c^2 mu_k w_k
        = f_k - c^2 q_k(t) - b q_k'(t),
where q_k(t) is the boundary pairing of the Dirichlet datum with d_nu e_k.
The cubic r^3 + alpha r^2 + b mu r + c^2 mu is the per-mode symbol; its root
pattern encodes the uniform-stability threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import (
    each_part,
    mode_groups,
    power_increments,
    row_chunks,
    scan_blocks,
)
from .reduction import MgtData, MgtParams
from .spectral import TimeGrid, Trajectory

_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)


@dataclass
class ModeOde:
    """One projected mode: eigenvalue, equation constants and the flux source."""

    mu: float
    params: MgtParams
    source: Callable[[float], float] | None = None


def _rk4(rhs, y0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    dt = grid.dt
    out = np.empty((grid.steps + 1,) + y0.shape)
    out[0] = y0
    y = y0
    for m in range(grid.steps):
        t = m * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[m + 1] = y
    return out


def integrate_mode(ode: ModeOde, initial: Sequence[float],
                   grid: TimeGrid) -> np.ndarray:
    """Classical RK4 integration of one mode; returns (steps+1, 3) states."""
    p = ode.params
    mu = ode.mu
    source = ode.source or (lambda t: 0.0)

    def rhs(t, y):
        return np.array([
            y[1],
            y[2],
            source(t) - p.alpha * y[2] - p.b * mu * y[1] - p.c**2 * mu * y[0],
        ])

    return _rk4(rhs, np.asarray(initial, dtype=float), grid)


def characteristic_roots(params: MgtParams, mu: float,
                         polish_steps: int = 2) -> np.ndarray:
    """Roots of r^3 + alpha r^2 + b mu r + c^2 mu by depressed cubic + Newton."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    alpha, b, c2 = params.alpha, params.b, params.c**2
    p = b * mu - alpha**2 / 3.0
    q = 2.0 * alpha**3 / 27.0 - alpha * b * mu / 3.0 + c2 * mu
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sqrt_disc = np.sqrt(complex(disc))
    u3 = -q / 2.0 + sqrt_disc
    scale = max(abs(p) ** 1.5, abs(q), 1e-30)
    if abs(u3) < 1e-14 * scale:
        u3 = -q / 2.0 - sqrt_disc
    if abs(u3) < 1e-14 * scale:
        # p and q both vanish: triple root of the depressed cubic
        roots = np.full(3, -alpha / 3.0, dtype=complex)
    else:
        u = u3 ** (1.0 / 3.0)
        us = _CUBE_ROOTS_OF_UNITY * u
        vs = -p / (3.0 * us)
        roots = us + vs - alpha / 3.0
    for _ in range(polish_steps):
        val = roots**3 + alpha * roots**2 + b * mu * roots + c2 * mu
        der = 3.0 * roots**2 + 2.0 * alpha * roots + b * mu
        safe = np.abs(der) > 1e-30
        roots = np.where(safe, roots - val / der, roots)
    return roots[np.lexsort((roots.imag, roots.real))]


def exact_exponential_solution(params: MgtParams, mu: float,
                               initial: Sequence[float],
                               times: np.ndarray) -> np.ndarray:
    """Closed-form homogeneous mode trajectory from the cubic's roots."""
    roots = characteristic_roots(params, mu)
    vand = np.vander(roots, 3, increasing=True).T
    coeff = np.linalg.solve(vand, np.asarray(initial, dtype=complex))
    vals = (coeff[None, :] * np.exp(np.outer(times, roots))).sum(axis=1)
    return vals.real


def solve_by_modes(data: MgtData, params: MgtParams, grid: TimeGrid) -> Trajectory:
    """Integrate every projected mode with RK4; the cross-validation oracle.

    The states are total eigen-coefficients, so the trajectory carries no
    boundary signal.

    Each mode group (quadrature.mode_groups) runs on its own core and
    weights the source into its columns of the state buffer, one row chunk
    at a time; a chunk samples RK4's stage times once each, its step ends
    t_m (shared by neighbouring steps) and midpoints t_m + dt/2.  For
    y' = A y + e_3 s(t) one RK4 step is exactly
    y_{m+1} = R y_m + dt/6 (P_0 s_m + P_1/2 s_{m+1/2} + P_1 s_{m+1}) with R
    the degree-4 Taylor polynomial of dt A, so the steps run as a blocked
    linear scan (quadrature.scan_blocks) on the state buffer, which first
    holds the inputs.  Like RK4's own update, each step adds a small
    increment (R - I) y + input to y.  Modes are independent in the scan, so
    each mode group goes on to scan its own columns in the same pass.
    _rk4/integrate_mode are the scalar reference.
    """
    basis = data.basis
    c2, b = params.c**2, params.b
    steps, dt = grid.steps, grid.dt
    size = basis.size

    # dt A per mode, the companion matrix of the projected equation
    ha = np.zeros((size, 3, 3))
    ha[:, 0, 1] = ha[:, 1, 2] = dt
    ha[:, 2] = -dt * np.stack([c2 * basis.eigenvalues, b * basis.eigenvalues,
                               np.full(size, params.alpha)], axis=-1)
    eye = np.eye(3)
    step = ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)  # R - I
    a1 = ha[:, :, 2]                    # dt A e_3
    a2 = (ha @ a1[:, :, None])[:, :, 0]
    a3 = (ha @ a2[:, :, None])[:, :, 0]
    e3 = eye[2]
    weights = dt / 6.0 * np.stack([e3 + a1 + a2 / 2.0 + a3 / 4.0,
                                   4.0 * e3 + 2.0 * a1 + a2 / 2.0,
                                   np.broadcast_to(e3, a1.shape)])

    states = np.empty((steps + 1, 3, size))
    states[0] = (data.w0.total_coeffs(), data.w1.total_coeffs(),
                 data.w2.total_coeffs())
    body = states[1:]
    flux = basis.boundary_flux()

    def source(ts, cols):
        src = (data.f.sample(ts, size)[:, cols] if data.f is not None
               else np.zeros((len(ts), cols.stop - cols.start)))
        if data.g is not None:
            src = src - c2 * (data.g.g(ts) @ flux[:, cols])
            src -= b * (data.g.gt(ts) @ flux[:, cols])
        return src

    def solve_group(cols):
        # the sources at each distinct stage time of a chunk's steps: its
        # step ends t_m (shared by neighbouring steps) and midpoints
        for rows in row_chunks(steps, cols.stop - cols.start):
            t = np.arange(rows.start, rows.stop + 1) * dt
            ends = source(t, cols)
            out = body[rows, :, cols]
            out[:] = 0.0
            for weight, src in zip(weights, (ends[:-1], source(t[:-1] + dt / 2, cols),
                                             ends[1:])):
                for j in range(3):
                    out[:, j] += weight[cols, j] * src
        # past RK4's stability limit the scan overflows: one error below, no warnings
        with np.errstate(over="ignore", invalid="ignore"):
            _scan_group(step[cols], states[..., cols])

    each_part(solve_group, mode_groups(size))
    # non-finite states are absorbing in the linear scan: the last one tells
    if not np.isfinite(states[-1]).all():
        bad = np.argmin(np.isfinite(states).all(axis=(1, 2)))
        raise FloatingPointError(
            f"RK4 oracle: non-finite state from t = {grid.times[bad]:.6g} on: "
            "dt may be past the RK4 stability limit of the highest mode")
    return Trajectory(basis, grid, states[:, 0], states[:, 1], states[:, 2], None)


def _scan_group(step: np.ndarray, states: np.ndarray) -> None:
    """solve_by_modes' scan on the (steps+1, 3, modes) columns states, whose
    row 0 holds the initial state and later rows the inputs; R - I is step."""
    segments = scan_blocks(states[1:])
    length = segments[0].shape[1]
    # R^i - I for i = 0..L, component-major and contiguous for the elementwise
    # products; each pass sums its three products ((p0 + p1) + p2) in buffers.
    # The carry multiplies whole states by these powers, so their rounding
    # is the scan's largest error where a state's components differ in
    # scale: they are taken in extended precision (where numpy's longdouble
    # has it) and rounded once
    pw = power_increments(step.astype(np.longdouble), length).astype(float)
    pw = np.ascontiguousarray(np.moveaxis(pw, 1, -1))
    one = pw[1]
    for seg in segments:
        # zero-state pass inside every block at once
        acc, tmp = np.empty((2,) + seg[:, 0].shape)
        for i in range(1, seg.shape[1]):
            prev, row = seg[:, i - 1], seg[:, i]
            np.multiply(one[:, 0], prev[:, 0, None], out=acc)
            for j in (1, 2):
                acc += np.multiply(one[:, j], prev[:, j, None], out=tmp)
            row += acc
            row += prev
    prev = states[0]
    acc, tmp = np.empty((2,) + segments[0][0].shape)
    for seg in segments:
        for block in seg:
            # add R^{i+1} times the state before the block
            n = block.shape[0]
            np.multiply(pw[1:n + 1, :, 0], prev[0], out=acc[:n])
            for j in (1, 2):
                acc[:n] += np.multiply(pw[1:n + 1, :, j], prev[j], out=tmp[:n])
            block += acc[:n]
            block += prev
            prev = block[-1]
