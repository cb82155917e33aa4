"""Independent ground truth: per-mode third-order ODE integration by RK4.

Projecting the MGT equation on a Dirichlet eigenfunction e_k gives
    w_k''' + alpha w_k'' + b mu_k w_k' + c^2 mu_k w_k
        = f_k - c^2 q_k(t) - b q_k'(t),
where q_k(t) is the boundary pairing of the Dirichlet datum with d_nu e_k.
The cubic r^3 + alpha r^2 + b mu r + c^2 mu is the per-mode symbol; its root
pattern (characteristic_roots in tests/reference.py) encodes the
uniform-stability threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import (
    block_length,
    each_part,
    mode_groups,
    power_increments,
    row_chunks,
    scan_blocks,
)
from .reduction import MgtData, MgtParams, _solved
from .spectral import EigenBasis, TimeGrid, Trajectory, _samples, group_plans


@dataclass(frozen=True)
class OraclePlan:
    """The tables of one mode group's RK4 scan on one grid, read-only.

    weights (3, 3, n): the source weights dt/6 (P_0, P_1/2, P_1), each
    component j a contiguous row (the last, dt/6 e_3, is exactly zero in
    components 0 and 1, so the input build adds it to component 2 alone);
    flux (nodes, n): the group's columns of the boundary flux; powers
    (L+1, 3, 3, n): R^i - I for i = 0..L, component-major.  The powers
    multiply whole states in the carry, so their rounding is the scan's
    largest error where a state's components differ in scale: they are
    taken in extended precision (where numpy's longdouble has it) and
    rounded once.  A 128-mode group on 10^4 steps holds 0.95 MB.  unstable
    is None, or (column, |R(dt lambda)|) of the group's mode whose root
    lambda of A, with Re lambda <= 0, RK4 amplifies the most past 1 + 1e-9,
    where R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: dt is past RK4's stability
    limit there.
    """

    weights: np.ndarray
    flux: np.ndarray
    powers: np.ndarray
    unstable: tuple[int, float] | None


@group_plans
def oracle_plan(params: MgtParams, basis: EigenBasis, grid: TimeGrid, cols: slice) -> OraclePlan:
    """The OraclePlan of the modes cols of basis on grid, built once per
    value of its key (spectral.group_plans)."""
    mu = basis.eigenvalues[cols]
    dt = grid.dt
    # dt A per mode, the companion matrix of the projected equation
    ha = np.zeros((len(mu), 3, 3))
    ha[:, 0, 1] = ha[:, 1, 2] = dt
    ha[:, 2] = -dt * np.stack([params.c**2 * mu, params.b * mu,
                               np.full(len(mu), params.alpha)], axis=-1)
    eye = np.eye(3)
    step = ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)  # R - I
    a1 = ha[:, :, 2]                    # dt A e_3
    a2 = (ha @ a1[:, :, None])[:, :, 0]
    a3 = (ha @ a2[:, :, None])[:, :, 0]
    e3 = eye[2]
    weights = dt / 6.0 * np.stack([e3 + a1 + a2 / 2.0 + a3 / 4.0,
                                   4.0 * e3 + 2.0 * a1 + a2 / 2.0,
                                   np.broadcast_to(e3, a1.shape)])
    powers = power_increments(step.astype(np.longdouble), block_length(grid.steps)).astype(float)
    tables = (np.ascontiguousarray(np.moveaxis(weights, -1, 1)),
              np.ascontiguousarray(basis.boundary_flux[:, cols]),
              np.ascontiguousarray(np.moveaxis(powers, 1, -1)))
    for table in tables:
        table.flags.writeable = False
    # RK4's amplification of each decaying or neutral root of dt A
    z = np.linalg.eigvals(ha)
    growth = np.where(z.real <= 0.0, np.abs(1 + z * (1 + z * (1 + z * (1 + z / 4) / 3) / 2)),
                      0.0).max(axis=1)
    worst = int(np.argmax(growth))
    unstable = (cols.start + worst, float(growth[worst])) if growth[worst] > 1 + 1e-9 else None
    return OraclePlan(*tables, unstable)


def solve_by_modes(data: MgtData, params: MgtParams, grid: TimeGrid) -> Trajectory:
    """Integrate every projected mode with RK4; the cross-validation oracle.

    The states are total eigen-coefficients, so the trajectory carries no
    boundary signal; it carries the forcing and the metadata of solve_mgt's.

    Each mode group (quadrature.mode_groups) runs on its own core and
    weights the source into its columns of the state buffer, one row chunk
    at a time; a chunk samples RK4's stage times once each, its step ends
    t_m (shared by neighbouring steps) and midpoints t_m + dt/2, and weights
    them in one broadcast pass (the end weight, dt/6 e_3, into component 2
    alone).  For
    y' = A y + e_3 s(t) one RK4 step is exactly
    y_{m+1} = R y_m + dt/6 (P_0 s_m + P_1/2 s_{m+1/2} + P_1 s_{m+1}) with R
    the degree-4 Taylor polynomial of dt A, so the steps run as a blocked
    linear scan (quadrature.scan_blocks) on the state buffer, which first
    holds the inputs.  Like RK4's own update, each step adds a small
    increment (R - I) y + input to y.  Modes are independent in the scan, so
    each mode group goes on to scan its own columns in the same pass, with
    the tables of its plan (oracle_plan).
    The scalar, step-by-step RK4 referee is in tests/reference.py.
    """
    basis = data.basis
    c2, b = params.c**2, params.b
    steps, dt = grid.steps, grid.dt
    size = basis.size

    states = np.empty((steps + 1, 3, size))
    states[0] = (data.w0.total_coeffs(), data.w1.total_coeffs(),
                 data.w2.total_coeffs())
    body = states[1:]

    def solve_group(cols):
        plan = oracle_plan(params, basis, grid, cols)

        def source(ts):
            src = (data.f.sample(ts, size)[:, cols] if data.f is not None
                   else np.zeros((len(ts), cols.stop - cols.start)))
            if data.g is not None:
                g, gt = (_samples(fn, ts, data.g.nodes) for fn in (data.g.g, data.g.gt))
                # src - c^2 (g flux) - b (gt flux), in the fresh products
                flux = g @ plan.flux
                flux *= c2
                src = np.subtract(src, flux, out=flux)
                flux = gt @ plan.flux
                flux *= b
                src -= flux
            return src

        # the sources at each distinct stage time of a chunk's steps: its
        # step ends t_m (shared by neighbouring steps) and midpoints, each
        # weighted term through one scratch
        w0, w1, w2 = plan.weights
        chunks = row_chunks(steps, cols.stop - cols.start)
        scratch = np.empty((max(c.stop - c.start for c in chunks), 3, cols.stop - cols.start))
        for rows in chunks:
            t = np.arange(rows.start, rows.stop + 1) * dt
            ends = source(t)
            out, term = body[rows, :, cols], scratch[:rows.stop - rows.start]
            np.multiply(w0, ends[:-1, None], out=out)
            out += np.multiply(w1, source(t[:-1] + dt / 2)[:, None], out=term)
            out[:, 2] += np.multiply(w2[2], ends[1:], out=term[:, 2])
        # past RK4's stability limit the scan overflows: one error below, no warnings
        with np.errstate(over="ignore", invalid="ignore"):
            _scan_group(plan.powers, states[..., cols])
        return plan.unstable

    unstable = [found for found in each_part(solve_group, mode_groups(size)) if found]
    # non-finite states are absorbing in the linear scan: the last one tells
    if not np.isfinite(states[-1]).all():
        bad = np.argmin(np.isfinite(states).all(axis=(1, 2)))
        raise FloatingPointError(
            f"RK4 oracle: non-finite state from t = {grid.times[bad]:.6g} on: "
            "dt may be past the RK4 stability limit of the highest mode")
    # past the limit the states can also stay finite, and wrong
    if unstable:
        col, growth = max(unstable, key=lambda found: found[1])
        raise FloatingPointError(
            f"RK4 oracle: mode {col} (eigenvalue {basis.eigenvalues[col]:.6g}) is past the "
            f"RK4 stability limit at dt = {dt:.6g}: |R(dt lambda)| = {growth:.6g} > 1")
    return _solved(Trajectory(basis, grid, states[:, 0], states[:, 1], states[:, 2], None,
                              forcing=data.f), data)


def _scan_group(pw: np.ndarray, states: np.ndarray) -> None:
    """solve_by_modes' scan on the (steps+1, 3, modes) columns states, whose
    row 0 holds the initial state and later rows the inputs; pw holds
    R^i - I for i = 0..L (OraclePlan.powers).

    The zero-state pass runs inside every block of a run of blocks at once,
    the runs the row chunks of each segment's blocks by the width of one
    block row (quadrature.row_chunks), so that its working arrays stay in
    cache; the carry pass then adds R^{i+1} times the state before each
    block, block by block.  Every block takes the same float operations
    however the blocks are grouped."""
    segments = scan_blocks(states[1:])
    # each pass sums its three products ((p0 + p1) + p2) in buffers
    one = pw[1]
    for seg in segments:
        # zero-state pass inside every block of a run at once
        for part in row_chunks(len(seg), seg[0, 0].size):
            blocks = seg[part]
            acc, tmp = np.empty((2,) + blocks[:, 0].shape)
            for i in range(1, blocks.shape[1]):
                prev, row = blocks[:, i - 1], blocks[:, i]
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
