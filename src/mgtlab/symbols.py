"""First-order system symbol analysis: eigenstructure, Lopatinskii, estimates.

The exponential weight beta enters through s = i*tau + beta; the tangential
symbol matrix G, the singular normal matrix A^d = diag(1, 1, 0) and the
boundary row B = (1, 0, 0) define the generalized eigenproblem
lambda A^d z = G z whose stable subspace carries the uniform Lopatinskii
check |Bz| >= const * |z| over the normalized frequency sphere.  The sweep
evaluates the stable eigenvalue in closed form over arrays of frequencies;
the pencil itself and its per-point eigenstructure are the sweep's
reference in tests/reference.py.  Beside the sweep sit the estimate probes
and the boundary-to-interior probe of the symbols runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import PhaseRows, composite_weights, prefix_trapezoid
from .spectral import BoundarySignal, EigenBasis, TimeGrid, gram_forms, gram_rows, row_forms


def _stable_eigenvalue(tau, beta, eta_sq, b: float):
    """lam_- at scalar or array frequencies, the negated principal root of
    lambda^2 = |eta|^2 + (i tau + beta)^2 / b (squared by real and
    imaginary parts)."""
    lam = np.sqrt(eta_sq + (beta * beta - tau * tau) / b + 1j * (2.0 * beta * tau / b))
    return np.where(lam.real < 0, lam, -lam)


def analytic_ratio_floor(b: float) -> float:
    """Lower bound for the sweep: |lam|^2 <= max(1, 1/b) on the unit sphere."""
    m = max(1.0, 1.0 / b)
    return 1.0 / np.sqrt(1.0 + m + m**2)


@dataclass
class SweepResult:
    minimum: float
    floor: float
    rows: np.ndarray  # columns: tau, beta, eta, ratio


def lopatinskii_sweep(b: float, samples: int = 10000, beta_min: float = 1e-6,
                      seed: int = 0) -> SweepResult:
    """Minimum of |Bz|/|z| over the normalized sphere with beta in (0, 1].

    The sample set mixes seeded random sphere points with a deterministic
    log grid in beta down to beta_min, which stresses the beta-independent
    (uniform) character of the bound near the degenerate limit.
    """
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    rng = np.random.default_rng(seed)
    n_grid = max(samples // 5, 100)
    betas_grid = np.geomspace(beta_min, 1.0, 50)
    angles = np.linspace(0.0, 2.0 * np.pi, max(n_grid // 50, 8), endpoint=False)
    rim = np.sqrt(np.maximum(1.0 - betas_grid**2, 0.0))
    n_rand = samples - betas_grid.size * angles.size
    raw = rng.normal(size=(n_rand, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    tau = np.concatenate([np.outer(rim, np.cos(angles)).ravel(), raw[:, 0]])
    beta = np.concatenate([np.repeat(betas_grid, angles.size),
                           np.maximum(np.abs(raw[:, 1]), beta_min)])
    eta = np.concatenate([np.outer(rim, np.sin(angles)).ravel(), raw[:, 2]])

    # onto the unit sphere, then |B z| / |z| = 1 / |(1, lam_-, lam_-^2)|
    scale = np.sqrt(tau**2 + beta**2 + eta**2)
    tau, beta, eta = tau / scale, beta / scale, eta / scale
    lam = _stable_eigenvalue(tau, beta, eta**2, b)
    ratio = 1.0 / np.sqrt(1.0 + np.abs(lam)**2 + np.abs(lam**2)**2)
    rows = np.column_stack([tau, beta, eta, ratio])
    return SweepResult(minimum=float(ratio.min()), floor=analytic_ratio_floor(b), rows=rows)


# -- estimate probes ----------------------------------------------------------


@dataclass
class ProbeResult:
    ratio: float  # left side over right side: 0 if both vanish, inf if only the right does


def estimate_probe(bundle, data, which: str, weight_beta: float = 2.0,
                   space_points: int = 256) -> ProbeResult:
    """Assemble one side-by-side estimate ratio from grid norms.

    which="resolvent_4a": beta||u||_{2,b,Q}^2 + ||d_x u||_{1,b,S}^2 against
    (1/beta)||e^{-bt} f||_Q^2 + ||u||_{2,b,S}^2 for u = e^{-beta t} w.
    which="semigroup_10": the finite-horizon, unweighted energy estimate with
    terminal norms, interior H^2(Q) norm and the H^1(Sigma) trace norm on the
    left, data norms on the right.  The ratio is left side over right side:
    0 when both sides vanish, inf when only the right side does.  Ratios are
    reported, never asserted against a specific constant.
    """
    if which not in ("resolvent_4a", "semigroup_10"):
        raise ValueError(f"unknown probe {which!r}")
    lhs, rhs = _probe_sides(bundle, data, which, weight_beta, space_points)
    if rhs == 0.0:
        # resolvent_4a's right side has no initial-data term, so it vanishes
        # under nonzero initial data without Dirichlet data or forcing
        return ProbeResult(0.0 if lhs == 0.0 else math.inf)
    return ProbeResult(lhs / rhs)


def _probe_sides(bundle, data, which: str, beta: float,
                 space_points: int) -> tuple[float, float]:
    """Both sides of a probe from the Gram forms of the grid norms.

    Space norms on the (space_points+1)-point grid are Gram forms of the
    coefficient rows (spectral.gram_forms); time integrals are trapezoid
    weights over those per-time forms.
    """
    g0, g1, g2 = gram_forms(bundle.basis, space_points)
    grid = bundle.grid
    weights = composite_weights(grid.steps, grid.dt)
    g, g_t, g_tt = (bundle.boundary_values(comp) for comp in ("w", "wt", "wtt"))
    y_w, y_wt, y_wtt = (bundle.gram_rows(comp) for comp in ("w", "wt", "wtt"))
    trace_w = bundle.trace("w").series
    trace_wt = bundle.trace("wt").series
    y_f = None if data.f is None else gram_rows(data.f.sample(grid.times, bundle.basis.size))
    sq = lambda arr: (arr**2).sum(axis=1)

    if which == "resolvent_4a":
        env = np.exp(-beta * grid.times)[:, None]
        u = env * y_w
        u_t = env * (y_wt - beta * y_w)
        u_tt = env * (y_wtt - 2.0 * beta * y_wt + beta**2 * y_w)
        lhs_q = (row_forms(u, beta**4 * g0 + beta**2 * g1 + g2)
                 + row_forms(u_t, beta**2 * g0 + g1) + row_forms(u_tt, g0))
        tr = env * trace_w
        tr_t = env * (trace_wt - beta * trace_w)
        lhs = weights @ (beta * lhs_q + beta**2 * sq(tr) + sq(tr_t))
        rhs_q = 0.0 if y_f is None else weights @ row_forms(env * y_f, g0) / beta
        ub = env * g
        ub_t = env * (g_t - beta * g)
        ub_tt = env * (g_tt - 2.0 * beta * g_t + beta**2 * g)
        rhs_s = weights @ (beta**4 * sq(ub) + beta**2 * sq(ub_t) + sq(ub_tt))
        return float(lhs), float(rhs_q + rhs_s)

    # semigroup_10, s = 0, finite horizon without exponential weights
    h2, h1 = g0 + g1 + g2, g0 + g1
    energy = row_forms(y_w, h2) + row_forms(y_wt, h1) + row_forms(y_wtt, g0)
    lhs = energy[-1] + weights @ (energy + sq(trace_w) + sq(trace_wt))
    rhs = weights @ (sq(g) + sq(g_t) + sq(g_tt))
    if y_f is not None:
        rhs += weights @ row_forms(y_f, g0)
    for field, gram in ((data.w0, h2), (data.w1, h1), (data.w2, g0)):
        y = gram_rows(field.coeffs, field.boundary)
        rhs += y @ gram @ y
    return float(lhs), float(rhs)



# -- boundary-to-interior probe ----------------------------------------------


def boundary_convolution_probe(basis: EigenBasis, speed: float, g: BoundarySignal,
                               grid: TimeGrid) -> np.ndarray:
    """C([0,T]; L2) norm series witnessing boundary-to-interior regularity.

    Returns the (steps+1,) L2 norms of A int R_-(t-s) D g(s) ds for the wave
    family of frequencies omega = speed * sqrt(mu): by angle addition the
    sine convolution is sin(omega t) Pc - cos(omega t) Ps, with Pc and Ps the
    running integrals of cos(omega s) and sin(omega s) times the lifted data.
    """
    dhat = g.values @ basis.lift_matrix
    omega = speed * basis.sqrt_eigenvalues
    cos, sin = PhaseRows(omega, grid.times, grid.dt).rows(slice(0, grid.steps + 1))
    conv_s = sin * prefix_trapezoid(cos * dhat, grid.dt) - cos * prefix_trapezoid(sin * dhat,
                                                                                 grid.dt)
    return np.linalg.norm(basis.sqrt_eigenvalues * conv_s, axis=1)
