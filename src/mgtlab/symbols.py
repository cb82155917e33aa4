"""First-order system symbol analysis: eigenstructure, Lopatinskii, estimates.

The exponential weight beta enters through s = i*tau + beta; the tangential
symbol matrix G, the singular normal matrix A^d = diag(1, 1, 0) and the
boundary row B = (1, 0, 0) define the generalized eigenproblem
lambda A^d z = G z whose stable subspace carries the uniform Lopatinskii
check |Bz| >= const * |z| over the normalized frequency sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _l2sq, grid_sobolev_norm, trajectory_on_grid

AD = np.diag([1.0, 1.0, 0.0]).astype(complex)
B_ROW = np.array([1.0, 0.0, 0.0], dtype=complex)


@dataclass(frozen=True)
class FrequencyPoint:
    """Dual variables (tau, beta, eta) with |eta| entering only through eta^2."""

    tau: float
    weight_beta: float
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(self.eta, dtype=float)))

    @property
    def eta_sq(self) -> float:
        return float(np.dot(self.eta, self.eta))

    @property
    def norm_sq(self) -> float:
        return self.tau**2 + self.weight_beta**2 + self.eta_sq

    def normalized(self) -> "FrequencyPoint":
        """Scale onto the sphere tau^2 + beta^2 + |eta|^2 = 1."""
        scale = np.sqrt(self.norm_sq)
        if scale == 0:
            raise ValueError("cannot normalize the zero frequency")
        return FrequencyPoint(self.tau / scale, self.weight_beta / scale,
                              self.eta / scale)

    def scaled(self, factor: float) -> "FrequencyPoint":
        return FrequencyPoint(self.tau * factor, self.weight_beta * factor,
                              self.eta * factor)


@dataclass(frozen=True)
class SystemSymbol:
    """Tangential symbol matrix with the singular normal matrix and boundary row."""

    G: np.ndarray
    Ad: np.ndarray
    B: np.ndarray


def system_symbol(pt: FrequencyPoint, b: float) -> SystemSymbol:
    s = 1j * pt.tau + pt.weight_beta
    nsq = pt.norm_sq
    root = np.sqrt(nsq)
    G = np.array([
        [0.0, root, 0.0],
        [0.0, 0.0, root],
        [-(s**3 + b * pt.eta_sq * s) / nsq, 0.0, b * s],
    ], dtype=complex)
    return SystemSymbol(G=G, Ad=AD.copy(), B=B_ROW.copy())


def finite_eigenvalues(pt: FrequencyPoint, b: float) -> tuple[complex, complex]:
    """The two finite eigenvalues of the pencil lambda A^d - G.

    lambda^2 = |eta|^2 + (i tau + beta)^2 / b; the principal square root
    (positive real part) labels the unstable branch.  The third eigenvalue
    sits at infinity because A^d is singular.
    """
    if pt.weight_beta == 0:
        raise ValueError("degenerate pencil: weight_beta must be positive")
    lam_sq = pt.eta_sq + (1j * pt.tau + pt.weight_beta) ** 2 / b
    lam = np.sqrt(lam_sq)
    if lam.real < 0:
        lam = -lam
    return complex(lam), complex(-lam)


def determinant_residual(pt: FrequencyPoint, b: float, lam: complex) -> float:
    """|det(lambda A^d - G)| at a candidate eigenvalue (normalized symbol)."""
    sym = system_symbol(pt, b)
    return float(abs(np.linalg.det(lam * sym.Ad - sym.G)))


def stable_subspace(pt: FrequencyPoint, b: float) -> np.ndarray:
    """Unit vector spanning the stable subspace: (1, lam_minus, lam_minus^2)."""
    _, lam_minus = finite_eigenvalues(pt, b)
    z = np.array([1.0, lam_minus, lam_minus**2], dtype=complex)
    return z / np.linalg.norm(z)


def subspace_residual(pt: FrequencyPoint, b: float) -> float:
    """||(lam A^d - G) z|| for the normalized stable eigenvector."""
    sym = system_symbol(pt.normalized(), b)
    _, lam_minus = finite_eigenvalues(pt.normalized(), b)
    z = stable_subspace(pt.normalized(), b)
    return float(np.linalg.norm((lam_minus * sym.Ad - sym.G) @ z))


def lopatinskii_ratio(pt: FrequencyPoint, b: float) -> float:
    """|B z| / |z| on the stable subspace; the uniform Lopatinskii quantity."""
    z = stable_subspace(pt, b)
    return float(abs(B_ROW @ z))


def analytic_ratio_floor(b: float) -> float:
    """Lower bound for the sweep: |lam|^2 <= max(1, 1/b) on the unit sphere."""
    m = max(1.0, 1.0 / b)
    return 1.0 / np.sqrt(1.0 + m + m**2)


@dataclass
class SweepResult:
    b: float
    samples: int
    minimum: float
    argmin: FrequencyPoint
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
    pts = []
    for beta in betas_grid:
        rim = np.sqrt(max(1.0 - beta**2, 0.0))
        for a in angles:
            pts.append((rim * np.cos(a), beta, rim * np.sin(a)))
    n_rand = samples - len(pts)
    raw = rng.normal(size=(n_rand, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    beta_rand = np.abs(raw[:, 1])
    beta_rand = np.maximum(beta_rand, beta_min)
    for i in range(n_rand):
        pts.append((raw[i, 0], beta_rand[i], raw[i, 2]))

    rows = np.empty((len(pts), 4))
    best = np.inf
    best_pt = None
    for i, (tau, beta, eta) in enumerate(pts):
        pt = FrequencyPoint(tau, beta, np.array([eta])).normalized()
        ratio = lopatinskii_ratio(pt, b)
        rows[i] = (pt.tau, pt.weight_beta, pt.eta[0], ratio)
        if ratio < best:
            best = ratio
            best_pt = pt
    return SweepResult(b=b, samples=len(pts), minimum=float(best),
                       argmin=best_pt, floor=analytic_ratio_floor(b), rows=rows)


# -- weighted norms and estimate probes --------------------------------------


def weighted_norm(u: np.ndarray, k: int, weight_beta: float, spacings) -> float:
    """Weighted Sobolev norm: sum over |a| <= k of beta^(2k-2|a|) ||d^a u||^2."""
    if k not in (0, 1, 2):
        raise ValueError("k must be one of 0, 1, 2")
    if weight_beta <= 0:
        raise ValueError("weight_beta must be positive")
    u = np.asarray(u, dtype=float)
    if np.isscalar(spacings):
        spacings = [spacings] * u.ndim
    total = 0.0
    for alpha, derivative in _derivatives_up_to(u, k, spacings):
        total += weight_beta ** (2 * k - 2 * sum(alpha)) * _l2sq(derivative, spacings)
    return float(np.sqrt(total))


def _derivatives_up_to(u: np.ndarray, k: int, spacings):
    """Yield (multi-index, finite-difference derivative) for all |a| <= k."""
    from itertools import product

    ndim = u.ndim
    for alpha in product(range(k + 1), repeat=ndim):
        if sum(alpha) > k:
            continue
        der = u
        for ax, order in enumerate(alpha):
            for _ in range(order):
                der = np.gradient(der, spacings[ax], axis=ax, edge_order=2)
        yield alpha, der


@dataclass
class ProbeResult:
    which: str
    weight_beta: float
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    ceiling: float
    under_resolved: bool


def estimate_probe(bundle, data, which: str, weight_beta: float = 2.0,
                   space_points: int = 256, ceiling: float | None = None,
                   drift_check: bool = False) -> ProbeResult:
    """Assemble one side-by-side estimate ratio from grid norms.

    which="resolvent_4a": beta||u||_{2,b,Q}^2 + ||d_x u||_{1,b,S}^2 against
    (1/beta)||e^{-bt} f||_Q^2 + ||u||_{2,b,S}^2 for u = e^{-beta t} w.
    which="semigroup_10": the finite-horizon, unweighted energy estimate with
    terminal norms, interior H^2(Q) norm and the H^1(Sigma) trace norm on the
    left, data norms on the right.  Ratios are reported, never asserted
    against a specific constant; the configured ceiling only flags blow-ups.
    """
    if which not in ("resolvent_4a", "semigroup_10"):
        raise ValueError(f"unknown probe {which!r}")
    ceiling = ceiling if ceiling is not None else np.inf
    lhs, rhs = _probe_sides(bundle, data, which, weight_beta, space_points)
    ratio = 0.0 if rhs == 0.0 and lhs == 0.0 else lhs / rhs
    under_resolved = False
    if drift_check:
        lhs2, rhs2 = _probe_sides(bundle, data, which, weight_beta,
                                  max(space_points // 2, 32), stride=2)
        ratio2 = 0.0 if rhs2 == 0.0 and lhs2 == 0.0 else lhs2 / rhs2
        if ratio > 0 and abs(ratio2 - ratio) > 0.10 * ratio:
            under_resolved = True
    return ProbeResult(which=which, weight_beta=weight_beta, lhs=lhs, rhs=rhs,
                       ratio=ratio, passed=bool(ratio <= ceiling),
                       ceiling=float(ceiling), under_resolved=under_resolved)


def _probe_sides(bundle, data, which: str, beta: float, space_points: int,
                 stride: int = 1) -> tuple[float, float]:
    basis = bundle.basis
    grid = bundle.grid
    sel = slice(None, None, stride)
    times = grid.times[sel]
    dt = grid.dt * stride
    hx = 1.0 / space_points
    spac = (dt, hx)

    w_vals, wt_vals, wtt_vals = (
        trajectory_on_grid(basis, bundle.interior(comp)[sel],
                           bundle.boundary_values(comp)[sel], space_points)
        for comp in ("w", "wt", "wtt"))
    trace_w = bundle.trace("w").series[sel]
    trace_wt = bundle.trace("wt").series[sel]
    g, g_t, g_tt = (bundle.boundary_values(comp)[sel] for comp in ("w", "wt", "wtt"))

    if which == "resolvent_4a":
        env = np.exp(-beta * times)[:, None]
        u = env * w_vals
        u_t = env * (wt_vals - beta * w_vals)
        u_tt = env * (wtt_vals - 2.0 * beta * wt_vals + beta**2 * w_vals)
        u_x = np.gradient(u, hx, axis=1, edge_order=2)
        u_xx = np.gradient(u_x, hx, axis=1, edge_order=2)
        u_tx = np.gradient(u_t, hx, axis=1, edge_order=2)
        lhs_q = (beta**4 * _l2sq(u, spac)
                 + beta**2 * (_l2sq(u_t, spac) + _l2sq(u_x, spac))
                 + _l2sq(u_tt, spac) + _l2sq(u_tx, spac) + _l2sq(u_xx, spac))
        tr = env * trace_w
        tr_t = env * (trace_wt - beta * trace_w)
        lhs_s = sum(beta**2 * _l2sq(tr[:, j], (dt,)) + _l2sq(tr_t[:, j], (dt,))
                    for j in range(tr.shape[1]))
        lhs = beta * lhs_q + lhs_s
        rp_f = _forcing_values(bundle, basis, space_points)[sel]
        rhs_q = _l2sq(env * rp_f, spac) / beta
        ub = env * g
        ub_t = env * (g_t - beta * g)
        ub_tt = env * (g_tt - 2.0 * beta * g_t + beta**2 * g)
        rhs_s = sum(beta**4 * _l2sq(ub[:, j], (dt,))
                    + beta**2 * _l2sq(ub_t[:, j], (dt,))
                    + _l2sq(ub_tt[:, j], (dt,)) for j in range(ub.shape[1]))
        return float(lhs), float(rhs_q + rhs_s)

    # semigroup_10, s = 0, finite horizon without exponential weights
    w_x = np.gradient(w_vals, hx, axis=1, edge_order=2)
    w_xx = np.gradient(w_x, hx, axis=1, edge_order=2)
    wt_x = np.gradient(wt_vals, hx, axis=1, edge_order=2)
    lhs = (grid_sobolev_norm(w_vals[-1], (hx,), 2) ** 2
           + grid_sobolev_norm(wt_vals[-1], (hx,), 1) ** 2
           + _l2sq(wtt_vals[-1], (hx,))
           + _l2sq(w_vals, spac) + _l2sq(wt_vals, spac) + _l2sq(w_x, spac)
           + _l2sq(wtt_vals, spac) + _l2sq(wt_x, spac) + _l2sq(w_xx, spac)
           + sum(_l2sq(trace_w[:, j], (dt,)) + _l2sq(trace_wt[:, j], (dt,))
                 for j in range(trace_w.shape[1])))
    rhs = (_l2sq(_forcing_values(bundle, basis, space_points)[sel], spac)
           + sum(_l2sq(g[:, j], (dt,)) + _l2sq(g_t[:, j], (dt,))
                 + _l2sq(g_tt[:, j], (dt,)) for j in range(g.shape[1])))
    w0 = data.w0.evaluate(space_points)
    w1 = data.w1.evaluate(space_points)
    w2 = data.w2.evaluate(space_points)
    rhs += (grid_sobolev_norm(w0, (hx,), 2) ** 2
            + grid_sobolev_norm(w1, (hx,), 1) ** 2 + _l2sq(w2, (hx,)))
    return float(lhs), float(rhs)


def _forcing_values(bundle, basis, space_points: int) -> np.ndarray:
    """Physical-space samples of the interior forcing over the time grid."""
    fsamp = bundle.reduced.f_samples
    if fsamp is None or not np.any(fsamp):
        return np.zeros((bundle.grid.steps + 1, space_points + 1))
    return trajectory_on_grid(basis, fsamp, None, space_points)
