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

from .quadrature import composite_weights
from .spectral import gram_forms, gram_rows, row_forms

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


@dataclass(frozen=True)
class SystemSymbol:
    """Tangential symbol matrix with the singular normal matrix."""

    G: np.ndarray
    Ad: np.ndarray


def system_symbol(pt: FrequencyPoint, b: float) -> SystemSymbol:
    s = 1j * pt.tau + pt.weight_beta
    nsq = pt.norm_sq
    root = np.sqrt(nsq)
    G = np.array([
        [0.0, root, 0.0],
        [0.0, 0.0, root],
        [-(s**3 + b * pt.eta_sq * s) / nsq, 0.0, b * s],
    ], dtype=complex)
    return SystemSymbol(G=G, Ad=AD.copy())


def finite_eigenvalues(pt: FrequencyPoint, b: float) -> tuple[complex, complex]:
    """The two finite eigenvalues of the pencil lambda A^d - G.

    lambda^2 = |eta|^2 + (i tau + beta)^2 / b; the principal square root
    (positive real part) labels the unstable branch.  The third eigenvalue
    sits at infinity because A^d is singular.
    """
    if pt.weight_beta == 0:
        raise ValueError("degenerate pencil: weight_beta must be positive")
    lam_minus = complex(_stable_eigenvalue(pt.tau, pt.weight_beta, pt.eta_sq, b))
    return -lam_minus, lam_minus


def _stable_eigenvalue(tau, beta, eta_sq, b: float):
    """lam_- at scalar or array frequencies, the negated principal root of
    lambda^2 = |eta|^2 + (i tau + beta)^2 / b (squared by real and
    imaginary parts)."""
    lam = np.sqrt(eta_sq + (beta * beta - tau * tau) / b + 1j * (2.0 * beta * tau / b))
    return np.where(lam.real < 0, lam, -lam)


def stable_subspace(pt: FrequencyPoint, b: float) -> np.ndarray:
    """Unit vector spanning the stable subspace: (1, lam_minus, lam_minus^2)."""
    _, lam_minus = finite_eigenvalues(pt, b)
    z = np.array([1.0, lam_minus, lam_minus**2], dtype=complex)
    return z / np.linalg.norm(z)


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
    rim = np.sqrt(np.maximum(1.0 - betas_grid**2, 0.0))
    n_rand = samples - betas_grid.size * angles.size
    raw = rng.normal(size=(n_rand, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    tau = np.concatenate([np.outer(rim, np.cos(angles)).ravel(), raw[:, 0]])
    beta = np.concatenate([np.repeat(betas_grid, angles.size),
                           np.maximum(np.abs(raw[:, 1]), beta_min)])
    eta = np.concatenate([np.outer(rim, np.sin(angles)).ravel(), raw[:, 2]])

    # onto the unit sphere, then |B z| / |z| = 1 / |(1, lam_-, lam_-^2)|; |z|^2
    # is summed as lopatinskii_ratio sums it (real parts, then imaginary)
    # because the minimum is attained on whole circles, where the last bit
    # decides which sample is reported as the argmin
    scale = np.sqrt(tau**2 + beta**2 + eta**2)
    tau, beta, eta = tau / scale, beta / scale, eta / scale
    lam = _stable_eigenvalue(tau, beta, eta**2, b)
    re, im = lam.real, lam.imag
    re2, im2 = re * re - im * im, 2.0 * re * im
    ratio = 1.0 / np.sqrt((1.0 + re * re + re2 * re2) + (im * im + im2 * im2))
    rows = np.column_stack([tau, beta, eta, ratio])
    i = int(np.argmin(ratio))
    return SweepResult(minimum=float(ratio[i]),
                       argmin=FrequencyPoint(tau[i], beta[i], eta[i]),
                       floor=analytic_ratio_floor(b), rows=rows)


# -- estimate probes ----------------------------------------------------------


@dataclass
class ProbeResult:
    ratio: float  # left side over right side, 0 when both vanish


def estimate_probe(bundle, data, which: str, weight_beta: float = 2.0,
                   space_points: int = 256) -> ProbeResult:
    """Assemble one side-by-side estimate ratio from grid norms.

    which="resolvent_4a": beta||u||_{2,b,Q}^2 + ||d_x u||_{1,b,S}^2 against
    (1/beta)||e^{-bt} f||_Q^2 + ||u||_{2,b,S}^2 for u = e^{-beta t} w.
    which="semigroup_10": the finite-horizon, unweighted energy estimate with
    terminal norms, interior H^2(Q) norm and the H^1(Sigma) trace norm on the
    left, data norms on the right.  Ratios are reported, never asserted
    against a specific constant.
    """
    if which not in ("resolvent_4a", "semigroup_10"):
        raise ValueError(f"unknown probe {which!r}")
    lhs, rhs = _probe_sides(bundle, data, which, weight_beta, space_points)
    ratio = 0.0 if rhs == 0.0 and lhs == 0.0 else lhs / rhs
    return ProbeResult(ratio)


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
    y_w, y_wt, y_wtt = (gram_rows(bundle.interior(comp), edge)
                        for comp, edge in (("w", g), ("wt", g_t), ("wtt", g_tt)))
    trace_w = bundle.trace("w").series
    trace_wt = bundle.trace("wt").series
    y_f = gram_rows(bundle.f_samples) if np.any(bundle.f_samples) else None
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

