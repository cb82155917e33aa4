"""Reference forms that the package's production paths are tested against.

Each referee computes plainly, one step, point or term at a time, what a
production path computes in a structured or vectorised way; none is part of
the package.  pytest does not collect this file; the test modules import it.

- The Volterra assembly (reduction._assembly), which evaluates cos/sin only
  at anchor rows (quadrature.PhaseRows) and folds the memory kernels into
  per-mode constants: phase_table (np.cos/np.sin of outer(times, omega)),
  kernel_samples (the kernels and their derivatives on it),
  copied_trapezoid (the running trapezoid integrals of a copy, which
  quadrature.prefix_trapezoid takes in place), sincos_conv (the sin/cos
  convolution from one pair of prefix sums), data_source (the
  initial-data part of the source on a time grid, where the assembly forms
  its value at t = 0 once) and assembled_planes (the right-hand side planes
  term by term, as one chunk on the whole grid).
- The Volterra scan (reduction._scan_group): solve_direct, forward
  substitution of the collocated equation one row per step, and
  solve_picard, its Neumann series through convolve_product (an FFT
  product-quadrature convolution), each with trapezoid or fourth-order
  Gregory weights (rule_weights).
- The RK4 oracle (modal_oracle.solve_by_modes), a blocked linear scan:
  integrate_mode, classical RK4 on one ModeOde; characteristic_roots and
  exact_exponential_solution, the closed-form homogeneous mode.
- The Gram forms of the grid norms (spectral.gram_forms): evaluate (an
  interval field on its grid) and grid_sobolev_norm (finite differences
  and trapezoid sums, l2sq).
- The Lopatinskii sweep (symbols.lopatinskii_sweep), vectorised over its
  samples: FrequencyPoint, system_symbol (the pencil lambda A^d - G),
  finite_eigenvalues, stable_subspace and lopatinskii_ratio, point by point.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from mgtlab.quadrature import composite_weights, prefix_trapezoid
from mgtlab.reduction import MgtParams, _gtilde, build_kernel, forcing_transform
from mgtlab.spectral import BoundarySignal, SpectralField, TimeGrid
from mgtlab.symbols import _stable_eigenvalue

# -- the Volterra assembly -----------------------------------------------------


def phase_table(omega, times):
    """cos(omega t) and sin(omega t), (len(times), len(omega)) each."""
    phase = np.outer(times, omega)
    return np.cos(phase), np.sin(phase)


def kernel_samples(family, times):
    """The kernels of a KernelFamily and their time derivatives at times."""
    cos, sin = phase_table(family.omega, np.asarray(times, dtype=float))
    grow = np.exp(family.rho * np.asarray(times, dtype=float))[:, None]
    ker = family.sin_coeff * sin + family.cos_coeff * cos + family.exp_coeff * grow
    kdot = (family.sin_coeff * family.omega * cos
            - family.cos_coeff * family.omega * sin
            + family.rho * family.exp_coeff * grow)
    return ker, kdot


def copied_trapezoid(values, dt, carry=None):
    """Running trapezoid integrals of values along axis 0, values untouched:
    the running sums of a copy, less half of each row and half of the
    sequence's first row, times dt; carry continues them over consecutive
    row chunks, as quadrature.prefix_trapezoid's does."""
    carry = {} if carry is None else carry
    sums = np.array(values, dtype=float)
    first = carry.setdefault("first", sums[0].copy())
    sums[0] += carry.get("sum", 0.0)
    np.cumsum(sums, axis=0, out=sums)
    carry["sum"] = sums[-1].copy()
    sums -= np.multiply(values, 0.5)
    sums -= 0.5 * first
    sums *= dt
    return sums


def sincos_conv(cos, sin, f, dt, carry=None):
    """Running integrals of sin(omega (t-s)) f(s) ds and cos(omega (t-s)) f(s) ds.

    Angle addition turns both into one pair of prefix sums, of cos f and
    sin f, read against the table at t; carry continues both sums over
    consecutive row chunks (quadrature.prefix_trapezoid).
    """
    carry = {} if carry is None else carry
    pc = prefix_trapezoid(cos * f, dt, carry.setdefault("cos", {}))
    ps = prefix_trapezoid(sin * f, dt, carry.setdefault("sin", {}))
    return sin * pc - cos * ps, cos * pc + sin * ps


def data_source(params: MgtParams, times, w0tot, w1tot):
    """h0(t) w0 + h1(t) w1, the initial-data part of the transformed source,
    with h0 = gamma (gamma - alpha) e^{rho t} and h1 = gamma e^{rho t}
    (reduction._assembly derives the signs)."""
    gamma = params.gamma
    hs = np.exp(params.decay_exponent * times)[:, None]
    return gamma * (gamma - params.alpha) * hs * w0tot + gamma * hs * w1tot


def assembled_planes(data, params, grid):
    """The (3, steps+1, modes) right-hand sides H, H_t - k v0 and
    H_tt - k' v0 - k v1 of the Volterra route, term by term on the whole
    grid: the sine and cosine convolutions of dhat_tt, of
    rho source + ftilde_t and of source + ftilde, and the kernel samples."""
    basis = data.basis
    gamma, rho = params.gamma, params.decay_exponent
    t, dt = grid.times, grid.dt
    kernels = build_kernel(params, basis)
    om = kernels.omega
    sig = (data.g.sample(grid) if data.g is not None
           else BoundarySignal.zero(grid, basis.domain.boundary_size))
    lift = basis.lift_matrix
    w0tot, w1tot = data.w0.total_coeffs(), data.w1.total_coeffs()
    g0, gt0 = sig.values[0], sig.dvalues[0]
    a0 = data.w0.coeffs + (data.w0.boundary_values() - g0) @ lift
    a1 = (0.5 * gamma * data.w0.coeffs + data.w1.coeffs
          + (0.5 * gamma * data.w0.boundary_values() + data.w1.boundary_values()
             - 0.5 * gamma * g0 - gt0) @ lift)
    v1 = 0.5 * gamma * w0tot + w1tot
    source_fixed = data.w2.total_coeffs() + params.b * basis.eigenvalues * data.w0.coeffs
    source_0 = data_source(params, t[:1], w0tot, w1tot)[0] + source_fixed
    ct, st = phase_table(om, t)
    dhat, dhat_t, dhat_tt = (x @ lift for x in _gtilde(sig, gamma, t))
    fsamp = (data.f.sample(t, basis.size) if data.f is not None
             else np.zeros((len(t), basis.size)))
    source = (data_source(params, t, w0tot, w1tot)
              + np.exp(rho * t)[:, None] * source_fixed)
    ftilde, ftilde_t = forcing_transform(fsamp, params, grid)
    conv_dtt, conv_dtt_c = sincos_conv(ct, st, dhat_tt, dt)
    conv_src_t, conv_src_t_c = sincos_conv(ct, st, rho * source + ftilde_t, dt)
    conv_src = sincos_conv(ct, st, source + ftilde, dt)[0]
    ker, kdot = kernel_samples(kernels, t)
    h = ct * a0 + st / om * a1 + dhat - conv_dtt / om + conv_src / om
    ht = (-om * st * a0 + ct * a1 + dhat_t - conv_dtt_c + st / om * source_0
          + conv_src_t / om) - ker * w0tot
    htt = ((-om**2 * ct * a0 - om * st * a1 + om * conv_dtt + ct * source_0 + conv_src_t_c)
           - kdot * w0tot - ker * v1)
    return np.stack([h, ht, htt])


# -- Volterra collocation ------------------------------------------------------

# Gregory endpoint weights of the order-4 rule (interior weight is 1)
GREGORY_EDGE = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])

# Closed rows used while the Gregory stencil does not fit (m <= 5):
# trapezoid, Simpson, Simpson 3/8, composite Simpson, Simpson + 3/8.
SHORT_ROWS = {
    0: np.array([0.0]),
    1: np.array([0.5, 0.5]),
    2: np.array([1.0, 4.0, 1.0]) / 3.0,
    3: np.array([3.0, 9.0, 9.0, 3.0]) / 8.0,
    4: np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 3.0,
    5: np.array([1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0 + 3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]),
}


class VolterraSingularError(RuntimeError):
    """Raised when the implicit collocation coefficient degenerates."""


def rule_weights(m, dt, rule="gregory4"):
    """Weights w_0..w_m of the integral of samples over [0, m*dt]: the
    package's trapezoid weights, or the fourth-order Gregory rule."""
    if rule == "trapezoid":
        return composite_weights(m, dt)
    if rule != "gregory4":
        raise ValueError(f"unknown quadrature rule {rule!r}")
    if m <= 5:
        return dt * SHORT_ROWS[m]
    w = np.ones(m + 1)
    w[:3] = GREGORY_EDGE
    w[-3:] = GREGORY_EDGE[::-1]
    return dt * w


def solve_direct(kernel, rhs, dt, rule="gregory4"):
    """Forward-substitution collocation solve of v + L*v = h on a uniform grid.

    kernel holds the samples l(t_m) and rhs the h_m, (steps+1,) for a scalar
    problem or (steps+1, n) for a diagonal family, whose kernel is one shared
    column or n matching ones.  At each node
    v_m + sum_{j<=m} w_j l(t_m - t_j) v_j = h_m, the implicit diagonal term
    divided out exactly.
    """
    h = np.asarray(rhs, dtype=float)
    scalar = h.ndim == 1
    if scalar:
        h = h[:, None]
    ker = np.asarray(kernel, dtype=float)
    if ker.ndim == 1:
        ker = ker[:, None]
    v = np.empty_like(h)
    v[0] = h[0]
    for m in range(1, len(h)):
        w = rule_weights(m, dt, rule)
        history = np.einsum("j,jc->c", w[:m], ker[m:0:-1] * v[:m])
        diag = 1.0 + w[m] * ker[0]
        if np.any(np.abs(diag) < 1e-12):
            raise VolterraSingularError(
                f"implicit coefficient |1 + w_m l(0)| < 1e-12 at step {m}")
        v[m] = (h[m] - history) / diag
    return v[:, 0] if scalar else v


def solve_picard(kernel, rhs, dt, max_terms=80, tol=1e-10, rule="gregory4"):
    """Picard (Neumann) series h + sum_k (-1)^k L^{(*k)} * h of v + L*v = h.

    Each term applies convolve_product to the previous one; the series stops
    when the sup of the latest term drops below tol.  Returns (values,
    terms used, converged, sup of the last term); converged is False when
    max_terms run out first.
    """
    total = np.array(rhs, dtype=float)
    term = total
    sup = float(np.max(np.abs(term))) if term.size else 0.0
    used = 1
    for k in range(1, max_terms + 1):
        term = -convolve_product(kernel, term, dt, rule)
        sup = float(np.max(np.abs(term)))
        total = total + term
        used = k
        if sup < tol:
            return total, used, True, sup
    return total, used, False, sup


def convolve_product(kernel_samples, x, dt, rule="trapezoid"):
    """Product-quadrature convolution (Wx)_m = sum_j w_j^{(m)} K_{m-j} x_j.

    Exactly the lower-triangular operator that solve_direct inverts with the
    same rule, so Neumann iteration on W reproduces the collocated solution.
    """
    kernel = np.asarray(kernel_samples, dtype=float)
    xs = np.asarray(x, dtype=float)
    squeeze = xs.ndim == 1
    if squeeze:
        xs = xs[:, None]
    if kernel.ndim == 1:
        kernel = kernel[:, None]
    m_top = xs.shape[0] - 1
    n = 2 * (m_top + 1)  # zero padding past the linear convolution's 2 m_top + 1 rows
    full = np.fft.irfft(np.fft.rfft(kernel, n, axis=0) * np.fft.rfft(xs, n, axis=0), n,
                        axis=0)[: m_top + 1]
    if rule == "trapezoid":
        out = dt * (full - 0.5 * kernel * xs[0] - 0.5 * kernel[0] * xs)
        out[0] = 0.0
    else:
        corr = np.zeros_like(full)
        for i, ei in enumerate(GREGORY_EDGE - 1.0):
            corr[i:] += ei * kernel[: m_top + 1 - i] * xs[i]
            corr[i:] += ei * kernel[i] * xs[: m_top + 1 - i]
        out = dt * (full + corr)
        for m in range(min(5, m_top) + 1):
            w = rule_weights(m, dt, rule)
            out[m] = (w[:, None] * kernel[m::-1] * xs[: m + 1]).sum(axis=0)
    return out[:, 0] if squeeze else out


# -- one mode by RK4 -----------------------------------------------------------


@dataclass
class ModeOde:
    """One projected mode: eigenvalue, equation constants and the flux source."""

    mu: float
    params: MgtParams
    source: Callable[[float], float] | None = None


def integrate_mode(ode: ModeOde, initial: Sequence[float], grid: TimeGrid) -> np.ndarray:
    """Classical RK4 integration of one mode, one step at a time; returns
    (steps+1, 3) states."""
    p, mu = ode.params, ode.mu
    source = ode.source or (lambda t: 0.0)

    def rhs(t, y):
        return np.array([
            y[1],
            y[2],
            source(t) - p.alpha * y[2] - p.b * mu * y[1] - p.c**2 * mu * y[0],
        ])

    dt = grid.dt
    y = np.asarray(initial, dtype=float)
    out = np.empty((grid.steps + 1,) + y.shape)
    out[0] = y
    for m in range(grid.steps):
        t = m * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[m + 1] = y
    return out


CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi * np.arange(3) / 3)


def characteristic_roots(params, mu, polish_steps=2):
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
        us = CUBE_ROOTS_OF_UNITY * u
        vs = -p / (3.0 * us)
        roots = us + vs - alpha / 3.0
    for _ in range(polish_steps):
        val = roots**3 + alpha * roots**2 + b * mu * roots + c2 * mu
        der = 3.0 * roots**2 + 2.0 * alpha * roots + b * mu
        safe = np.abs(der) > 1e-30
        roots = np.where(safe, roots - val / der, roots)
    return roots[np.lexsort((roots.imag, roots.real))]


def exact_exponential_solution(params, mu, initial, times):
    """Closed-form homogeneous mode trajectory from the cubic's roots."""
    roots = characteristic_roots(params, mu)
    vand = np.vander(roots, 3, increasing=True).T
    coeff = np.linalg.solve(vand, np.asarray(initial, dtype=complex))
    vals = (coeff[None, :] * np.exp(np.outer(times, roots))).sum(axis=1)
    return vals.real


# -- grid norms ----------------------------------------------------------------


def evaluate(field: SpectralField, n: int):
    """Values of an interval field on the uniform (n+1)-point grid, its
    affine lifting a + (b - a) x included."""
    x = field.basis.grid_points(n)
    vals = field.coeffs @ field.basis.eval_matrix_1d(x)
    if field.boundary is not None:
        a, b = field.boundary
        vals = vals + (a + (b - a) * x)
    return vals


def l2sq(arr, spacings):
    """Squared L2 norm of grid samples: nested trapezoid rules, last axis first.

    The rules run over the trailing len(spacings) axes; leading axes are a
    batch and give an array, no batch gives a float.
    """
    out = arr**2
    for h in reversed(list(spacings)):
        out = np.trapezoid(out, dx=h, axis=-1)
    return out if out.ndim else float(out)


def grid_sobolev_norm(values, h, s):
    """Finite-difference H^s norm, s in {0, 1, 2}, of samples of spacing h
    along the last axis: np.gradient(edge_order=2) differences and trapezoid
    sums.  Leading axes, if any, are a batch, and give an array of norms."""
    if s not in (0, 1, 2):
        raise ValueError("s must be one of 0, 1, 2")
    values = np.asarray(values, dtype=float)
    total = l2sq(values, (h,))
    if s >= 1:
        grad = np.gradient(values, h, axis=-1, edge_order=2)
        total += l2sq(grad, (h,))
    if s == 2:
        total += l2sq(np.gradient(grad, h, axis=-1, edge_order=2), (h,))
    return np.sqrt(total) if values.ndim > 1 else float(np.sqrt(total))


# -- the symbol pencil ---------------------------------------------------------

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


def system_symbol(pt: FrequencyPoint, b):
    """The tangential symbol matrix G; the pencil is lambda AD - G."""
    s = 1j * pt.tau + pt.weight_beta
    nsq = pt.norm_sq
    root = np.sqrt(nsq)
    return np.array([
        [0.0, root, 0.0],
        [0.0, 0.0, root],
        [-(s**3 + b * pt.eta_sq * s) / nsq, 0.0, b * s],
    ], dtype=complex)


def finite_eigenvalues(pt: FrequencyPoint, b):
    """The two finite eigenvalues of the pencil lambda A^d - G.

    lambda^2 = |eta|^2 + (i tau + beta)^2 / b; the principal square root
    (positive real part) labels the unstable branch.  The third eigenvalue
    sits at infinity because A^d is singular.
    """
    if pt.weight_beta == 0:
        raise ValueError("degenerate pencil: weight_beta must be positive")
    lam_minus = complex(_stable_eigenvalue(pt.tau, pt.weight_beta, pt.eta_sq, b))
    return -lam_minus, lam_minus


def stable_subspace(pt: FrequencyPoint, b):
    """Unit vector spanning the stable subspace: (1, lam_minus, lam_minus^2)."""
    _, lam_minus = finite_eigenvalues(pt, b)
    z = np.array([1.0, lam_minus, lam_minus**2], dtype=complex)
    return z / np.linalg.norm(z)


def lopatinskii_ratio(pt: FrequencyPoint, b):
    """|B z| / |z| on the stable subspace; the uniform Lopatinskii quantity."""
    return float(abs(B_ROW @ stable_subspace(pt, b)))
