"""Reference forms that the package's streamed assembly is tested against.

The Volterra route evaluates cos/sin only at anchor rows (cosine.PhaseRows)
and folds the memory kernels into per-mode constants, so it never samples a
kernel on the grid nor forms a sine or cosine convolution by itself.  These
are the plain forms: a phase table of np.cos/np.sin of outer(times, omega),
the kernels and their derivatives sampled on it, the sin/cos convolution
from one pair of prefix sums, and the right-hand side planes written term by
term from them, as one chunk on the whole grid.  pytest does not collect this
file; the test modules import it.
"""

import numpy as np

from mgtlab.quadrature import prefix_trapezoid
from mgtlab.reduction import _data_source, _gtilde, build_kernel, forcing_transform
from mgtlab.spectral import BoundarySignal


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
    lift = basis.lift_matrix()
    w0tot, w1tot = data.w0.total_coeffs(), data.w1.total_coeffs()
    g0, gt0 = sig.values[0], sig.dvalues[0]
    a0 = data.w0.coeffs + (data.w0.boundary_values() - g0) @ lift
    a1 = (0.5 * gamma * data.w0.coeffs + data.w1.coeffs
          + (0.5 * gamma * data.w0.boundary_values() + data.w1.boundary_values()
             - 0.5 * gamma * g0 - gt0) @ lift)
    v1 = 0.5 * gamma * w0tot + w1tot
    source_fixed = data.w2.total_coeffs() + params.b * basis.eigenvalues * data.w0.coeffs
    source_0 = _data_source(params, t[:1], w0tot, w1tot)[0] + source_fixed
    ct, st = phase_table(om, t)
    dhat, dhat_t, dhat_tt = (x @ lift for x in _gtilde(sig, gamma, t))
    fsamp = (data.f.sample(t, basis.size) if data.f is not None
             else np.zeros((len(t), basis.size)))
    source = (_data_source(params, t, w0tot, w1tot)
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
