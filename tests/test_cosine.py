"""Phase tables, the sin/cos convolution, the smoothing convolution, boundary probes."""

import numpy as np
import pytest

from mgtlab.cosine import boundary_convolution_probe, phases, sincos_conv
from mgtlab.spectral import BoundaryData, DomainSpec, TimeGrid, build_basis

BASIS = build_basis(DomainSpec("interval", 256), 8)
OMEGA = BASIS.sqrt_eigenvalues  # the wave family at speed 1


def smoothing(basis, f, grid):
    """K f = (1/sqrt(mu)) int_0^t sin(sqrt(mu) (t-s)) f(s) ds per mode, as the
    Volterra route forms it from sincos_conv."""
    root = basis.sqrt_eigenvalues
    return sincos_conv(phases(root, grid.times), f, grid.dt)[0] / root


def test_phases_identity_at_zero():
    ph = phases(OMEGA, np.zeros(1))
    assert np.all(ph.cos == 1.0)
    assert np.all(ph.sin == 0.0)


def test_phases_eigenmode_half_period():
    # omega_1 = pi on the unit interval at speed 1
    ph = phases(OMEGA, np.array([1.0]))
    assert ph.cos[0, 0] == pytest.approx(np.cos(np.pi))
    assert ph.sin[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_cosine_functional_equation_per_mode():
    # d'Alembert: C(t+s) + C(t-s) = 2 C(t) C(s), rows of one table each
    rng = np.random.default_rng(0)
    for t, s in rng.uniform(0.0, 2.0, size=(25, 2)):
        cos = phases(OMEGA, np.array([t + s, t - s, t, s])).cos
        lhs = cos[0] + cos[1]
        rhs = 2.0 * cos[2] * cos[3]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sincos_conv_parts_match_derivative_and_quadrature():
    # cos part = (d/dt sin part) / omega, since sin(0) = 0; both parts against
    # an independent trapezoid quadrature of the convolution integrals
    grid = TimeGrid(1.0, 4000)
    t = grid.times
    f = np.column_stack([np.cos(3.0 * t) + t, np.exp(-t), t**2])
    omega = OMEGA[:3]
    sin_part, cos_part = sincos_conv(phases(omega, t), f, grid.dt)
    slope = np.gradient(sin_part, grid.dt, axis=0, edge_order=2)
    assert np.max(np.abs(slope / omega - cos_part)) < 1e-6
    for m in (1, 777, 2500, 4000):
        lag = omega * (t[m] - t[: m + 1, None])
        want_sin = np.trapezoid(np.sin(lag) * f[: m + 1], dx=grid.dt, axis=0)
        want_cos = np.trapezoid(np.cos(lag) * f[: m + 1], dx=grid.dt, axis=0)
        assert np.allclose(sin_part[m], want_sin, rtol=0, atol=1e-13)
        assert np.allclose(cos_part[m], want_cos, rtol=0, atol=1e-13)


def test_kop_zero_trajectory():
    grid = TimeGrid(1.0, 100)
    f = np.zeros((101, BASIS.size))
    assert np.all(smoothing(BASIS, f, grid) == 0.0)


def test_kop_constant_forcing_analytic():
    grid = TimeGrid(1.0, 2000)
    f = np.zeros((2001, BASIS.size))
    f[:, 0] = 1.0
    out = smoothing(BASIS, f, grid)
    mu = BASIS.eigenvalues[0]
    exact = (1.0 - np.cos(np.sqrt(mu) * grid.times)) / mu
    assert np.max(np.abs(out[:, 0] - exact)) < 1e-7


def test_kop_linear_forcing_order_two():
    # oracle: analytic antiderivative; observed order >= 2 under dt halving
    mu = BASIS.eigenvalues[1]
    errs = []
    for steps in (250, 500, 1000):
        grid = TimeGrid(1.0, steps)
        f = np.zeros((steps + 1, BASIS.size))
        f[:, 1] = grid.times
        out = smoothing(BASIS, f, grid)
        exact = (grid.times - np.sin(np.sqrt(mu) * grid.times) / np.sqrt(mu)) / mu
        errs.append(np.max(np.abs(out[:, 1] - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.0 - 0.1


def test_kop_smoothing_bounded_under_mode_refinement():
    # coefficients ~ 1/k are square summable and no better; the smoothing
    # convolution still has a uniformly bounded spectral H1 norm in N
    grid = TimeGrid(1.0, 800)
    sups = []
    for n in (32, 64, 128):
        basis = build_basis(DomainSpec("interval", 256), n)
        coeffs = 1.0 / np.arange(1, n + 1)
        f = np.ones((grid.steps + 1, 1)) * coeffs[None, :]
        kf = smoothing(basis, f, grid)
        sups.append(np.sqrt(((1 + basis.eigenvalues) * kf**2).sum(axis=1)).max())
    assert abs(sups[2] - sups[1]) <= abs(sups[1] - sups[0]) + 1e-12
    assert abs(sups[2] - sups[0]) / sups[0] < 1e-3


def test_boundary_probe_zero_signal():
    grid = TimeGrid(1.0, 100)
    g = BoundaryData.zero().sample(grid)
    probe = boundary_convolution_probe(BASIS, 1.0, g, grid)
    assert probe.shape == (grid.steps + 1,)
    assert np.all(probe == 0.0)


def test_boundary_probe_step_mode_refinement():
    # refinement-stability oracle: N=32 vs N=64 sup-norm series within 5%
    grid = TimeGrid(1.0, 2000)
    sups = []
    for n in (32, 64):
        basis = build_basis(DomainSpec("interval", 256), n)
        g = BoundaryData(g=lambda t: np.column_stack([np.where(t >= 0.3, 1.0, 0.0), 0.0 * t]),
                         gt=lambda t: np.zeros((len(t), 2)),
                         gtt=lambda t: np.zeros((len(t), 2)))
        sups.append(np.max(boundary_convolution_probe(basis, 1.0, g.sample(grid), grid)))
    assert abs(sups[1] - sups[0]) / sups[0] < 0.05


def test_boundary_probe_linear_bound_over_random_signals():
    # constant estimated by sweep: sup-t norm <= C ||g||_{L2(Sigma)}
    grid = TimeGrid(1.0, 500)
    basis = build_basis(DomainSpec("interval", 256), 16)
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(20):
        a, w, p = rng.uniform(0.2, 1.5), rng.uniform(0.5, 6.0), rng.uniform(0, np.pi)
        g = BoundaryData(
            g=lambda t, a=a, w=w, p=p: np.column_stack([a * np.sin(w * t + p), 0.0 * t]),
            gt=lambda t, a=a, w=w, p=p: np.column_stack([a * w * np.cos(w * t + p), 0.0 * t]),
            gtt=lambda t, a=a, w=w, p=p: np.column_stack([-a * w**2 * np.sin(w * t + p),
                                                          0.0 * t]))
        sig = g.sample(grid)
        probe = boundary_convolution_probe(basis, 1.0, sig, grid)
        gnorm = np.sqrt(np.trapezoid((sig.values**2).sum(axis=1), dx=grid.dt))
        ratios.append(np.max(probe) / gnorm)
    spread = max(ratios)
    assert spread < 10.0  # bounded constant, no blow-up across the sweep
    assert min(ratios) > 0.0
