"""Cosine families, the smoothing convolution, wave solves, boundary probes."""

import numpy as np
import pytest

from mgtlab.cosine import (
    CosineFamily,
    boundary_convolution_probe,
    kop_apply,
    phases,
    sincos_conv,
    wave_solve,
)
from mgtlab.spectral import (
    BoundaryData,
    DomainSpec,
    SpectralField,
    TimeGrid,
    build_basis,
    trajectory_on_grid,
)

from fd_wave import leapfrog_wave

BASIS = build_basis(DomainSpec("interval", 256), 8)
FAM = CosineFamily(BASIS, speed=1.0)


def unit_field(k=0):
    coeffs = np.zeros(BASIS.size)
    coeffs[k] = 1.0
    return SpectralField(BASIS, coeffs)


def test_phases_identity_at_zero():
    ph = phases(FAM.omega, np.zeros(1))
    assert np.all(ph.cos == 1.0)
    assert np.all(ph.sin == 0.0)


def test_phases_eigenmode_half_period():
    # omega_1 = pi on the unit interval at speed 1
    ph = phases(FAM.omega, np.array([1.0]))
    assert ph.cos[0, 0] == pytest.approx(np.cos(np.pi))
    assert ph.sin[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_cosine_functional_equation_per_mode():
    # d'Alembert: C(t+s) + C(t-s) = 2 C(t) C(s), rows of one table each
    rng = np.random.default_rng(0)
    for t, s in rng.uniform(0.0, 2.0, size=(25, 2)):
        cos = phases(FAM.omega, np.array([t + s, t - s, t, s])).cos
        lhs = cos[0] + cos[1]
        rhs = 2.0 * cos[2] * cos[3]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sincos_conv_parts_match_derivative_and_quadrature():
    # cos part = (d/dt sin part) / omega, since sin(0) = 0; both parts against
    # an independent trapezoid quadrature of the convolution integrals
    grid = TimeGrid(1.0, 4000)
    t = grid.times
    f = np.column_stack([np.cos(3.0 * t) + t, np.exp(-t), t**2])
    omega = FAM.omega[:3]
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
    assert np.all(kop_apply(FAM, f, grid) == 0.0)


def test_kop_constant_forcing_analytic():
    grid = TimeGrid(1.0, 2000)
    f = np.zeros((2001, BASIS.size))
    f[:, 0] = 1.0
    out = kop_apply(FAM, f, grid)
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
        out = kop_apply(FAM, f, grid)
        exact = (grid.times - np.sin(np.sqrt(mu) * grid.times) / np.sqrt(mu)) / mu
        errs.append(np.max(np.abs(out[:, 1] - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.0 - 0.1


def test_kop_rejects_empty_trajectory():
    grid = TimeGrid(1.0, 100)
    with pytest.raises(ValueError):
        kop_apply(FAM, np.zeros((5, BASIS.size)), grid)


def test_wave_solve_eigenmode():
    grid = TimeGrid(1.0, 500)
    sol = wave_solve(FAM, unit_field(0), SpectralField(BASIS, np.zeros(8)),
                     None, None, grid)
    omega = np.sqrt(BASIS.eigenvalues[0])
    exact = np.cos(omega * grid.times)
    assert np.max(np.abs(sol.w[:, 0] - exact)) < 1e-12
    assert np.max(np.abs(sol.w[:, 1:])) == 0.0
    assert np.max(np.abs(sol.wt[:, 0] + omega * np.sin(omega * grid.times))) < 1e-11
    assert np.max(np.abs(sol.wtt[:, 0] + omega**2 * exact)) < 1e-10


def test_wave_solve_zero_data():
    grid = TimeGrid(1.0, 50)
    zero = SpectralField(BASIS, np.zeros(8))
    sol = wave_solve(FAM, zero, zero, None, None, grid)
    for which in ("w", "wt", "wtt"):
        assert np.all(sol.total(which) == 0.0)


def test_wave_solve_matches_cosine_superposition():
    # same diagonal formulas, so the homogeneous solve is reproducible exactly
    grid = TimeGrid(1.0, 20)
    rng = np.random.default_rng(3)
    z0 = SpectralField(BASIS, rng.normal(size=8))
    z1 = SpectralField(BASIS, rng.normal(size=8))
    sol = wave_solve(FAM, z0, z1, None, None, grid)
    omega = FAM.omega
    for m, t in enumerate(grid.times):
        expected = (np.cos(np.outer([t], omega))[0] * z0.coeffs
                    + np.sin(np.outer([t], omega))[0] / omega * z1.coeffs)
        assert np.array_equal(sol.w[m], expected)
        alt = (np.cos(omega * t) * z0.coeffs
               + np.sin(omega * t) / BASIS.sqrt_eigenvalues / FAM.speed * z1.coeffs)
        assert np.allclose(sol.w[m], alt, rtol=1e-13, atol=1e-13)


def test_wave_energy_conservation():
    # discrete energy sum(zdot^2 + mu z^2) constant for homogeneous data
    grid = TimeGrid(2.0, 400)
    rng = np.random.default_rng(7)
    z0 = SpectralField(BASIS, rng.normal(size=8) / (1 + np.arange(8.0)) ** 2)
    z1 = SpectralField(BASIS, rng.normal(size=8) / (1 + np.arange(8.0)) ** 2)
    sol = wave_solve(FAM, z0, z1, None, None, grid)
    energy = (sol.wt**2 + BASIS.eigenvalues * sol.w**2).sum(axis=1)
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-12


def test_wave_solve_dirichlet_vs_finite_difference():
    # independent leapfrog oracle with Dirichlet injection, 256 cells
    basis = build_basis(DomainSpec("interval", 256), 32)
    fam = CosineFamily(basis)
    steps = 1200
    grid = TimeGrid(1.0, steps)
    zero = SpectralField(basis, np.zeros(basis.size))
    g = BoundaryData(g=lambda t: np.column_stack([np.sin(t), 0.0 * t]),
                     gt=lambda t: np.column_stack([np.cos(t), 0.0 * t]),
                     gtt=lambda t: np.column_stack([-np.sin(t), 0.0 * t]))
    sol = wave_solve(fam, zero, zero, None, g.sample(grid), grid)
    vals = trajectory_on_grid(basis, sol.w, sol.boundary.values, 256)
    _, ref = leapfrog_wave(256, grid, lambda x: 0.0 * x, lambda x: 0.0 * x,
                           g=lambda t: (np.sin(t), 0.0))
    num = np.sqrt(np.mean((vals - ref) ** 2))
    den = np.sqrt(np.mean(ref**2))
    assert num / den < 1e-2


def test_wave_solve_derivatives_match_differencing():
    # forcing plus Dirichlet data: w_t and w_tt of the whole function against
    # centered differences of w, second order in dt
    rng = np.random.default_rng(4)
    z0 = SpectralField(BASIS, rng.normal(size=8) / (1 + np.arange(8.0)) ** 2)
    z1 = SpectralField(BASIS, np.zeros(8))
    g = BoundaryData(g=lambda t: np.column_stack([np.sin(t), 0.5 * t**2]),
                     gt=lambda t: np.column_stack([np.cos(t), t]),
                     gtt=lambda t: np.column_stack([-np.sin(t), 1.0 + 0.0 * t]))
    errs = []
    for steps in (400, 800):
        grid = TimeGrid(1.0, steps)
        f = np.outer(np.cos(grid.times), np.ones(8) / (1 + np.arange(8.0)))
        sol = wave_solve(FAM, z0, z1, f, g.sample(grid), grid)
        w = sol.total("w")
        dw = (w[2:] - w[:-2]) / (2 * grid.dt)
        ddw = (w[2:] - 2 * w[1:-1] + w[:-2]) / grid.dt**2
        errs.append((np.max(np.abs(dw - sol.total("wt")[1:-1])),
                     np.max(np.abs(ddw - sol.total("wtt")[1:-1]))))
    for coarse, fine in zip(*errs):
        assert coarse / fine > 3.0


def test_kop_smoothing_bounded_under_mode_refinement():
    # coefficients ~ 1/k are square summable and no better; the smoothing
    # convolution still has a uniformly bounded spectral H1 norm in N
    grid = TimeGrid(1.0, 800)
    sups = []
    for n in (32, 64, 128):
        basis = build_basis(DomainSpec("interval", 256), n)
        fam = CosineFamily(basis)
        coeffs = 1.0 / np.arange(1, n + 1)
        f = np.ones((grid.steps + 1, 1)) * coeffs[None, :]
        kf = kop_apply(fam, f, grid)
        sups.append(np.sqrt(((1 + basis.eigenvalues) * kf**2).sum(axis=1)).max())
    assert abs(sups[2] - sups[1]) <= abs(sups[1] - sups[0]) + 1e-12
    assert abs(sups[2] - sups[0]) / sups[0] < 1e-3


def test_boundary_probe_zero_signal():
    grid = TimeGrid(1.0, 100)
    g = BoundaryData.zero().sample(grid)
    probe = boundary_convolution_probe(FAM, g, grid)
    assert np.all(probe.minus_entry == 0.0)
    assert np.all(probe.plus_entry == 0.0)


def test_boundary_probe_step_mode_refinement():
    # refinement-stability oracle: N=32 vs N=64 sup-norm series within 5%
    grid = TimeGrid(1.0, 2000)
    sups = []
    for n in (32, 64):
        basis = build_basis(DomainSpec("interval", 256), n)
        fam = CosineFamily(basis)
        g = BoundaryData(g=lambda t: np.column_stack([np.where(t >= 0.3, 1.0, 0.0), 0.0 * t]),
                         gt=lambda t: np.zeros((len(t), 2)),
                         gtt=lambda t: np.zeros((len(t), 2)))
        probe = boundary_convolution_probe(fam, g.sample(grid), grid)
        sups.append(probe.sup_minus())
    assert abs(sups[1] - sups[0]) / sups[0] < 0.05


def test_boundary_probe_linear_bound_over_random_signals():
    # constant estimated by sweep: sup-t norm <= C ||g||_{L2(Sigma)}
    grid = TimeGrid(1.0, 500)
    basis = build_basis(DomainSpec("interval", 256), 16)
    fam = CosineFamily(basis)
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
        probe = boundary_convolution_probe(fam, sig, grid)
        gnorm = np.sqrt(np.trapezoid((sig.values**2).sum(axis=1), dx=grid.dt))
        ratios.append(probe.sup_minus() / gnorm)
    spread = max(ratios)
    assert spread < 10.0  # bounded constant, no blow-up across the sweep
    assert min(ratios) > 0.0
