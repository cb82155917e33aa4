"""Phase rows, the sin/cos convolution, the smoothing convolution, boundary probes."""

import numpy as np
import pytest

from mgtlab.cosine import ANCHOR, PhaseRows, boundary_convolution_probe
from mgtlab.spectral import BoundaryData, BoundarySignal, DomainSpec, TimeGrid, build_basis
from reference import phase_table, sincos_conv

BASIS = build_basis(DomainSpec("interval", 256), 8)
OMEGA = BASIS.sqrt_eigenvalues  # the wave family at speed 1


def smoothing(basis, f, grid):
    """K f = (1/sqrt(mu)) int_0^t sin(sqrt(mu) (t-s)) f(s) ds per mode, as the
    Volterra route forms it from the prefix sums of cos f and sin f."""
    root = basis.sqrt_eigenvalues
    return sincos_conv(*phase_table(root, grid.times), f, grid.dt)[0] / root


def all_rows(omega, grid):
    """cos and sin of omega t on every row of grid, from PhaseRows."""
    return PhaseRows(omega, grid.times, grid.dt).rows(slice(0, grid.steps + 1))


def test_phases_identity_at_zero():
    cos, sin = all_rows(OMEGA, TimeGrid(1.0, 3))
    assert np.all(cos[0] == 1.0)
    assert np.all(sin[0] == 0.0)


def test_phases_eigenmode_half_period():
    # omega_1 = pi on the unit interval at speed 1
    cos, sin = all_rows(OMEGA, TimeGrid(1.0, 1))
    assert cos[1, 0] == pytest.approx(np.cos(np.pi))
    assert sin[1, 0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("steps", [1, ANCHOR - 2, ANCHOR - 1, ANCHOR, 10 * ANCHOR + 17])
@pytest.mark.parametrize("horizon", [1.0, 50.0, 2000.0])
def test_phase_rows_match_cos_sin_of_outer(steps, horizon):
    # within a few ulp of |omega t|: the angle addition rounds at most a few
    # times at unit scale, and t_anchor + j dt differs from t by an ulp of t
    grid = TimeGrid(horizon, steps)
    omega = np.concatenate([OMEGA, [1e-3, 0.37, 40.0]])
    cos, sin = all_rows(omega, grid)
    want_cos, want_sin = phase_table(omega, grid.times)
    bound = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(np.outer(grid.times, omega)))
    assert np.all(np.abs(cos - want_cos) <= bound)
    assert np.all(np.abs(sin - want_sin) <= bound)


def test_phase_rows_depend_on_the_absolute_row_alone():
    # any cut of the rows gives the bits of one call on all of them
    grid = TimeGrid(3.0, 5 * ANCHOR + 9)
    phase = PhaseRows(OMEGA, grid.times, grid.dt)
    whole = phase.rows(slice(0, grid.steps + 1))
    cuts = [0, 1, ANCHOR - 1, ANCHOR, 2 * ANCHOR + 5, 4 * ANCHOR, 4 * ANCHOR + 1,
            grid.steps + 1]
    parts = [phase.rows(slice(a, b)) for a, b in zip(cuts, cuts[1:])]
    for k in range(2):
        assert np.array_equal(np.concatenate([p[k] for p in parts]), whole[k])


def test_cosine_functional_equation_per_mode():
    # d'Alembert: C(t+s) + C(t-s) = 2 C(t) C(s) on grid rows n +- m, n, m
    grid = TimeGrid(2.0, 3 * ANCHOR)
    cos = all_rows(OMEGA, grid)[0]
    rng = np.random.default_rng(0)
    for n, m in rng.integers(0, grid.steps // 2, size=(25, 2)):
        lhs = cos[n + m] + cos[abs(n - m)]
        rhs = 2.0 * cos[n] * cos[m]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sincos_conv_parts_match_derivative_and_quadrature():
    # cos part = (d/dt sin part) / omega, since sin(0) = 0; both parts against
    # an independent trapezoid quadrature of the convolution integrals
    grid = TimeGrid(1.0, 4000)
    t = grid.times
    f = np.column_stack([np.cos(3.0 * t) + t, np.exp(-t), t**2])
    omega = OMEGA[:3]
    sin_part, cos_part = sincos_conv(*phase_table(omega, t), f, grid.dt)
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


def test_boundary_probe_is_the_sine_convolution_norm():
    # the probe's phase rows and prefix sums against the plain phase table
    grid = TimeGrid(1.0, 700)
    basis = build_basis(DomainSpec("interval", 256), 16)
    g = BoundaryData(g=lambda t: np.column_stack([np.sin(3.0 * t), t**2]),
                     gt=lambda t: np.column_stack([3.0 * np.cos(3.0 * t), 2.0 * t]),
                     gtt=lambda t: np.column_stack([-9.0 * np.sin(3.0 * t), 2.0 + 0.0 * t]))
    sig = g.sample(grid)
    dhat = sig.values @ basis.lift_matrix()
    conv = sincos_conv(*phase_table(2.0 * basis.sqrt_eigenvalues, grid.times), dhat, grid.dt)[0]
    want = np.linalg.norm(basis.sqrt_eigenvalues * conv, axis=1)
    got = boundary_convolution_probe(basis, 2.0, sig, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


def test_boundary_probe_zero_signal():
    grid = TimeGrid(1.0, 100)
    g = BoundarySignal.zero(grid, 2)
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
