"""Direct collocation vs Picard series, iterated kernels, residuals."""

import numpy as np
import pytest

from mgtlab.quadrature import composite_weights, convolve_product
from mgtlab.reduction import MgtParams, build_kernel
from mgtlab.spectral import DomainSpec, TimeGrid, build_basis
from mgtlab.volterra import (
    VolterraProblem,
    VolterraSingularError,
    solve_direct,
    solve_picard,
)
from reference import kernel_samples


def const_kernel(grid, value=1.0):
    return np.full(grid.steps + 1, value)


def test_composite_weights_sum_to_interval():
    for rule in ("trapezoid", "gregory4"):
        for m in range(0, 12):
            w = composite_weights(m, 0.1, rule)
            assert w.sum() == pytest.approx(0.1 * m, abs=1e-14)


def test_gregory_weights_exact_on_cubics():
    dt = 0.125
    m = 8
    w = composite_weights(m, dt, "gregory4")
    s = np.arange(m + 1) * dt
    for p in range(4):
        assert np.dot(w, s**p) == pytest.approx((m * dt) ** (p + 1) / (p + 1), rel=1e-13)


def test_zero_kernel_returns_rhs():
    grid = TimeGrid(1.0, 100)
    h = np.sin(grid.times)
    prob = VolterraProblem(const_kernel(grid, 0.0), h, grid)
    assert np.allclose(solve_direct(prob), h)
    res = solve_picard(prob, tol=1e-12)
    assert res.converged and res.terms_used == 1
    assert np.allclose(res.values, h)


def test_unit_kernel_exponential_resolvent():
    # v + int_0^t v = 1  has the analytic resolvent v = e^{-t}
    grid = TimeGrid(1.0, 1000)
    prob = VolterraProblem(const_kernel(grid, 1.0), np.ones(grid.steps + 1), grid)
    v = solve_direct(prob)
    assert np.max(np.abs(v - np.exp(-grid.times))) < 1e-8


def test_direct_vs_picard_cross_method():
    # cross-method oracle on a nontrivial kernel
    grid = TimeGrid(1.0, 1000)
    ker = np.sin(grid.times)
    prob = VolterraProblem(ker, np.ones(grid.steps + 1), grid)
    v = solve_direct(prob)
    res = solve_picard(prob, tol=1e-12)
    assert res.converged
    assert np.max(np.abs(v - res.values)) < 1e-8


def test_picard_series_majorant():
    # term k bounded by ||h|| (Lambda T)^k / k!, modulo quadrature slack
    grid = TimeGrid(1.0, 400)
    samples = const_kernel(grid, 1.0)
    h = np.ones(grid.steps + 1)
    term = h.copy()
    import math

    for k in range(1, 9):
        term = -convolve_product(samples, term, grid.dt, "trapezoid")
        bound = 1.0 ** k / math.factorial(k)
        assert np.max(np.abs(term)) <= bound * (1.0 + 1e-3)


def test_picard_partial_sums_approach_exponential():
    grid = TimeGrid(1.0, 500)
    prob = VolterraProblem(const_kernel(grid, 1.0), np.ones(grid.steps + 1), grid)
    res = solve_picard(prob, tol=1e-12)
    assert res.converged
    assert np.max(np.abs(res.values - np.exp(-grid.times))) < 1e-6


def test_picard_nonconvergence_flag():
    grid = TimeGrid(1.0, 50)
    prob = VolterraProblem(const_kernel(grid, 5.0), np.ones(grid.steps + 1), grid)
    res = solve_picard(prob, max_terms=2, tol=1e-14)
    assert not res.converged
    assert res.last_term_sup >= 1e-14


def test_iterated_kernel_closed_forms():
    grid = TimeGrid(1.0, 800)
    ker = const_kernel(grid, 1.0)
    l2 = convolve_product(ker, ker, grid.dt, "gregory4")
    l3 = convolve_product(ker, l2, grid.dt, "gregory4")
    assert np.max(np.abs(l2 - grid.times)) < 1e-10
    assert np.max(np.abs(l3 - grid.times**2 / 2)) < 1e-10


def test_iterated_kernel_exponential_oracle():
    # symbolic convolution: (e^{-t} * e^{-t})(t) = t e^{-t}
    grid = TimeGrid(1.0, 1000)
    ker = np.exp(-grid.times)
    l2 = convolve_product(ker, ker, grid.dt, "gregory4")
    assert np.max(np.abs(l2 - grid.times * np.exp(-grid.times))) < 1e-6


def test_kernel_samples_must_match_grid():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError):
        VolterraProblem(np.ones((11, 3)), np.ones((11, 2)), grid)


def test_residual_of_returned_solution():
    # sup norm of the discrete residual v + L*v - h, with the solvers' rule
    grid = TimeGrid(1.0, 500)
    ker = np.cos(grid.times)
    prob = VolterraProblem(ker, np.cos(grid.times), grid)

    def residual(v):
        return np.max(np.abs(v + convolve_product(ker, v, grid.dt, "gregory4") - prob.rhs))

    assert residual(solve_direct(prob)) < 1e-12  # forward substitution solves exactly
    tol = 1e-11
    res = solve_picard(prob, tol=tol)
    assert residual(res.values) < 2 * tol  # truncation-tail bound


def test_mgt_kernel_direct_vs_picard():
    # the per-mode memory kernel of the reduction, first interval mode
    basis = build_basis(DomainSpec("interval", 256), 1)
    params = MgtParams(alpha=2.0, b=1.0, c=1.0)
    family = build_kernel(params, basis)
    grid = TimeGrid(1.0, 1000)
    ker = kernel_samples(family, grid.times)[0][:, 0]
    prob = VolterraProblem(ker, np.cos(grid.times), grid)
    v = solve_direct(prob)
    res = solve_picard(prob, tol=1e-12)
    assert res.converged
    assert np.max(np.abs(v - res.values)) < 1e-6


def test_singularity_report():
    grid = TimeGrid(1.0, 10)
    # 1 + w_m l(0) == 0 at the first step: l(0) = -1/w_1 = -2/dt
    bad = const_kernel(grid, -2.0 / grid.dt)
    prob = VolterraProblem(bad, np.ones(11), grid)
    with pytest.raises(VolterraSingularError):
        solve_direct(prob, rule="trapezoid")


def test_batched_columns_match_scalar_solves():
    grid = TimeGrid(1.0, 300)
    ker = np.sin(grid.times)
    rhs = np.stack([np.ones(301), np.cos(grid.times)], axis=1)
    batched = solve_direct(VolterraProblem(ker, rhs, grid))
    for col in range(2):
        single = solve_direct(VolterraProblem(ker, rhs[:, col], grid))
        # summation order differs between shapes; agreement is to rounding
        assert np.allclose(batched[:, col], single, rtol=0, atol=1e-13)
