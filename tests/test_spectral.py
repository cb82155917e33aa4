"""Eigenbasis geometry, Dirichlet map, Sobolev norms, trajectories, traces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtlab import spectral
from mgtlab.spectral import (
    BoundaryData,
    BoundarySignal,
    DomainSpec,
    SpectralField,
    TimeGrid,
    Trajectory,
    build_basis,
    gram_forms,
    gram_rows,
    normal_trace,
    row_forms,
)
from reference import evaluate, grid_sobolev_norm

INTERVAL = DomainSpec("interval", 256)
SQUARE = DomainSpec("square", 64)


def test_interval_eigenvalues_closed_form():
    basis = build_basis(INTERVAL, 4)
    assert basis.eigenvalues[0] == pytest.approx(np.pi**2)
    assert basis.eigenvalues[2] == pytest.approx(9 * np.pi**2)


def test_square_eigenvalues_closed_form():
    basis = build_basis(SQUARE, 3)
    # row-major flattening: (1,2) is the second mode
    assert basis.eigenvalues[1] == pytest.approx(5 * np.pi**2)
    j, k = basis.indices[1]
    assert (j, k) == (1, 2)


def test_rejects_bad_mode_count():
    with pytest.raises(ValueError):
        build_basis(INTERVAL, 0)


def test_rejects_tiny_grid():
    with pytest.raises(ValueError):
        DomainSpec("interval", 4)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_time_grid_rejects_a_non_finite_horizon(horizon):
    with pytest.raises(ValueError, match=f"horizon must be positive and finite, got {horizon!r}"):
        TimeGrid(horizon, 50)


def test_orthonormality_by_grid_quadrature():
    # trapezoid quadrature is exact here once the modes are resolved
    basis = build_basis(INTERVAL, 16)
    x = np.linspace(0.0, 1.0, 257)
    mat = basis.eval_matrix_1d(x)
    gram = np.zeros((16, 16))
    for i in range(16):
        for j in range(16):
            gram[i, j] = np.trapezoid(mat[i] * mat[j], x)
    assert np.max(np.abs(gram - np.eye(16))) < 1e-8


@pytest.mark.parametrize("mode,cells", [(1, 256), (4, 256), (8, 256), (16, 1024)])
def test_eigen_residual_under_differencing(mode, cells):
    basis = build_basis(DomainSpec("interval", cells), mode)
    x = np.linspace(0.0, 1.0, cells + 1)
    h = 1.0 / cells
    e = np.sqrt(2.0) * np.sin(mode * np.pi * x)
    lap = np.zeros_like(e)
    lap[1:-1] = (e[:-2] - 2 * e[1:-1] + e[2:]) / h**2
    resid = lap[1:-1] + basis.eigenvalues[mode - 1] * e[1:-1]
    rel = np.linalg.norm(resid) / np.linalg.norm(basis.eigenvalues[mode - 1] * e[1:-1])
    assert rel < 1e-3


def test_dirichlet_map_affine_interval():
    basis = build_basis(INTERVAL, 8)
    lift = SpectralField(basis, np.zeros(basis.size), [2.0, -1.0])
    x = basis.grid_points(64)
    assert np.allclose(evaluate(lift, 64), 2.0 - 3.0 * x)


def test_dirichlet_map_coefficients_match_quadrature():
    # oracle: numerical quadrature of (1 - x) sqrt(2) sin(k pi x)
    basis = build_basis(INTERVAL, 8)
    lift = SpectralField(basis, np.zeros(basis.size), [1.0, 0.0])
    x = np.linspace(0.0, 1.0, 20001)
    for k in range(1, 9):
        ref = np.trapezoid((1.0 - x) * np.sqrt(2) * np.sin(k * np.pi * x), x)
        assert lift.total_coeffs()[k - 1] == pytest.approx(ref, abs=1e-7)
        assert lift.total_coeffs()[k - 1] == pytest.approx(np.sqrt(2) / (k * np.pi))


def test_dirichlet_map_zero_data():
    basis = build_basis(INTERVAL, 8)
    lift = SpectralField(basis, np.zeros(basis.size), [0.0, 0.0])
    assert np.all(lift.total_coeffs() == 0.0)
    assert np.all(evaluate(lift, 32) == 0.0)


def test_dirichlet_map_rejects_nonfinite():
    basis = build_basis(INTERVAL, 4)
    with pytest.raises(ValueError):
        SpectralField(basis, np.zeros(basis.size), [np.nan, 0.0])


@pytest.mark.parametrize("domain", [INTERVAL, SQUARE])
def test_flux_identity_all_modes(domain):
    # mu_k <D phi, e_k> + boundary pairing of phi with d_nu e_k = 0
    basis = build_basis(domain, 6)
    rng = np.random.default_rng(1)
    phi = rng.normal(size=domain.boundary_size)
    coeffs = phi @ basis.lift_matrix
    pairing = phi @ basis.boundary_flux
    assert np.max(np.abs(basis.eigenvalues * coeffs + pairing)) < 1e-12


def spectral_norm(field, s):
    """(sum (1 + mu_k)^s |u_k|^2)^(1/2) over the total eigen-coefficients:
    an H^s norm for zero-trace fields."""
    u = field.total_coeffs()
    return float(np.sqrt(np.sum((1.0 + field.basis.eigenvalues) ** s * u**2)))


def grid_norm(field, s, n=None):
    """The finite-difference H^s norm of a field evaluated on its grid."""
    n = n or field.basis.domain.grid_points_per_axis
    return grid_sobolev_norm(evaluate(field, n), 1.0 / n, s)


def test_sobolev_norm_orthonormal_mode():
    basis = build_basis(INTERVAL, 8)
    e1 = SpectralField(basis, np.eye(8)[0])
    assert spectral_norm(e1, 0) == pytest.approx(1.0)
    assert spectral_norm(e1, 1) == pytest.approx(np.sqrt(1 + np.pi**2))
    zero = SpectralField(basis, np.zeros(8))
    for s in (0, 1, 2):
        assert spectral_norm(zero, s) == 0.0


def test_sobolev_norm_grid_agrees_with_spectral():
    basis = build_basis(DomainSpec("interval", 1024), 8)
    e1 = SpectralField(basis, np.eye(8)[0])
    spec = spectral_norm(e1, 1)
    grid = grid_norm(e1, 1)
    assert abs(spec - grid) / spec < 0.01


def test_sobolev_norm_agreement_under_refinement():
    # smooth combination, zero trace: both methods are H^1-consistent
    basis = build_basis(INTERVAL, 6)
    field = SpectralField(basis, np.array([1.0, -0.5, 0.25, 0.0, 0.1, 0.0]))
    spec = spectral_norm(field, 1)
    prev = None
    for n in (256, 512, 1024):
        grid = grid_norm(field, 1, n)
        err = abs(grid - spec) / spec
        assert err < 0.01
        if prev is not None:
            assert err <= prev * 1.05
        prev = err


def test_sobolev_norm_rejects_bad_order():
    basis = build_basis(INTERVAL, 4)
    f = SpectralField(basis, np.zeros(4))
    with pytest.raises(ValueError):
        grid_norm(f, 3)


# The lifting is kept within 100 times the interior part: from about 10^4
# times, rounding in the second differences of the affine part (which the
# grid reference and the Gram forms each carry differently) reaches 1e-13 of
# the H^2 norm.
@settings(max_examples=60, deadline=None)
@given(modes=st.integers(1, 64), n=st.integers(8, 1024), seed=st.integers(0, 2**16),
       lift=st.sampled_from([0.0, 1e-2, 1.0, 1e2]), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_gram_norms_match_grid_norms(modes, n, seed, lift, scale):
    basis = build_basis(INTERVAL, modes)
    rng = np.random.default_rng(seed)
    interior = scale * rng.normal(size=(3, modes))
    boundary = scale * lift * rng.normal(size=(3, 2))
    vals = np.stack([evaluate(SpectralField(basis, c, e), n)
                     for c, e in zip(interior, boundary)])
    grams = gram_forms(basis, n)
    rows = gram_rows(interior, boundary)
    for s in (0, 1, 2):
        np.testing.assert_allclose(np.sqrt(row_forms(rows, sum(grams[:s + 1]))),
                                   grid_sobolev_norm(vals, 1.0 / n, s),
                                   rtol=1e-13, atol=0)


def test_gram_forms_are_cached_and_read_only():
    grams = gram_forms(build_basis(INTERVAL, 8), 128)
    assert gram_forms(build_basis(INTERVAL, 8), 128) is grams
    assert [g.shape for g in grams] == [(10, 10)] * 3
    with pytest.raises(ValueError):
        grams[0][0, 0] = 1.0
    # a whole-function trajectory has zero node values
    rows = gram_rows(np.ones((2, 8)))
    assert np.array_equal(rows, np.hstack([np.ones((2, 8)), np.zeros((2, 2))]))


def test_gram_forms_reject_square():
    with pytest.raises(NotImplementedError):
        gram_forms(build_basis(SQUARE, 4), 64)


def test_normal_trace_eigenfunctions():
    basis = build_basis(INTERVAL, 8)
    res = normal_trace(basis, np.eye(8)[:1])
    assert res.converged
    left, right = res.series[0]
    assert left == pytest.approx(-np.sqrt(2) * np.pi)
    assert right == pytest.approx(np.sqrt(2) * np.pi * np.cos(np.pi))


def test_normal_trace_lifting_only():
    basis = build_basis(INTERVAL, 8)
    lift = SpectralField(basis, np.zeros(basis.size), [1.0, 3.0])  # slope 2
    res = normal_trace(basis, lift.total_coeffs()[None], lift.boundary[None])
    assert res.converged
    assert res.series[0, 1] == pytest.approx(2.0)
    assert res.series[0, 0] == pytest.approx(-2.0)


def test_normal_trace_flags_slow_tail():
    # coefficients ~ (-1)^k / (k pi): the differentiated sum stalls
    basis = build_basis(INTERVAL, 64)
    k = np.arange(1, 65)
    coeffs = ((-1.0) ** k) / (k * np.pi)
    res = normal_trace(basis, coeffs[None])
    assert not res.converged
    # the lifting never enters the flag: it has no eigen-sum to truncate
    assert not normal_trace(basis, coeffs[None], np.array([[5.0, -5.0]])).converged


@pytest.mark.parametrize("decay", [1.0, 3.0])
def test_normal_trace_reads_the_lower_half_as_views(decay):
    # interval eigenvalues ascend, so the lower half of the spectrum is the
    # leading columns: the series and the flag keep the bits of the half
    # taken by argsort, the lifting's fluxes taken out of both sums, and
    # neither a half-plane copy nor a zero-trace array is made
    basis = build_basis(INTERVAL, 128)
    assert np.all(np.diff(basis.eigenvalues) > 0)
    rng = np.random.default_rng(int(decay))
    interior = rng.normal(size=(2001, 128)) / np.arange(1, 129) ** decay
    boundary = rng.normal(size=(2001, 2))
    dn, lift = basis.boundary_flux, basis.lift_matrix
    whole = interior + boundary @ lift
    half = np.argsort(basis.eigenvalues, kind="stable")[:64]
    series = whole @ dn.T - boundary @ (lift @ dn.T)
    part = whole[:, half] @ dn[:, half].T - boundary @ (lift[:, half] @ dn[:, half].T)
    scale = np.max(np.abs(series)) + 1e-12
    converged = bool(np.max(np.abs(series - part)) <= spectral._TRACE_RTOL * scale)
    slope = boundary[:, 0] - boundary[:, 1]
    got = normal_trace(basis, whole, boundary)
    assert got.converged == converged and converged == (decay > 2.0)
    assert np.array_equal(got.series, series + np.column_stack([slope, -slope]))
    assert np.allclose(series, interior @ dn.T, rtol=0.0, atol=1e-13 * scale)
    tracemalloc.start()
    normal_trace(basis, whole, boundary)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < whole.nbytes // 8


def test_normal_trace_rejects_square():
    with pytest.raises(NotImplementedError):
        normal_trace(build_basis(SQUARE, 2), np.zeros((1, 4)))


def random_trajectories(basis, steps, seed):
    """A trajectory with random whole-function arrays and boundary signal,
    and one with the same arrays and no boundary signal."""
    grid = TimeGrid(1.0, steps)
    rng = np.random.default_rng(seed)
    w, wt, wtt = (rng.normal(size=(steps + 1, basis.size)) for _ in range(3))
    nodes = basis.domain.boundary_size
    sig = BoundarySignal(grid, *(rng.normal(size=(steps + 1, nodes)) for _ in range(3)))
    return (Trajectory(basis, grid, w, wt, wtt, sig),
            Trajectory(basis, grid, w, wt, wtt, None))


def test_trajectory_total_trace_and_field():
    basis = build_basis(INTERVAL, 8)
    lifted, whole = random_trajectories(basis, 3, 2)
    sig = lifted.boundary
    for which, total, edge in (("w", lifted.w, sig.values), ("wt", lifted.wt, sig.dvalues),
                               ("wtt", lifted.wtt, sig.ddvalues)):
        assert np.array_equal(lifted.interior(which), total - edge @ basis.lift_matrix)
        assert lifted.total(which) is whole.total(which) is total
        assert np.array_equal(whole.interior(which), total)
        assert whole.boundary_values(which) is None
        assert lifted.boundary_values(which) is edge
        fld = SpectralField(basis, lifted.interior(which)[2], edge[2])
        assert fld.total_coeffs() == pytest.approx(lifted.total(which)[2])
    a, b = sig.values[:, 0], sig.values[:, 1]
    expected = lifted.interior("w") @ basis.boundary_flux.T + np.column_stack([a - b, b - a])
    assert lifted.trace("w").series == pytest.approx(expected, rel=0.0, abs=1e-13)


def test_boundary_signal_shape_validation():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError):
        BoundarySignal(grid, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((5, 2)))


def test_boundary_data_rejects_per_time_callables():
    # the callables take all times at once; a (nodes,) result is an error
    def per_time(t):
        return np.array([1.0, 0.0])

    data = BoundaryData(g=per_time, gt=per_time, gtt=per_time)
    with pytest.raises(ValueError, match=r"\(T, nodes\)"):
        data.sample(TimeGrid(1.0, 10))
    # g_t and g_tt are part of the datum, never derived from g
    with pytest.raises(TypeError):
        BoundaryData(g=per_time)


def test_boundary_data_analytic_derivatives_recorded():
    grid = TimeGrid(1.0, 50)
    data = BoundaryData(g=lambda t: np.column_stack([t, 0.0 * t]),
                        gt=lambda t: np.column_stack([1.0 + 0.0 * t, 0.0 * t]),
                        gtt=lambda t: np.zeros((len(t), 2)))
    sig = data.sample(grid)
    assert np.array_equal(sig.values[:, 0], grid.times)
    assert np.all(sig.dvalues[:, 0] == 1.0)
    assert np.all(sig.ddvalues == 0.0)
