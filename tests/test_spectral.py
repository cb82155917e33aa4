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
    grid_sobolev_norm,
    lifting_values_square,
    normal_trace,
    row_forms,
    sobolev_norm,
)

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
    assert np.allclose(lift.evaluate(64), 2.0 - 3.0 * x)


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
    assert np.all(lift.evaluate(32) == 0.0)


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
    coeffs = phi @ basis.lift_matrix()
    pairing = phi @ basis.boundary_flux()
    assert np.max(np.abs(basis.eigenvalues * coeffs + pairing)) < 1e-12


def test_square_lifting_is_harmonic_and_matches_edges():
    vals = lifting_values_square(np.array([1.0, 0.0, 0.0, 0.0]),
                                 np.linspace(0.0, 1.0, 65))
    h = 1.0 / 64
    interior = vals[1:-1, 1:-1]
    lap = (vals[:-2, 1:-1] + vals[2:, 1:-1] + vals[1:-1, :-2] + vals[1:-1, 2:]
           - 4 * interior) / h**2
    # deep interior: the series is smooth and discretely harmonic there
    assert np.max(np.abs(lap[15:-15, 15:-15])) < 1e-2
    # truncated sine series of the constant edge value, away from the corners
    assert np.max(np.abs(vals[0, 8:-8] - 1.0)) < 2e-2
    # by the four-fold symmetry the exact extension equals 1/4 at the center
    assert vals[32, 32] == pytest.approx(0.25, abs=1e-3)


def test_sobolev_norm_orthonormal_mode():
    basis = build_basis(INTERVAL, 8)
    e1 = SpectralField(basis, np.eye(8)[0])
    assert sobolev_norm(e1, 0) == pytest.approx(1.0)
    assert sobolev_norm(e1, 1) == pytest.approx(np.sqrt(1 + np.pi**2))
    zero = SpectralField(basis, np.zeros(8))
    for s in (0, 1, 2):
        assert sobolev_norm(zero, s) == 0.0


def test_sobolev_norm_grid_agrees_with_spectral():
    basis = build_basis(DomainSpec("interval", 1024), 8)
    e1 = SpectralField(basis, np.eye(8)[0])
    spec = sobolev_norm(e1, 1, method="spectral")
    grid = sobolev_norm(e1, 1, method="grid")
    assert abs(spec - grid) / spec < 0.01


def test_sobolev_norm_agreement_under_refinement():
    # smooth combination, zero trace: both methods are H^1-consistent
    basis = build_basis(INTERVAL, 6)
    field = SpectralField(basis, np.array([1.0, -0.5, 0.25, 0.0, 0.1, 0.0]))
    spec = sobolev_norm(field, 1, method="spectral")
    prev = None
    for n in (256, 512, 1024):
        grid = sobolev_norm(field, 1, method="grid", n=n)
        err = abs(grid - spec) / spec
        assert err < 0.01
        if prev is not None:
            assert err <= prev * 1.05
        prev = err


def test_sobolev_norm_rejects_bad_order():
    basis = build_basis(INTERVAL, 4)
    f = SpectralField(basis, np.zeros(4))
    with pytest.raises(ValueError):
        sobolev_norm(f, 3)


def test_grid_norm_square_field():
    basis = build_basis(SQUARE, 4)
    coeffs = np.zeros(16)
    coeffs[0] = 1.0  # mode (1,1), L2-normalized
    field = SpectralField(basis, coeffs)
    assert sobolev_norm(field, 0, method="grid", n=128) == pytest.approx(1.0, rel=1e-3)


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
    vals = np.stack([SpectralField(basis, c, e).evaluate(n)
                     for c, e in zip(interior, boundary)])
    grams = gram_forms(basis, n)
    rows = gram_rows(interior, boundary)
    for s in (0, 1, 2):
        np.testing.assert_allclose(np.sqrt(row_forms(rows, sum(grams[:s + 1]))),
                                   grid_sobolev_norm(vals, (1.0 / n,), s),
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
    res = normal_trace(basis, lift.coeffs[None], lift.boundary[None])
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
    # taken by argsort, and no half-plane copy is made
    basis = build_basis(INTERVAL, 128)
    assert np.all(np.diff(basis.eigenvalues) > 0)
    rng = np.random.default_rng(int(decay))
    interior = rng.normal(size=(2001, 128)) / np.arange(1, 129) ** decay
    boundary = rng.normal(size=(2001, 2))
    dn = basis.boundary_flux()
    half = np.argsort(basis.eigenvalues, kind="stable")[:64]
    series = interior @ dn.T
    part = interior[:, half] @ dn[:, half].T
    scale = np.max(np.abs(series)) + 1e-12
    converged = bool(np.max(np.abs(series - part)) <= spectral._TRACE_RTOL * scale)
    slope = boundary[:, 0] - boundary[:, 1]
    got = normal_trace(basis, interior, boundary)
    assert got.converged == converged and converged == (decay > 2.0)
    assert np.array_equal(got.series, series + np.column_stack([slope, -slope]))
    tracemalloc.start()
    normal_trace(basis, interior)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < interior.nbytes // 8


def test_normal_trace_rejects_square():
    with pytest.raises(NotImplementedError):
        normal_trace(build_basis(SQUARE, 2), np.zeros((1, 4)))


def test_trajectory_total_trace_and_field():
    basis = build_basis(INTERVAL, 8)
    grid = TimeGrid(1.0, 3)
    rng = np.random.default_rng(2)
    w, wt, wtt = (rng.normal(size=(4, 8)) for _ in range(3))
    sig = BoundarySignal(grid, rng.normal(size=(4, 2)), rng.normal(size=(4, 2)),
                         rng.normal(size=(4, 2)))
    lifted = Trajectory(basis, grid, w, wt, wtt, sig)
    whole = Trajectory(basis, grid, w, wt, wtt, None)
    lift = basis.lift_matrix()
    for which, interior, edge in (("w", w, sig.values), ("wt", wt, sig.dvalues),
                                  ("wtt", wtt, sig.ddvalues)):
        assert lifted.total(which) == pytest.approx(interior + edge @ lift)
        assert whole.total(which) is interior
        assert whole.boundary_values(which) is None
        assert lifted.boundary_values(which) is edge
        fld = SpectralField(basis, lifted.interior(which)[2], edge[2])
        assert fld.total_coeffs() == pytest.approx(lifted.total(which)[2])
    a, b = sig.values[:, 0], sig.values[:, 1]
    expected = w @ basis.boundary_flux().T + np.column_stack([a - b, b - a])
    assert np.array_equal(lifted.trace("w").series, expected)


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
