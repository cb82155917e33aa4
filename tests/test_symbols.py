"""Symbol eigenstructure, the Lopatinskii sweep, weighted norms, probes.

Weighted norms and both probes read the Gram forms of the grid norms
(spectral.gram_forms); the grid evaluation they replace is kept here as the
probes' reference.
"""

import numpy as np
import pytest

from mgtlab import spectral
from mgtlab.generators import ScenarioSpec, make_scenario
from mgtlab.harness import norm_series
from mgtlab.reduction import MgtData, MgtParams, solve_mgt
from mgtlab.spectral import (
    DomainSpec,
    EigenBasis,
    SpectralField,
    TimeGrid,
    _l2sq,
    build_basis,
    gram_forms,
    gram_rows,
    grid_sobolev_norm,
    sobolev_norm,
)
from mgtlab.symbols import (
    FrequencyPoint,
    _probe_sides,
    analytic_ratio_floor,
    estimate_probe,
    finite_eigenvalues,
    lopatinskii_ratio,
    lopatinskii_sweep,
    stable_subspace,
    system_symbol,
)


def random_sphere_points(n, seed=0, beta_min=1e-6):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    for row in raw:
        yield FrequencyPoint(row[0], max(abs(row[1]), beta_min),
                             np.array([row[2]])).normalized()


def pencil(pt, b, lam):
    """lam A^d - G for the symbol at pt (system_symbol, the paper's pencil)."""
    sym = system_symbol(pt, b)
    return lam * sym.Ad - sym.G


def subspace_residual(pt, b):
    """||(lam_- A^d - G) z|| for the unit stable eigenvector z at pt normalized."""
    pt = pt.normalized()
    _, lam_minus = finite_eigenvalues(pt, b)
    return float(np.linalg.norm(pencil(pt, b, lam_minus) @ stable_subspace(pt, b)))


def test_symbol_matrix_entries():
    pt = FrequencyPoint(0.3, 0.4, [0.5]).normalized()
    sym = system_symbol(pt, 2.0)
    s = 1j * pt.tau + pt.weight_beta
    assert sym.G[2, 0] == pytest.approx(-(s**3 + 2.0 * pt.eta_sq * s) / pt.norm_sq)
    assert sym.G[2, 2] == pytest.approx(2.0 * s)
    assert sym.G[0, 1] == pytest.approx(np.sqrt(pt.norm_sq))
    assert np.linalg.matrix_rank(sym.Ad) == 2


def test_eigenvalues_trivial_point():
    pt = FrequencyPoint(0.0, 1.0, [0.0])
    lp, lm = finite_eigenvalues(pt, 1.0)
    assert lp == pytest.approx(1.0)
    assert lm == pytest.approx(-1.0)


def test_eigenvalues_tangential_limit():
    pt = FrequencyPoint(0.0, 1e-9, [1.0]).normalized()
    lp, _ = finite_eigenvalues(pt, 1.0)
    assert lp == pytest.approx(1.0, abs=1e-6)


def test_degenerate_pencil_flag():
    with pytest.raises(ValueError):
        finite_eigenvalues(FrequencyPoint(0.5, 0.0, [0.5]), 1.0)


def test_determinant_identity_random_points():
    for pt in random_sphere_points(200, seed=1):
        lp, lm = finite_eigenvalues(pt, 1.0)
        assert abs(np.linalg.det(pencil(pt, 1.0, lp))) < 1e-10
        assert abs(np.linalg.det(pencil(pt, 1.0, lm))) < 1e-10


def test_conjugate_reflection_convention():
    # reflecting tau -> -tau conjugates the eigenvalue branch
    for pt in random_sphere_points(100, seed=2):
        mirrored = FrequencyPoint(-pt.tau, pt.weight_beta, pt.eta)
        lp, _ = finite_eigenvalues(pt, 1.0)
        lq, _ = finite_eigenvalues(mirrored, 1.0)
        assert lp == pytest.approx(np.conj(lq), abs=1e-12)


def test_branch_separation_strict():
    for pt in random_sphere_points(300, seed=3):
        lp, lm = finite_eigenvalues(pt, 0.7)
        assert lp.real > 0.0
        assert lm.real < 0.0


def test_stable_subspace_trivial_point():
    pt = FrequencyPoint(0.0, 1.0, [0.0])
    z = stable_subspace(pt, 1.0)
    assert np.allclose(np.abs(z), 1.0 / np.sqrt(3.0))
    assert z[1].real < 0  # middle component carries the stable eigenvalue
    assert subspace_residual(pt, 1.0) < 1e-10


def test_stable_subspace_residual_random():
    for pt in random_sphere_points(200, seed=4):
        assert subspace_residual(pt, 1.0) < 1e-10
        assert subspace_residual(pt, 4.0) < 1e-10


def test_subspace_continuity_along_path():
    # smooth dependence: no jumps along tau = 1 - eps, beta = eps
    prev = None
    for eps in np.linspace(1e-4, 0.5, 60):
        pt = FrequencyPoint(1.0 - eps, eps, [0.0]).normalized()
        z = stable_subspace(pt, 1.0)
        if prev is not None:
            assert np.linalg.norm(z - prev) < 0.2
        prev = z


def test_first_component_never_vanishes():
    for pt in random_sphere_points(500, seed=5):
        z = stable_subspace(pt, 1.0)
        assert abs(z[0]) > 0.1


def test_homogeneity_degree_one():
    for pt in random_sphere_points(50, seed=6):
        lp, _ = finite_eigenvalues(pt, 1.0)
        scaled = FrequencyPoint(3.7 * pt.tau, 3.7 * pt.weight_beta, 3.7 * pt.eta)
        lps, _ = finite_eigenvalues(scaled, 1.0)
        assert lps == pytest.approx(3.7 * lp, rel=1e-12)
        assert lopatinskii_ratio(scaled.normalized(), 1.0) == pytest.approx(
            lopatinskii_ratio(pt, 1.0), abs=1e-10)


def test_lopatinskii_trivial_value():
    pt = FrequencyPoint(0.0, 1.0, [0.0])
    assert lopatinskii_ratio(pt, 1.0) == pytest.approx(1.0 / np.sqrt(3.0))


def test_sweep_b1_floor():
    sweep = lopatinskii_sweep(1.0, samples=10000, beta_min=1e-6, seed=0)
    assert sweep.minimum >= 0.5
    assert sweep.minimum >= sweep.floor - 1e-9
    assert sweep.rows.shape[1] == 4


def test_sweep_other_b_values():
    for b in (0.25, 4.0):
        sweep = lopatinskii_sweep(b, samples=2000, seed=0)
        assert sweep.minimum > 0.0
        assert sweep.minimum >= analytic_ratio_floor(b) - 1e-9
        assert sweep.argmin is not None


def test_sweep_rejects_small_sample_count():
    with pytest.raises(ValueError):
        lopatinskii_sweep(1.0, samples=10)


def test_sweep_rows_match_pointwise_ratio():
    # the vectorized sweep against the scalar FrequencyPoint reference
    for b in (0.25, 1.0, 4.0):
        sweep = lopatinskii_sweep(b, samples=2000, seed=3)
        tau, beta, eta, ratio = sweep.rows.T
        assert np.allclose(tau**2 + beta**2 + eta**2, 1.0, rtol=0, atol=1e-15)
        want = [lopatinskii_ratio(FrequencyPoint(t, be, [e]), b)
                for t, be, e in zip(tau, beta, eta)]
        np.testing.assert_allclose(ratio, want, rtol=0, atol=1e-14)
        assert sweep.minimum == ratio.min()
        assert sweep.argmin.weight_beta == beta[np.argmin(ratio)]


def weighted_norm(field, k, beta, n):
    """sum over j <= k of beta^(2k-2j) ||d_x^j u||^2, square-rooted, from the
    Gram forms: the spatial weighting of the resolvent probe."""
    grams = gram_forms(field.basis, n)
    y = gram_rows(field.coeffs, field.boundary)
    return float(np.sqrt(sum(beta ** (2 * (k - j)) * (y @ grams[j] @ y)
                             for j in range(k + 1))))


def test_weighted_norm_zero_and_k0():
    basis = build_basis(DomainSpec("interval", 256), 8)
    zero = SpectralField(basis, np.zeros(8), np.zeros(2))
    for k in (0, 1, 2):
        assert weighted_norm(zero, k, 2.0, 64) == 0.0
    rng = np.random.default_rng(0)
    field = SpectralField(basis, rng.normal(size=8), rng.normal(size=2))
    assert weighted_norm(field, 0, 7.3, 64) == pytest.approx(
        sobolev_norm(field, 0, method="grid", n=64), rel=1e-13)


def test_weighted_norm_symbolic_oracle():
    # u = c e_k + a (1 - x) + b x: one mode plus an affine lifting
    k, c, a, b, beta, n = 3, 0.7, -0.4, 1.3, 2.0, 1024
    basis = build_basis(DomainSpec("interval", n), 4)
    field = SpectralField(basis, c * np.eye(4)[k - 1], np.array([a, b]))
    kpi = k * np.pi
    l2 = (c**2 + (a * a + a * b + b * b) / 3.0
          + 2.0 * c * np.sqrt(2.0) * (a - b * (-1) ** k) / kpi)
    h1 = c**2 * kpi**2 + (b - a) ** 2
    h2 = c**2 * kpi**4
    assert weighted_norm(field, 1, beta, n) == pytest.approx(
        np.sqrt(beta**2 * l2 + h1), rel=1e-4)
    assert weighted_norm(field, 2, beta, n) == pytest.approx(
        np.sqrt(beta**4 * l2 + beta**2 * h1 + h2), rel=1e-4)


def test_weighted_norm_reduces_to_sobolev_at_unit_weight():
    rng = np.random.default_rng(1)
    basis = build_basis(DomainSpec("interval", 256), 16)
    field = SpectralField(basis, rng.normal(size=16) / np.arange(1, 17) ** 2,
                          rng.normal(size=2))
    assert weighted_norm(field, 2, 1.0, 64) == pytest.approx(
        grid_sobolev_norm(field.evaluate(64), (1.0 / 64,), 2), rel=1e-13)


PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
BASIS = build_basis(DomainSpec("interval", 256), 16)


def test_probe_zero_data_ratio_zero():
    zero = SpectralField(BASIS, np.zeros(BASIS.size))
    data = MgtData(w0=zero, w1=SpectralField(BASIS, np.zeros(BASIS.size)),
                   w2=SpectralField(BASIS, np.zeros(BASIS.size)))
    bundle = solve_mgt(data, PARAMS, TimeGrid(1.0, 200))
    res = estimate_probe(bundle, data, "semigroup_10")
    assert res.ratio == 0.0


def test_probe_refinement_stability():
    ratios = {}
    for n, steps in ((16, 400), (32, 800)):
        basis = build_basis(DomainSpec("interval", 256), n)
        data = make_scenario(basis, ScenarioSpec(seed=5))
        bundle = solve_mgt(data, PARAMS, TimeGrid(1.0, steps))
        for which in ("resolvent_4a", "semigroup_10"):
            res = estimate_probe(bundle, data, which, weight_beta=2.0)
            ratios.setdefault(which, []).append(res.ratio)
    for which, (r1, r2) in ratios.items():
        assert abs(r2 - r1) / r1 < 0.10


def test_probe_randomized_sweep_no_blowup():
    vals = []
    grid = TimeGrid(1.0, 300)
    for seed in range(25):
        data = make_scenario(BASIS, ScenarioSpec(seed=seed))
        bundle = solve_mgt(data, PARAMS, grid)
        res = estimate_probe(bundle, data, "semigroup_10", space_points=128)
        vals.append(res.ratio)
    vals = np.array(vals)
    assert vals.max() / np.median(vals) < 10.0


def test_probe_rejects_unknown_kind():
    data = make_scenario(BASIS, ScenarioSpec(seed=0))
    bundle = solve_mgt(data, PARAMS, TimeGrid(1.0, 100))
    with pytest.raises(ValueError):
        estimate_probe(bundle, data, "nonsense")


def grid_probe_sides(bundle, data, which, beta, space_points):
    """Both sides of a probe from the evaluated grid: finite differences and
    nested trapezoids over (steps+1) x (space_points+1) samples."""
    basis = bundle.basis
    times = bundle.grid.times
    dt = bundle.grid.dt
    hx = 1.0 / space_points
    spac = (dt, hx)
    w_vals, wt_vals, wtt_vals = (
        np.stack([SpectralField(basis, bundle.interior(comp)[m],
                                bundle.boundary_values(comp)[m]).evaluate(space_points)
                  for m in range(len(times))])
        for comp in ("w", "wt", "wtt"))
    trace_w = bundle.trace("w").series
    trace_wt = bundle.trace("wt").series
    g, g_t, g_tt = (bundle.boundary_values(comp) for comp in ("w", "wt", "wtt"))
    fsamp = bundle.f_samples
    f_vals = (np.stack([SpectralField(basis, row).evaluate(space_points) for row in fsamp])
              if np.any(fsamp) else np.zeros_like(w_vals))
    dx = lambda arr: np.gradient(arr, hx, axis=1, edge_order=2)
    lat = lambda arr: sum(_l2sq(arr[:, j], (dt,)) for j in range(arr.shape[1]))

    if which == "resolvent_4a":
        env = np.exp(-beta * times)[:, None]
        u = env * w_vals
        u_t = env * (wt_vals - beta * w_vals)
        u_tt = env * (wtt_vals - 2.0 * beta * wt_vals + beta**2 * w_vals)
        u_x = dx(u)
        lhs_q = (beta**4 * _l2sq(u, spac)
                 + beta**2 * (_l2sq(u_t, spac) + _l2sq(u_x, spac))
                 + _l2sq(u_tt, spac) + _l2sq(dx(u_t), spac) + _l2sq(dx(u_x), spac))
        tr = env * trace_w
        tr_t = env * (trace_wt - beta * trace_w)
        lhs = beta * lhs_q + beta**2 * lat(tr) + lat(tr_t)
        rhs = (_l2sq(env * f_vals, spac) / beta + beta**4 * lat(env * g)
               + beta**2 * lat(env * (g_t - beta * g))
               + lat(env * (g_tt - 2.0 * beta * g_t + beta**2 * g)))
        return lhs, rhs

    w_x = dx(w_vals)
    lhs = (grid_sobolev_norm(w_vals[-1], (hx,), 2) ** 2
           + grid_sobolev_norm(wt_vals[-1], (hx,), 1) ** 2
           + _l2sq(wtt_vals[-1], (hx,))
           + _l2sq(w_vals, spac) + _l2sq(wt_vals, spac) + _l2sq(w_x, spac)
           + _l2sq(wtt_vals, spac) + _l2sq(dx(wt_vals), spac) + _l2sq(dx(w_x), spac)
           + lat(trace_w) + lat(trace_wt))
    rhs = _l2sq(f_vals, spac) + lat(g) + lat(g_t) + lat(g_tt)
    w0, w1, w2 = (f.evaluate(space_points) for f in (data.w0, data.w1, data.w2))
    rhs += (grid_sobolev_norm(w0, (hx,), 2) ** 2
            + grid_sobolev_norm(w1, (hx,), 1) ** 2 + _l2sq(w2, (hx,)))
    return lhs, rhs


@pytest.mark.parametrize("f_family", ["trig", "zero"])
def test_probe_sides_match_grid_reference(f_family):
    # criterion 8's scenarios, and the same with zero forcing
    grid = TimeGrid(1.0, 400)
    for seed in range(3):
        data = make_scenario(BASIS, ScenarioSpec(seed=seed, f_family=f_family))
        bundle = solve_mgt(data, PARAMS, grid)
        for which in ("resolvent_4a", "semigroup_10"):
            got = _probe_sides(bundle, data, which, 2.0, 256)
            want = grid_probe_sides(bundle, data, which, 2.0, 256)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_norm_paths_evaluate_nothing_on_the_grid(monkeypatch):
    # probes and norm series read cached Gram forms, never grid samples: the
    # only eigenfunctions evaluated on a grid are those of each Gram build
    calls = []
    for cls, name in ((SpectralField, "evaluate"), (EigenBasis, "eval_matrix_1d")):
        def counting(self, *args, method=getattr(cls, name), name=name):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(cls, name, counting)
    spectral._interval_grams.cache_clear()
    grid = TimeGrid(1.0, 200)
    for seed in range(5):
        data = make_scenario(BASIS, ScenarioSpec(seed=seed))
        bundle = solve_mgt(data, PARAMS, grid)
        for which in ("resolvent_4a", "semigroup_10"):
            estimate_probe(bundle, data, which, space_points=128)
    assert spectral._interval_grams.cache_info().misses == 1
    norm_series(bundle, 256, stride=10)
    assert calls == ["eval_matrix_1d"] * spectral._interval_grams.cache_info().misses
