"""Per-mode ODE oracle: integration accuracy, roots, stability threshold."""

import warnings

import numpy as np
import pytest

from mgtlab.generators import ScenarioSpec, exact_dirichlet_case, make_scenario
from mgtlab.harness import relative_sup_error
from mgtlab.modal_oracle import solve_by_modes
from mgtlab.reduction import ForcingData, MgtData, MgtParams, solve_mgt
from mgtlab.spectral import (BoundaryData, DomainSpec, SpectralField, TimeGrid, Trajectory,
                             build_basis)
from reference import ModeOde, characteristic_roots, exact_exponential_solution, integrate_mode

PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
BASIS = build_basis(DomainSpec("interval", 256), 8)


def test_integrate_zero_data_zero_sources():
    ode = ModeOde(mu=float(BASIS.eigenvalues[0]), params=PARAMS)
    states = integrate_mode(ode, (0.0, 0.0, 0.0), TimeGrid(1.0, 100))
    assert np.all(states == 0.0)


def test_integrate_matches_exponential_sum():
    # closed form via the polynomial roots, distinct-root Vandermonde
    mu = float(BASIS.eigenvalues[0])
    grid = TimeGrid(1.0, 1000)
    ode = ModeOde(mu=mu, params=PARAMS)
    states = integrate_mode(ode, (1.0, 0.0, 0.0), grid)
    exact = exact_exponential_solution(PARAMS, mu, (1.0, 0.0, 0.0), grid.times)
    assert np.max(np.abs(states[:, 0] - exact)) < 1e-8


def test_integrate_manufactured_solution():
    mu = float(BASIS.eigenvalues[0])
    a, b, c2 = PARAMS.alpha, PARAMS.b, PARAMS.c**2

    def source(t):
        w = np.sin(t)
        return (-np.cos(t)) + a * (-np.sin(t)) + b * mu * np.cos(t) + c2 * mu * w

    ode = ModeOde(mu=mu, params=PARAMS, source=source)
    grid = TimeGrid(1.0, 1000)
    states = integrate_mode(ode, (0.0, 1.0, 0.0), grid)
    assert np.max(np.abs(states[:, 0] - np.sin(grid.times))) < 1e-8


def exact_case_errors(basis, steps):
    """The RK4 oracle's relative sup errors in (w, w_t, w_tt) on the exact
    Dirichlet case at rate 4i, one horizon-1 solve per entry of steps."""
    data, exact = exact_dirichlet_case(basis, PARAMS, 4j)
    errs = []
    for n in steps:
        grid = TimeGrid(1.0, n)
        oracle = solve_by_modes(data, PARAMS, grid)
        errs.append([relative_sup_error(oracle.total(which), ref)
                     for which, ref in zip(("w", "wt", "wtt"), exact(grid.times))])
    return np.array(errs)


def test_integrate_observed_order_four():
    errs = exact_case_errors(BASIS, (50, 100, 200)).max(axis=1)
    orders = np.log2(errs[:-1] / errs[1:])
    assert min(orders) > 3.8


def test_oracle_reaches_rounding_on_the_exact_dirichlet_case():
    # every mode of the Dirichlet-driven family is solved to rounding at 16,000 steps
    errs = exact_case_errors(build_basis(DomainSpec("interval", 256), 32), (16000,))
    assert np.all(errs < 1e-13), errs


def test_characteristic_roots_residual():
    rng = np.random.default_rng(2)
    for _ in range(50):
        params = MgtParams(alpha=rng.uniform(0.2, 4.0), b=rng.uniform(0.2, 4.0),
                           c=rng.uniform(0.2, 4.0))
        mu = rng.uniform(0.5, 1e4)
        roots = characteristic_roots(params, mu)
        # the power form; Horner's (np.polyval) rounds to 1.4e-9 on one draw
        alpha, b, c2 = params.alpha, params.b, params.c**2
        assert np.max(np.abs(roots**3 + alpha * roots**2 + b * mu * roots + c2 * mu)) < 1e-9


def test_characteristic_roots_stable_case():
    roots = characteristic_roots(PARAMS, np.pi**2)
    assert np.max(roots.real) < 0.0


def test_characteristic_roots_unstable_case():
    params = MgtParams(alpha=0.5, b=1.0, c=1.0)  # gamma < 0
    roots = characteristic_roots(params, 100.0)
    assert np.max(roots.real) > 0.0


def test_marginal_case_factorizes():
    # gamma = 0: (r + alpha)(r^2 + b mu) with purely imaginary pair
    params = MgtParams(alpha=1.0, b=1.0, c=1.0)
    roots = characteristic_roots(params, 50.0)
    assert abs(np.max(roots.real)) < 1e-9


def test_rejects_nonpositive_mu():
    with pytest.raises(ValueError):
        characteristic_roots(PARAMS, 0.0)


def test_stability_scan_sign_pattern():
    mus = [1.0, 10.0, 100.0, 1000.0]

    def scan(params):
        return [(mu, np.max(characteristic_roots(params, mu).real)) for mu in mus]

    assert all(top < 0 for _, top in scan(PARAMS))
    assert PARAMS.alpha * PARAMS.b > PARAMS.c**2
    assert all(abs(top) < 1e-9 for _, top in scan(MgtParams(alpha=1.0, b=1.0, c=1.0)))
    unstable = MgtParams(alpha=0.5, b=1.0, c=1.0)
    assert all(top > 0 for mu, top in scan(unstable) if mu >= 100.0)
    assert not unstable.alpha * unstable.b > unstable.c**2


def test_hurwitz_equivalence_across_grid():
    # all roots in the left half plane iff alpha b > c^2 iff gamma > 0
    rng = np.random.default_rng(4)
    for _ in range(60):
        params = MgtParams(alpha=rng.uniform(0.2, 3.0), b=rng.uniform(0.2, 3.0),
                           c=rng.uniform(0.2, 3.0))
        if abs(params.gamma) < 1e-3:
            continue
        mu = rng.uniform(0.5, 1e3)
        roots = characteristic_roots(params, mu)
        assert (np.max(roots.real) < 0) == (params.gamma > 0)


@pytest.mark.parametrize("kind, modes, g_family, f_family", [
    ("interval", 8, "trig", "trig"),
    ("interval", 8, "poly", "poly"),
    ("square", 3, "trig", "poly"),
])
def test_solve_by_modes_matches_scalar_integrate_mode(kind, modes, g_family, f_family):
    # the batched oracle against the scalar RK4 reference, mode by mode, with
    # the source built from one-time slices of the same data callables
    basis = build_basis(DomainSpec(kind, 64), modes)
    data = make_scenario(basis, ScenarioSpec(seed=3, g_family=g_family,
                                             f_family=f_family))
    grid = TimeGrid(1.0, 200)
    oracle = solve_by_modes(data, PARAMS, grid)
    flux = basis.boundary_flux
    c2, b = PARAMS.c**2, PARAMS.b
    init = np.stack([data.w0.total_coeffs(), data.w1.total_coeffs(),
                     data.w2.total_coeffs()])
    for k in range(basis.size):
        def source(t, k=k):
            at = np.array([t])
            return (data.f.modes(at)[0, k] - c2 * (data.g.g(at)[0] @ flux[:, k])
                    - b * (data.g.gt(at)[0] @ flux[:, k]))

        ode = ModeOde(mu=float(basis.eigenvalues[k]), params=PARAMS,
                      source=source)
        ref = integrate_mode(ode, init[:, k], grid)
        for j, got in enumerate((oracle.w, oracle.wt, oracle.wtt)):
            scale = np.max(np.abs(got))
            assert np.max(np.abs(got[:, k] - ref[:, j])) <= 1e-13 * scale


def test_oracle_agreement_with_reduction_across_cases():
    # the central cross-validation at module scale
    grid = TimeGrid(1.0, 10000)
    for seed in (0, 1):
        data = make_scenario(BASIS, ScenarioSpec(seed=seed))
        bundle = solve_mgt(data, PARAMS, grid)
        oracle = solve_by_modes(data, PARAMS, grid)
        err = (np.max(np.linalg.norm(bundle.total("w") - oracle.w, axis=1))
               / np.max(np.linalg.norm(oracle.w, axis=1)))
        assert err < 1e-6


def test_solve_by_modes_raises_past_the_stability_limit():
    # 64 modes at dt = 0.1: the top modes leave RK4's stability region and the
    # states overflow; one error names the oracle, never NaN and no numpy
    # RuntimeWarning before it
    basis = build_basis(DomainSpec("interval", 256), 64)
    data = make_scenario(basis, ScenarioSpec(seed=0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match=r"^RK4 oracle: non-finite state from t = \d"):
            solve_by_modes(data, PARAMS, TimeGrid(10.0, 100))
    assert caught == []


def test_solve_by_modes_names_the_first_non_finite_time():
    # a forcing that turns NaN at t = 0.5 spoils the state from that row on
    zero = SpectralField(BASIS, np.zeros(BASIS.size))
    forcing = ForcingData(modes=lambda t: np.where(t[:, None] < 0.5, 1.0, np.nan)
                          * np.ones(BASIS.size))
    data = MgtData(w0=zero, w1=zero, w2=zero, f=forcing)
    with pytest.raises(FloatingPointError, match="from t = 0.5 on"):
        solve_by_modes(data, PARAMS, TimeGrid(1.0, 100))


@pytest.mark.parametrize("solve", [solve_by_modes, solve_mgt])
def test_both_routes_reject_a_forcing_of_the_wrong_width(solve):
    # a callable of one column would broadcast over every mode; both routes
    # read the forcing through ForcingData.sample, which checks its shape
    zero = SpectralField(BASIS, np.zeros(BASIS.size))
    forcing = ForcingData(modes=lambda t: np.sin(t)[:, None])
    data = MgtData(w0=zero, w1=zero, w2=zero, f=forcing)
    with pytest.raises(ValueError, match=r"\(T, modes\)"):
        solve(data, PARAMS, TimeGrid(1.0, 100))


@pytest.mark.parametrize("basis", [BASIS, build_basis(DomainSpec("square", 32), 3)],
                         ids=["interval", "square"])
def test_both_routes_return_one_trajectory_type(basis):
    grid = TimeGrid(1.0, 200)
    data = make_scenario(basis, ScenarioSpec(seed=5, g_family="poly"))
    bundle, oracle = (solve(data, PARAMS, grid) for solve in (solve_mgt, solve_by_modes))
    assert type(bundle) is Trajectory and type(oracle) is Trajectory
    assert bundle.forcing is data.f and oracle.forcing is data.f
    assert np.array_equal(bundle.interior("f"), oracle.interior("f"))
    assert oracle.boundary_values("f") is None
    assert bundle.metadata.keys() == oracle.metadata.keys()
    for key in ("compatible_position", "compatible_velocity", "mode_groups", "blas_threads"):
        assert bundle.metadata[key] == oracle.metadata[key]


@pytest.mark.parametrize("basis", [BASIS, build_basis(DomainSpec("square", 32), 3)],
                         ids=["interval", "square"])
def test_both_routes_store_whole_coefficients(basis):
    # the stored arrays are the whole function's; the zero-trace part is
    # derived from the boundary signal, on any rows, and a trace taken on
    # the whole coefficients is that of the zero-trace part plus the slope
    grid = TimeGrid(1.0, 200)
    data = make_scenario(basis, ScenarioSpec(seed=5, g_family="poly"))
    rows = slice(3, None, 10)
    for traj in (solve(data, PARAMS, grid) for solve in (solve_mgt, solve_by_modes)):
        for c in ("w", "wt", "wtt"):
            total, edge = traj.total(c), traj.boundary_values(c)
            assert total is getattr(traj, c)
            lifting = 0.0 if edge is None else edge @ basis.lift_matrix
            assert np.max(np.abs(traj.interior(c) + lifting - total)) <= (
                1e-15 * np.max(np.abs(total)))
            assert np.array_equal(traj.interior(c, rows), traj.interior(c)[rows])
            if edge is not None and basis.domain.kind == "interval":
                slope = edge[:, 0] - edge[:, 1]
                want = (traj.interior(c) @ basis.boundary_flux.T
                        + np.column_stack([slope, -slope]))
                assert np.max(np.abs(traj.trace(c).series - want)) <= (
                    1e-13 * np.max(np.abs(want)))


def test_rk4_past_its_stability_limit_raises():
    # the stiff root -alpha of every mode: at dt = 5e-3, alpha dt = 5 and
    # RK4 amplifies it 13.8 times a step while the states stay finite
    basis = build_basis(DomainSpec("interval", 256), 16)
    data = make_scenario(basis, ScenarioSpec(seed=2, active_modes=16))
    params = MgtParams(alpha=1001.0, b=1e-3, c=1.0)
    with pytest.raises(FloatingPointError, match=r"mode 0 .* RK4 stability limit .* 13\.77"):
        solve_by_modes(data, params, TimeGrid(1.0, 200))
    assert np.isfinite(solve_by_modes(data, params, TimeGrid(1.0, 2000)).w).all()


def test_oracle_takes_no_normal_trace(monkeypatch):
    # the oracle's coefficients are whole functions: it records no trace flags
    from mgtlab import spectral

    def no_trace(*args):
        raise AssertionError("the oracle took a normal trace")

    monkeypatch.setattr(spectral, "normal_trace", no_trace)
    data = make_scenario(BASIS, ScenarioSpec(seed=5, g_family="poly"))
    oracle = solve_by_modes(data, PARAMS, TimeGrid(1.0, 200))
    assert oracle.metadata["trace_w_converged"] is None
    assert oracle.metadata["trace_wt_converged"] is None


def data_with_boundary(bad: str, fn) -> MgtData:
    """Zero data on BASIS whose Dirichlet callable bad is fn, the others zeros."""
    zero = SpectralField(BASIS, np.zeros(BASIS.size))
    good = lambda t: np.zeros((len(t), 2))
    g = BoundaryData(**{"g": good, "gt": good, "gtt": good, bad: fn})
    return MgtData(w0=zero, w1=zero, w2=zero, g=g)


@pytest.mark.parametrize("bad", ["g", "gt"])
def test_data_rejects_a_boundary_callable_of_the_wrong_shape(bad):
    # values of shape (T,) would broadcast into the compatibility flags
    with pytest.raises(ValueError, match=r"boundary callables must map .*\(T, nodes\)"):
        data_with_boundary(bad, lambda t: np.zeros(len(t)))


@pytest.mark.parametrize("solve", [solve_by_modes, solve_mgt])
@pytest.mark.parametrize("bad", ["g", "gt"])
def test_both_routes_reject_a_boundary_callable_of_one_row(solve, bad):
    # right at t = 0 alone, so the data build, and one row would broadcast
    # over every stage time; both routes read g and g_t through the sampler
    data = data_with_boundary(bad, lambda t: np.zeros((1, 2)))
    with pytest.raises(ValueError, match="boundary callables must map"):
        solve(data, PARAMS, TimeGrid(1.0, 100))
