"""Derived constants, kernels, affine histories, the full reduction solve."""

import tracemalloc
import warnings

import numpy as np
import pytest

from mgtlab import reduction
from mgtlab.generators import ScenarioSpec, exact_dirichlet_case, make_boundary, make_scenario
from mgtlab.modal_oracle import solve_by_modes
from mgtlab.quadrature import ANCHOR, CHUNK_ELEMENTS, PhaseRows, prefix_exponential, row_chunks
from mgtlab.reduction import (
    ForcingData,
    MgtData,
    MgtParams,
    build_kernel,
    forcing_transform,
    group_plan,
    solve_mgt,
    _assembly,
    _gtilde,
    _scan_group,
)
from mgtlab.spectral import DomainSpec, EigenBasis, SpectralField, TimeGrid, build_basis
from reference import (
    assembled_planes,
    data_source,
    kernel_samples,
    phase_table,
    sincos_conv,
    solve_direct,
    solve_picard,
)

PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
BASIS = build_basis(DomainSpec("interval", 256), 8)


def zero_field():
    return SpectralField(BASIS, np.zeros(BASIS.size))


def eigen_data(k=0, amp=1.0):
    coeffs = np.zeros(BASIS.size)
    coeffs[k] = amp
    return MgtData(w0=SpectralField(BASIS, coeffs), w1=zero_field(), w2=zero_field())


def initial_v(data):
    """v0 = w0 and v1 = gamma/2 w0 + w1, total coefficients of the data."""
    w0tot = data.w0.total_coeffs()
    return w0tot, 0.5 * PARAMS.gamma * w0tot + data.w1.total_coeffs()


def assembled(data, params, grid):
    """The kernels, the sampled Dirichlet data and the (3, steps+1, modes)
    right-hand sides that solve_mgt's assembly writes, the basis as one group."""
    sig, assemble = _assembly(data, params, grid)
    rhs = np.empty((3, grid.steps + 1, data.basis.size))
    assemble(rhs, slice(0, data.basis.size))
    return build_kernel(params, data.basis), sig, rhs


def scanned(params, basis, grid, rhs):
    """A copy of the (steps+1, k, modes) or (steps+1, modes) right-hand
    sides rhs, solved by the structured scan, the basis as one group."""
    out = rhs.copy()
    plan = group_plan(params, basis, grid, slice(0, basis.size))
    _scan_group(plan, out.reshape(out.shape[0], -1, out.shape[-1]), lambda rows: None)
    return out


def histories(kernels, rhs, data, grid):
    """H, H_t, H_tt rebuilt from the assembled right-hand sides rhs."""
    ker, kdot = kernel_samples(kernels, grid.times)
    v0, v1 = initial_v(data)
    return rhs[0], rhs[1] + ker * v0, rhs[2] + kdot * v0 + ker * v1


def lifted_boundary(sig, grid):
    """dhat: eigen-coefficients of the lifting of g-tilde = e^{gamma t/2} g."""
    gtilde = _gtilde(sig, PARAMS.gamma, grid.times)[0]
    return gtilde @ BASIS.lift_matrix


def memory_weight(params, t):
    """K(t) = kappa e^{rho t}, the memory weight of the transformed problem."""
    return params.kernel_scale * np.exp(params.decay_exponent * t)


def test_derived_constants_reference_values():
    assert PARAMS.gamma == pytest.approx(1.0)
    assert PARAMS.volterra_beta == pytest.approx(1.25)
    assert PARAMS.decay_exponent == pytest.approx(-0.5)
    t = np.array([0.0, 1.0, 2.0])
    assert np.allclose(memory_weight(PARAMS, t), -np.exp(-0.5 * t))


def test_params_validation():
    with pytest.raises(ValueError, match="alpha must be positive"):
        MgtParams(alpha=0.0, b=1.0, c=1.0)
    with pytest.raises(ValueError, match="b must be positive"):
        MgtParams(alpha=1.0, b=-1.0, c=1.0)


@pytest.mark.parametrize("name, value", [("alpha", np.nan), ("b", np.inf), ("c", np.nan),
                                         ("alpha", -np.inf)])
def test_params_reject_non_finite_constants(name, value):
    # NaN passes every "<= 0" test, and a NaN or infinite constant would
    # fail only deep inside a solve, under another name
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        MgtParams(**{"alpha": 2.0, "b": 1.0, "c": 1.0, name: value})


def test_coefficient_functions_consistent_with_transform():
    # h0, h1, h2 are pinned by the memory residual R(t) = e^{rho t} R(0):
    # R(0) = w2 + gamma w1 + (gamma^2/4 - beta + b mu) w0 per mode; h2(0) = 1
    gamma = PARAMS.gamma
    w0, w1, w2 = 0.7, -0.3, 0.4
    lhs = data_source(PARAMS, np.zeros(1), np.array([w0]), np.array([w1]))[0, 0] + w2
    rhs = (gamma**2 / 4 - PARAMS.volterra_beta) * w0 + gamma * w1 + w2
    assert lhs == pytest.approx(rhs)


def test_forcing_transform_zero():
    # lam = int_0^t e^{-alpha(t-s)} f(s) ds is prefix_exponential(-alpha, f)
    grid = TimeGrid(1.0, 100)
    f = np.zeros((101, 3))
    assert np.all(prefix_exponential(-PARAMS.alpha, f, grid.dt) == 0.0)
    assert np.all(forcing_transform(f, PARAMS, grid)[0] == 0.0)


def test_forcing_transform_constant_forcing():
    grid = TimeGrid(1.0, 200)
    f = np.ones((201, 1))
    lam = prefix_exponential(-PARAMS.alpha, f, grid.dt)
    exact = (1.0 - np.exp(-2.0 * grid.times)) / 2.0
    assert np.max(np.abs(lam[:, 0] - exact)) < 1e-12  # exact for constant f
    assert lam[0, 0] == 0.0
    assert forcing_transform(f, PARAMS, grid)[0][0, 0] == 0.0


def test_forcing_transform_order_two():
    # dt-halving Richardson oracle on f(t) = sin t
    errs = []
    ref_grid = TimeGrid(1.0, 8000)
    ref = forcing_transform(np.sin(ref_grid.times)[:, None], PARAMS, ref_grid)[0]
    for steps in (500, 1000, 2000):
        grid = TimeGrid(1.0, steps)
        out = forcing_transform(np.sin(grid.times)[:, None], PARAMS, grid)[0]
        stride = 8000 // steps
        errs.append(np.max(np.abs(out[:, 0] - ref[::stride, 0])))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.8


def test_kernel_vanishes_at_zero_and_matches_quadrature():
    family = build_kernel(PARAMS, BASIS)
    assert np.max(np.abs(kernel_samples(family, [0.0])[0])) < 1e-14
    # quadrature oracle for the inner convolution of the closed form
    omega = family.omega[0]
    t = 0.73
    s = np.linspace(0.0, t, 20001)
    inner = np.trapezoid(np.sin(omega * (t - s)) * memory_weight(PARAMS, s), s)
    expected = (-PARAMS.volterra_beta / omega * np.sin(omega * t)
                - inner / omega)
    got = kernel_samples(family, [t])[0][0, 0]
    assert got == pytest.approx(expected, abs=1e-8)


def test_kernel_derivative_initial_slope():
    family = build_kernel(PARAMS, BASIS)
    assert np.allclose(kernel_samples(family, [0.0])[1][0], -PARAMS.volterra_beta)


def test_kernel_zero_when_gamma_zero():
    params = MgtParams(alpha=1.0, b=1.0, c=1.0)
    family = build_kernel(params, BASIS)
    t = np.linspace(0.0, 2.0, 50)
    assert np.max(np.abs(kernel_samples(family, t)[0])) == 0.0


def test_structured_solver_matches_generic_collocation():
    # identical equations, so agreement is to rounding
    family = build_kernel(PARAMS, BASIS)
    grid = TimeGrid(1.0, 400)
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=(401, BASIS.size))
    fast = scanned(PARAMS, BASIS, grid, rhs)
    ker = kernel_samples(family, grid.times)[0]
    slow = solve_direct(ker, rhs, grid.dt, rule="trapezoid")
    assert np.max(np.abs(fast - slow)) < 1e-11


def test_structured_solver_batches_columns_exactly():
    # the (steps+1, 3, modes) solve is three one-column solves, bit for bit,
    # and at a small step count it is the generic trapezoid collocation
    family = build_kernel(PARAMS, BASIS)
    grid = TimeGrid(1.0, 64)
    rhs = np.random.default_rng(6).normal(size=(65, 3, BASIS.size))
    batched = scanned(PARAMS, BASIS, grid, rhs)
    ker = kernel_samples(family, grid.times)[0]
    for col in range(3):
        single = scanned(PARAMS, BASIS, grid, rhs[:, col])
        assert np.array_equal(batched[:, col], single)
        slow = solve_direct(ker, rhs[:, col], grid.dt, rule="trapezoid")
        assert np.max(np.abs(batched[:, col] - slow)) < 1e-12


def test_affine_zero_data():
    grid = TimeGrid(1.0, 100)
    data = MgtData(w0=zero_field(), w1=zero_field(), w2=zero_field())
    kernels, _, rhs = assembled(data, PARAMS, grid)
    for hist in histories(kernels, rhs, data, grid):
        assert np.all(hist == 0.0)


def test_reduce_problem_history_shapes():
    grid = TimeGrid(1.0, 50)
    data = eigen_data(0)
    kernels, _, rhs = assembled(data, PARAMS, grid)
    assert rhs.shape == (3, 51, BASIS.size)
    for hist in histories(kernels, rhs, data, grid):
        assert hist.shape == (51, BASIS.size)


def test_affine_matches_term_by_term_quadrature():
    # independent quadrature of the raw representation, one eigenmode of data
    grid = TimeGrid(1.0, 4000)
    data = eigen_data(0)
    rhs = assembled(data, PARAMS, grid)[2]
    mu = BASIS.eigenvalues[0]
    omega = np.sqrt(PARAMS.b * mu)
    gamma = PARAMS.gamma
    for t in (0.25, 0.5, 1.0):
        s = np.linspace(0.0, t, 40001)
        h0 = data_source(PARAMS, s, np.ones(1), np.zeros(1))[:, 0]
        source = h0 + np.exp(PARAMS.decay_exponent * s) * mu * PARAMS.b
        conv = np.trapezoid(np.sin(omega * (t - s)) * source, s)
        expected = (np.cos(omega * t) + 0.5 * gamma * np.sin(omega * t) / omega
                    + conv / omega)
        m = round(t / grid.dt)
        assert rhs[0, m, 0] == pytest.approx(expected, abs=1e-7)
    assert np.max(np.abs(rhs[0, :, 1:])) == 0.0


def test_affine_rewritten_equals_raw_form():
    grid = TimeGrid(1.0, 2000)
    spec = ScenarioSpec(seed=2)
    data = make_scenario(BASIS, spec)
    kernels, sig, rhs = assembled(data, PARAMS, grid)
    # raw wave representation of H: data terms, the source and forcing
    # convolution and the lifting convolution, without integration by parts
    times, dt = grid.times, grid.dt
    omega = kernels.omega
    cos, sin = phase_table(omega, times)
    w0tot = data.w0.total_coeffs()
    source_fixed = data.w2.total_coeffs() + PARAMS.b * BASIS.eigenvalues * data.w0.coeffs
    source = (data_source(PARAMS, times, w0tot, data.w1.total_coeffs())
              + np.exp(PARAMS.decay_exponent * times)[:, None] * source_fixed)
    ftilde = forcing_transform(data.f.sample(times, BASIS.size), PARAMS, grid)[0]
    H_raw = (cos * w0tot + sin / omega * initial_v(data)[1]
             + sincos_conv(cos, sin, source + ftilde, dt)[0] / omega
             + omega * sincos_conv(cos, sin, lifted_boundary(sig, grid), dt)[0])
    H = rhs[0]
    scale = np.max(np.abs(H))
    assert np.max(np.abs(H - H_raw)) < 1e-6 * scale


def test_affine_time_derivative_consistency():
    # dH/dt ~ Ht and dHt/dt ~ Htt under dt halving, order two
    data = make_scenario(BASIS, ScenarioSpec(seed=4))
    sups_t, sups_tt = [], []
    for steps in (500, 1000):
        grid = TimeGrid(1.0, steps)
        kernels, _, rhs = assembled(data, PARAMS, grid)
        H, Ht, Htt = histories(kernels, rhs, data, grid)
        dH = np.gradient(H, grid.dt, axis=0, edge_order=2)
        dHt = np.gradient(Ht, grid.dt, axis=0, edge_order=2)
        sups_t.append(np.max(np.abs(dH - Ht)))
        sups_tt.append(np.max(np.abs(dHt - Htt)))
    assert sups_t[0] / sups_t[1] > 3.0  # order ~2 halving
    assert sups_tt[0] / sups_tt[1] > 3.0


def test_solve_mgt_zero_data():
    grid = TimeGrid(1.0, 100)
    data = MgtData(w0=zero_field(), w1=zero_field(), w2=zero_field())
    bundle = solve_mgt(data, PARAMS, grid)
    for which in ("w", "wt", "wtt"):
        assert np.all(bundle.interior(which) == 0.0)
    assert np.all(bundle.trace("w").series == 0.0)


def test_solve_mgt_rejects_non_finite_output():
    # the transform's exponentials overflow near t ~ 709 here: an error, never
    # NaN, and the error is the only report (no numpy RuntimeWarnings first)
    basis = build_basis(DomainSpec("interval", 256), 4)
    data = make_scenario(basis, ScenarioSpec(seed=0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite w "):
            solve_mgt(data, PARAMS, TimeGrid(2000.0, 2000))
    assert caught == []


def test_solve_mgt_names_the_first_non_finite_component(monkeypatch):
    # the check runs range by range, but reports as a check of whole arrays
    # would: w before wt before wtt, each at its first bad time
    grid = TimeGrid(1.0, 10000)
    rows = row_chunks(grid.steps + 1, BASIS.size)
    assert len(rows) >= 3
    late, early = rows[2].start + 3, rows[1].start + 1
    spoiled_in = {}

    def spoiled(plan, v, done, scan=reduction._scan_group):
        # one mode group: v holds every column of the (steps+1, 3, modes)
        # view; a row is spoiled as its range is handed to the recovery
        def spoil(rows):
            for row, comp, col, bad in ((late, 0, 1, np.inf), (early, 1, 2, np.nan)):
                if rows.start <= row < rows.stop:
                    v[row, comp, col] = bad
                    spoiled_in[row] = rows
            done(rows)

        scan(plan, v, spoil)

    monkeypatch.setattr(reduction, "_scan_group", spoiled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match=f"non-finite w from t = {grid.times[late]:.6g} on"):
            solve_mgt(eigen_data(0), PARAMS, grid)
    # the bad wt comes first, in an earlier range than the bad w
    assert spoiled_in[early].stop <= spoiled_in[late].start


def test_solve_mgt_matches_oracle_eigenmode():
    grid = TimeGrid(1.0, 10000)
    data = eigen_data(0)
    bundle = solve_mgt(data, PARAMS, grid)
    oracle = solve_by_modes(data, PARAMS, grid)
    num = np.max(np.linalg.norm(bundle.total("w") - oracle.w, axis=1))
    den = np.max(np.linalg.norm(oracle.w, axis=1))
    assert num / den < 1e-6


def test_solve_mgt_velocity_consistent_with_differencing():
    # w_t from its own Volterra solve vs centered differences of w
    data = eigen_data(0)
    sups = []
    for steps in (1000, 2000):
        grid = TimeGrid(1.0, steps)
        bundle = solve_mgt(data, PARAMS, grid)
        dw = np.gradient(bundle.total("w"), grid.dt, axis=0, edge_order=2)
        sups.append(np.max(np.abs(dw - bundle.total("wt"))))
    assert sups[0] / sups[1] > 3.0


def test_solve_mgt_builds_phase_rows_once_in_chunks(monkeypatch):
    # the assembly reads the phase rows one row chunk at a time: together
    # the chunks cover the grid once, in order
    built = []

    def counting(self, rows, build=PhaseRows.rows):
        built.append(rows)
        return build(self, rows)

    monkeypatch.setattr(PhaseRows, "rows", counting)
    grid = TimeGrid(1.0, 3 * CHUNK_ELEMENTS // BASIS.size)
    solve_mgt(make_scenario(BASIS, ScenarioSpec(seed=9)), PARAMS, grid)
    assert len(built) == 4
    assert [r.start for r in built] == [0] + [r.stop for r in built[:-1]]
    assert built[-1].stop == grid.steps + 1
    assert all((r.stop - r.start) * BASIS.size <= CHUNK_ELEMENTS for r in built)


@pytest.mark.parametrize("steps", [ANCHOR - 3, 3 * CHUNK_ELEMENTS // BASIS.size])
def test_assembly_takes_trig_at_anchor_rows_only(monkeypatch, steps):
    # building a group's plan runs cos and sin on at most
    # (ceil((S+1)/B) + B) N values, B the anchor spacing, where a table on
    # every row takes (S+1) N; sin also on the scan's 2 N step angles.  An
    # assembly on the built plan takes no trig at all
    counts = {"cos": 0, "sin": 0}

    def counting(name, fn):
        def trig(x, *args, **kwargs):
            counts[name] += np.size(x)
            return fn(x, *args, **kwargs)
        return trig

    grid = TimeGrid(1.0, steps)
    # polynomial data in time, so that sampling it takes no trig
    data = make_scenario(BASIS, ScenarioSpec(seed=3, f_family="poly", g_family="poly"))
    assemble = _assembly(data, PARAMS, grid)[1]
    out = np.empty((3, grid.steps + 1, BASIS.size))
    reduction.group_plan.cache_clear()
    for name in counts:
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    assemble(out, slice(0, BASIS.size))
    bound = (-(-(grid.steps + 1) // ANCHOR) + ANCHOR) * BASIS.size
    assert 0 < counts["cos"] <= bound and 0 < counts["sin"] <= bound + 2 * BASIS.size
    counts.update(cos=0, sin=0)
    assemble(out, slice(0, BASIS.size))
    assert counts == {"cos": 0, "sin": 0}


PLANE_CASES = [(kind, forcing, boundary) for kind in ("interval", "square")
               for forcing in (False, True) for boundary in (False, True)]


@pytest.mark.parametrize("kind, forcing, boundary", PLANE_CASES)
def test_assembly_planes_match_the_term_by_term_form(kind, forcing, boundary):
    # the folded planes against the sine and cosine convolutions and kernel
    # samples of the plain phase table, each within 1e-13 of its sup
    basis = build_basis(DomainSpec(kind, 64 if kind == "interval" else 16), 12)
    spec = make_scenario(basis, ScenarioSpec(seed=5, g_family="poly"))
    data = MgtData(spec.w0, spec.w1, spec.w2, f=spec.f if forcing else None,
                   g=spec.g if boundary else None)
    grid = TimeGrid(2.0, 3000)
    rhs = assembled(data, PARAMS, grid)[2]
    want = assembled_planes(data, PARAMS, grid)
    for got_plane, want_plane in zip(rhs, want):
        assert np.max(np.abs(got_plane - want_plane)) <= 1e-13 * np.max(np.abs(want_plane))


def test_no_forcing_gives_the_bits_of_a_zero_forcing():
    # f = None skips the forcing transform and adds no zeros
    grid = TimeGrid(1.0, 2 * CHUNK_ELEMENTS // BASIS.size + 5)
    spec = make_scenario(BASIS, ScenarioSpec(seed=6, g_family="poly"))
    zero = ForcingData(modes=lambda t: np.zeros((len(t), BASIS.size)))
    without, with_zero = (assembled(MgtData(spec.w0, spec.w1, spec.w2, f=f, g=spec.g),
                                    PARAMS, grid)[2] for f in (None, zero))
    assert np.array_equal(without, with_zero)
    for which in ("w", "wt", "wtt"):
        assert np.array_equal(*(getattr(solve_mgt(MgtData(spec.w0, spec.w1, spec.w2, f=f,
                                                          g=spec.g), PARAMS, grid), which)
                                for f in (None, zero)))


def test_basis_geometry_built_once_per_basis(monkeypatch):
    # the flux (and the lift from it) is built with each basis, read-only; a
    # solve and both probes build it for no basis of their own, and the bases
    # of the plan and Gram caches once per shape
    from mgtlab import spectral
    from mgtlab.symbols import estimate_probe

    calls, bases = [], []

    def spy(*args, build=spectral._boundary_flux):
        calls.append(args)
        return build(*args)

    def counted_init(self, *args, init=EigenBasis.__init__):
        bases.append(self)
        init(self, *args)

    monkeypatch.setattr(spectral, "_boundary_flux", spy)
    monkeypatch.setattr(EigenBasis, "__init__", counted_init)
    basis = build_basis(DomainSpec("interval", 256), 16)
    assert len(calls) == len(bases) == 1
    assert not basis.boundary_flux.flags.writeable
    assert not basis.lift_matrix.flags.writeable
    data = make_scenario(basis, ScenarioSpec(seed=4, g_family="poly", g_amp=0.1))
    for warm in (False, True):
        del calls[:], bases[:]
        bundle = solve_mgt(data, PARAMS, TimeGrid(1.0, 400))
        for which in ("resolvent_4a", "semigroup_10"):
            estimate_probe(bundle, data, which)
        assert len(calls) == (0 if warm else len(bases))


def test_solve_mgt_memory_is_a_few_solution_arrays():
    # the one buffer of right-hand sides and outputs: under 10 arrays
    # of (steps+1) x modes float64, where grid-length histories take about 20
    basis = build_basis(DomainSpec("interval", 256), 32)
    data = make_scenario(basis, ScenarioSpec(seed=5))
    grid = TimeGrid(1.0, 20000)
    tracemalloc.start()
    try:
        solve_mgt(data, PARAMS, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * (grid.steps + 1) * basis.size * 8, peak


def test_solve_mgt_outputs_are_the_planes_of_one_buffer():
    # assembly, scan and recovery share one (3, steps+1, modes) buffer whose
    # C-contiguous planes become w, wt and wtt; the chunk temporaries are
    # small next to it here, so the peak stays under 1.5 buffers where a
    # separate set of outputs would take two
    basis = build_basis(DomainSpec("interval", 256), 64)
    data = make_scenario(basis, ScenarioSpec(seed=5, g_family="poly", f_family="trig"))
    grid = TimeGrid(1.0, 20000)
    tracemalloc.start()
    try:
        bundle = solve_mgt(data, PARAMS, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buf = bundle.w.base
    assert buf is not None and buf.shape == (3, grid.steps + 1, basis.size)
    for i, which in enumerate(("w", "wt", "wtt")):
        plane = getattr(bundle, which)
        assert plane.base is buf and plane.flags.c_contiguous
        assert plane.ctypes.data == buf[i].ctypes.data
    assert peak < 1.5 * buf.nbytes, peak / buf.nbytes


def test_solve_mgt_picard_agrees_with_direct():
    # the Picard series on solve_mgt's right-hand sides against its scan
    grid = TimeGrid(1.0, 1500)
    kernels, _, rhs = assembled(make_scenario(BASIS, ScenarioSpec(seed=9)), PARAMS, grid)
    ker = kernel_samples(kernels, grid.times)[0]
    direct = scanned(PARAMS, BASIS, grid, np.moveaxis(rhs, 0, 1))
    for col in range(3):
        values, terms, converged, _ = solve_picard(ker, rhs[col], grid.dt, rule="trapezoid")
        assert converged and terms >= 1
        assert np.max(np.abs(direct[:, col] - values)) < 1e-10


def owned_arrays(obj, prefix=""):
    """Paths of the arrays reachable through obj's attributes, dict entries
    and tuple items (named-tuple fields by name), basis excepted."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, tuple):
        items = zip(getattr(obj, "_fields", map(str, range(len(obj)))), obj)
    else:
        items = vars(obj).items()
    found = set()
    for name, val in items:
        if isinstance(val, np.ndarray):
            found.add(prefix + name)
        elif isinstance(val, (dict, tuple)) or (hasattr(val, "__dict__") and name != "basis"):
            found |= owned_arrays(val, f"{prefix}{name}.")
    return found


def test_bundle_keeps_only_the_solution():
    # neither the transformed solution nor the histories outlive the solve,
    # and no trace is taken before a reader asks for one
    bundle = solve_mgt(make_scenario(BASIS, ScenarioSpec(seed=3)), PARAMS,
                       TimeGrid(1.0, 100))
    assert owned_arrays(bundle) == {
        "w", "wt", "wtt",
        "boundary.values", "boundary.dvalues", "boundary.ddvalues"}
    # a trace is taken on first read, one row per time, and kept read-only
    for which in ("w", "wt"):
        series = bundle.trace(which).series
        assert series.shape == (101, 2)
        assert not series.flags.writeable


def test_solve_checks_the_forcing_shape():
    data = make_scenario(BASIS, ScenarioSpec(seed=5))
    bad = MgtData(data.w0, data.w1, data.w2,
                  f=ForcingData(lambda t: np.zeros((len(t), BASIS.size - 1))))
    with pytest.raises(ValueError, match="forcing callable must map"):
        solve_mgt(bad, PARAMS, TimeGrid(1.0, 100))


def test_normal_traces_computed_once_per_bundle(monkeypatch):
    # both estimate probes share the two trace series of a bundle
    from mgtlab import spectral
    from mgtlab.symbols import estimate_probe

    calls = []

    def counting(*args, trace=spectral.normal_trace):
        calls.append(args)
        return trace(*args)

    monkeypatch.setattr(spectral, "normal_trace", counting)
    data = make_scenario(BASIS, ScenarioSpec(seed=4, g_family="poly", g_amp=0.1))
    bundle = solve_mgt(data, PARAMS, TimeGrid(1.0, 400))
    for which in ("resolvent_4a", "semigroup_10"):
        estimate_probe(bundle, data, which)
    assert len(calls) == 2


def test_transform_round_trip():
    # v = e^{gamma t/2} w recovery identity at machine precision
    grid = TimeGrid(1.0, 500)
    data = make_scenario(BASIS, ScenarioSpec(seed=6))
    bundle = solve_mgt(data, PARAMS, grid)
    _, sig, rhs = assembled(data, PARAMS, grid)
    v = scanned(PARAMS, BASIS, grid, np.moveaxis(rhs, 0, 1))[:, 0]
    damp = np.exp(-0.5 * PARAMS.gamma * grid.times)[:, None]
    assert np.allclose(bundle.interior("w"), damp * (v - lifted_boundary(sig, grid)), atol=1e-14)


def test_gamma_zero_degeneracy():
    params = MgtParams(alpha=1.0, b=1.0, c=1.0)
    grid = TimeGrid(1.0, 400)
    data = make_scenario(BASIS, ScenarioSpec(seed=8))
    rhs = assembled(data, params, grid)[2]
    v = scanned(params, BASIS, grid, np.moveaxis(rhs, 0, 1))[:, 0]
    assert np.array_equal(v, rhs[0])


def test_compatibility_flags():
    data = make_scenario(BASIS, ScenarioSpec(seed=1, compatible=True))
    assert data.compatible_position and data.compatible_velocity
    bad = make_scenario(BASIS, ScenarioSpec(seed=1, compatible=False))
    assert not bad.compatible_position


def test_data_must_share_one_domain():
    # a 2x2 square and a 4-mode interval have the same size, and a 2-node
    # datum on the square met the fields only in a broadcast
    square = build_basis(DomainSpec("square", 64), 2)
    zero = SpectralField(square, np.zeros(square.size))
    lifted = SpectralField(build_basis(DomainSpec("interval", 64), 4), np.zeros(4), [1.0, 2.0])
    with pytest.raises(ValueError, match="mode count 2 on the square, w2 4 on the interval"):
        MgtData(w0=zero, w1=zero, w2=lifted)
    with pytest.raises(ValueError, match="2 boundary nodes, the square 4"):
        MgtData(w0=zero, w1=zero, w2=zero, g=make_boundary(ScenarioSpec(seed=0), 2))


def test_compatibility_divergence_witness():
    # spectral-H2 sup doubles (at least) per mode doubling when traces mismatch
    params = PARAMS
    sups = {}
    for n in (16, 32):
        basis = build_basis(DomainSpec("interval", 256), n)
        data = make_scenario(basis, ScenarioSpec(seed=1, compatible=False))
        grid = TimeGrid(0.5, 250)
        interior = solve_mgt(data, params, grid).interior("w")
        h2 = np.sqrt(((1 + basis.eigenvalues) ** 2 * interior**2).sum(axis=1)).max()
        sups[n] = h2
    assert sups[32] / sups[16] >= 2.0


def test_compatible_spectral_h2_stability():
    # interior spectral surrogate is refinement-stable for compatible data
    sups = {}
    for n in (16, 32):
        basis = build_basis(DomainSpec("interval", 256), n)
        data = make_scenario(basis, ScenarioSpec(seed=1, compatible=True))
        grid = TimeGrid(0.5, 250)
        bundle = solve_mgt(data, PARAMS, grid)
        interior = bundle.interior("w")
        sups[n] = np.sqrt(((1 + basis.eigenvalues) ** 2 * interior**2).sum(axis=1)).max()
    assert abs(sups[32] - sups[16]) / sups[16] < 0.01


def test_wt_trace_norm_stable_under_mode_refinement():
    # lateral L2 norm of d_nu w_t is finite and mode-refinement stable
    def wt_trace_norm(n):
        basis = build_basis(DomainSpec("interval", 256), n)
        d = make_scenario(basis, ScenarioSpec(seed=12))
        b = solve_mgt(d, PARAMS, TimeGrid(1.0, 1000))
        trace_wt = b.trace("wt").series
        return np.sqrt(np.trapezoid((trace_wt**2).sum(axis=1), dx=b.grid.dt))

    n32, n64 = wt_trace_norm(32), wt_trace_norm(64)
    assert abs(n64 - n32) / n32 < 0.05


@pytest.mark.parametrize("alpha,b,c", [
    (1.5, 4.0, 0.7),    # gamma > 0, large diffusivity
    (3.0, 0.25, 0.5),   # small diffusivity
    (0.8, 2.0, 1.5),    # gamma < 0 (finite horizon still well-posed)
    (5.0, 0.5, 1.0),    # stiff decay exponent
])
def test_cross_route_general_parameters(alpha, b, c):
    # the b = 1 simplification is restored throughout; sweep the constants
    params = MgtParams(alpha=alpha, b=b, c=c)
    basis = build_basis(DomainSpec("interval", 256), 12)
    grid = TimeGrid(1.0, 4000)
    data = make_scenario(basis, ScenarioSpec(seed=3))
    bundle = solve_mgt(data, params, grid)
    oracle = solve_by_modes(data, params, grid)
    for which, ref in (("w", oracle.w), ("wt", oracle.wt), ("wtt", oracle.wtt)):
        num = np.max(np.linalg.norm(bundle.total(which) - ref, axis=1))
        den = np.max(np.linalg.norm(ref, axis=1))
        assert num / den < 1e-5


def test_volterra_order_two_on_the_exact_dirichlet_case():
    # the worst relative sup error of (w, w_t, w_tt) against the closed form
    # falls fourfold per step halving, on the interval and on the square
    from mgtlab.harness import relative_sup_error

    for basis in (BASIS, build_basis(DomainSpec("square", 64), 4)):
        data, exact = exact_dirichlet_case(basis, PARAMS, 4j)
        errs = []
        for steps in (500, 1000, 2000):
            grid = TimeGrid(1.0, steps)
            bundle = solve_mgt(data, PARAMS, grid)
            errs.append(max(relative_sup_error(bundle.total(which), ref)
                            for which, ref in zip(("w", "wt", "wtt"), exact(grid.times))))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(np.abs(orders - 2.0) < 0.05), (basis.domain.kind, orders)
