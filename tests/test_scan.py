"""Blocked linear scans of both routes against their plain step-by-step forms.

The structured Volterra solve and the RK4 oracle each run as a two-level
scan (quadrature.scan_blocks): a zero-state pass inside every block of a run
of blocks at once, then the block-start states carried with powers of the
one-step map.  The references are the generic trapezoid collocation
(solve_direct) and the scalar RK4 integrator (integrate_mode) of
tests/reference.py, both of which step once per row.
The prefix sums and the right-hand sides streamed in row chunks are checked
bit for bit against one call on all the rows.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mgtlab
from mgtlab import modal_oracle, quadrature
from mgtlab.generators import ScenarioSpec, make_scenario
from mgtlab.modal_oracle import oracle_plan, solve_by_modes
from mgtlab.quadrature import (CHUNK_ELEMENTS, EXP_BLOCK, power_increments,
                               prefix_exponential, prefix_trapezoid, row_chunks,
                               scan_blocks)
from mgtlab.reduction import (MgtData, MgtParams, _assembly, _scan_group, forcing_transform,
                              group_plan, solve_mgt)
from mgtlab.spectral import DomainSpec, TimeGrid, build_basis
from reference import ModeOde, copied_trapezoid, integrate_mode, kernel_samples, solve_direct

PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
BASIS = build_basis(DomainSpec("interval", 64), 4)
# block length 10 at 100 rows: one below, at and above a square, and a prime
SCAN_STEPS = (1, 2, 7, 99, 100, 101, 97)
# plans of 1-, 16- and 33-mode groups of a 50-mode basis
WIDE = build_basis(DomainSpec("interval", 64), 50)
SCAN_GROUPS = (slice(0, 1), slice(1, 17), slice(17, 50))


def structured_error(params, basis, grid, seed, cols=None):
    """Worst sup-relative gap of the scan of the modes cols (all by
    default), through their plan, to solve_direct over 3 columns."""
    plan = group_plan(params, basis, grid, cols or slice(0, basis.size))
    family = plan.kernels
    rhs = np.random.default_rng(seed).normal(size=(grid.steps + 1, 3, family.size))
    fast = rhs.copy()
    _scan_group(plan, fast, lambda rows: None)
    ker = kernel_samples(family, grid.times)[0]
    worst = 0.0
    for col in range(3):
        slow = solve_direct(ker, rhs[:, col], grid.dt, rule="trapezoid")
        worst = max(worst, np.max(np.abs(fast[:, col] - slow)) / np.max(np.abs(slow)))
    return worst


def mode_odes(data, params):
    """(ModeOde, initial state) of each mode of data, for integrate_mode."""
    basis = data.basis
    flux = basis.boundary_flux
    c2, b = params.c**2, params.b
    init = np.stack([data.w0.total_coeffs(), data.w1.total_coeffs(),
                     data.w2.total_coeffs()])
    for k in range(basis.size):
        def source(t, k=k):
            at = np.array([t])
            return (data.f.modes(at)[0, k] - c2 * (data.g.g(at)[0] @ flux[:, k])
                    - b * (data.g.gt(at)[0] @ flux[:, k]))

        yield ModeOde(mu=float(basis.eigenvalues[k]), params=params, source=source), init[:, k]


def oracle_error(params, basis, grid, seed):
    """Worst gap of solve_by_modes to integrate_mode, relative to each
    component's sup over all modes."""
    data = make_scenario(basis, ScenarioSpec(seed=seed, g_family="poly"))
    oracle = solve_by_modes(data, params, grid)
    ref = np.stack([integrate_mode(ode, init, grid) for ode, init in mode_odes(data, params)],
                   axis=-1)
    return max(np.max(np.abs(got - ref[:, j])) / np.max(np.abs(ref[:, j]))
               for j, got in enumerate((oracle.w, oracle.wt, oracle.wtt)))


def exact_rk4(ode, initial, grid):
    """integrate_mode's RK4 recursion on its own float inputs (dt, the
    equation's constants, the source samples), in exact arithmetic."""
    p = ode.params
    dt = Fraction(grid.dt)
    alpha, bmu, c2mu = (Fraction(x) for x in (p.alpha, p.b * ode.mu, p.c**2 * ode.mu))

    def rhs(t, y):
        return [y[1], y[2], (Fraction(float(ode.source(t))) - alpha * y[2] - bmu * y[1]
                             - c2mu * y[0])]

    y = [Fraction(float(v)) for v in initial]
    out = [y]
    for m in range(grid.steps):
        t = m * grid.dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * grid.dt, [a + dt / 2 * k for a, k in zip(y, k1)])
        k3 = rhs(t + 0.5 * grid.dt, [a + dt / 2 * k for a, k in zip(y, k2)])
        k4 = rhs(t + grid.dt, [a + dt * k for a, k in zip(y, k3)])
        y = [a + dt / 6 * (q1 + 2 * q2 + 2 * q3 + q4) for a, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)]
        out.append(y)
    return np.array(out, dtype=float)


# a long horizon over which w grows to 880 while w_tt stays near 5: the
# scan's carry multiplies whole states by its powers of the RK4 map, so
# their rounding, times w, shows in w_tt relative to its own sup
GROWING = (MgtParams(alpha=1.621069351432383, b=0.17026499111626403, c=0.5254233409186826),
           1, TimeGrid(35.0, 64))


def test_oracle_scan_follows_exact_rk4_on_a_growing_mode():
    # with the powers rounded from extended precision the scan is 9.8e-14
    # of the sup from the exact recursion in w_tt; from float64 doubling
    # it was 2.0e-13, and the float64 step loop is 3.6e-14 away
    params, modes, grid = GROWING
    basis = build_basis(DomainSpec("interval", 64), modes)
    data = make_scenario(basis, ScenarioSpec(seed=0, g_family="poly"))
    oracle = solve_by_modes(data, params, grid)
    (ode, init), = mode_odes(data, params)
    want = exact_rk4(ode, init, grid)
    assert np.max(np.abs(want[:, 0])) > 100 * np.max(np.abs(want[:, 2]))
    for j, got in enumerate((oracle.w, oracle.wt, oracle.wtt)):
        assert np.max(np.abs(got[:, 0] - want[:, j])) <= 1e-13 * np.max(np.abs(want[:, j]))


@pytest.mark.parametrize("steps", SCAN_STEPS)
def test_scan_blocks_cover_rows_in_order(steps):
    rows = np.arange(steps * 2.0).reshape(steps, 2)
    views = scan_blocks(rows)
    length = views[0].shape[1]
    assert length == math.ceil(math.sqrt(steps))
    assert all(v.shape[1] <= length for v in views)
    assert np.array_equal(np.concatenate([v.reshape(-1, 2) for v in views]), rows)
    for v in views:
        v += 1.0  # views write through
    assert rows[0, 0] == 1.0 and rows[-1, -1] == 2.0 * steps


@pytest.mark.parametrize("steps", SCAN_STEPS)
@pytest.mark.parametrize("cols", [slice(1, 3), slice(0, 5, 2)])
def test_scan_blocks_write_through_column_views(steps, cols):
    # a mode group scans its columns of the shared array in place
    parent = np.arange(steps * 5 * 3.0).reshape(steps, 3, 5)
    want = parent.copy()
    want[..., cols] += 1.0
    for v in scan_blocks(parent[..., cols]):
        v += 1.0
    assert np.array_equal(parent, want)


def test_power_increments_match_matrix_power():
    steps = np.random.default_rng(2).normal(scale=0.3, size=(5, 3, 3))
    incs = power_increments(steps, 13)
    for i in range(14):
        want = np.linalg.matrix_power(np.eye(3) + steps, i) - np.eye(3)
        assert np.max(np.abs(incs[i] - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("steps", SCAN_STEPS)
def test_structured_scan_matches_collocation(monkeypatch, steps):
    # through the plans of 1-, 16- and 33-mode groups, with the default
    # chunk (the read-outs take each segment whole) and with 1000 values
    # per chunk, where they run over runs of blocks (quadrature.row_chunks):
    # at 100 steps 2 blocks at a time for 16 and for 33 modes
    grid = TimeGrid(1.0, steps)
    assert structured_error(PARAMS, BASIS, grid, steps) < 1e-12
    for chunk in (CHUNK_ELEMENTS, 1000):
        monkeypatch.setattr(quadrature, "CHUNK_ELEMENTS", chunk)
        for cols in SCAN_GROUPS:
            assert structured_error(PARAMS, WIDE, grid, steps, cols) < 1e-12, (chunk, cols)


@pytest.mark.parametrize("steps", SCAN_STEPS)
def test_structured_scan_bits_do_not_depend_on_the_runs(monkeypatch, steps):
    # both routes' scans: zero-state passes and read-outs over whole
    # segments and over the smallest runs that row_chunks makes, two or
    # three blocks
    grid = TimeGrid(1.0, steps)
    rhs = np.random.default_rng(steps).normal(size=(steps + 1, 3, 16))
    # the Volterra scan hands its finished ranges to a no-op
    for scan, plan, done in ((_scan_group, group_plan(PARAMS, WIDE, grid, slice(1, 17)),
                              (lambda rows: None,)),
                             (modal_oracle._scan_group,
                              oracle_plan(PARAMS, WIDE, grid, slice(1, 17)).powers, ())):
        outs = []
        for chunk in (CHUNK_ELEMENTS, 1):
            monkeypatch.setattr(quadrature, "CHUNK_ELEMENTS", chunk)
            out = rhs.copy()
            scan(plan, out, *done)
            assert np.isfinite(out).all()
            outs.append(out)
        assert np.array_equal(outs[1], outs[0]), scan.__module__


@pytest.mark.parametrize("steps", SCAN_STEPS)
def test_oracle_scan_matches_scalar_rk4(steps):
    # one or two steps on [0, 1] are past RK4's stability limit, where
    # solve_by_modes raises (test_modal_oracle): those run on [0, steps/10]
    grid = TimeGrid(1.0 if steps > 2 else steps / 10, steps)
    assert oracle_error(PARAMS, BASIS, grid, steps) < 1e-13


@st.composite
def envelope(draw):
    """(params, modes, grid) over gamma < 0, |gamma| <= 1e-3 and gamma > 0.

    T and S are drawn so that dt times the fastest rate is at most 1, which
    keeps RK4 inside its stability region on every mode.
    """
    alpha = draw(st.floats(0.2, 5.0))
    b = draw(st.floats(0.05, 4.0))
    gamma = draw(st.one_of(st.floats(-3.0, -1e-3), st.floats(-1e-3, 1e-3),
                           st.floats(1e-3, 0.9 * alpha)))
    params = MgtParams(alpha=alpha, b=b, c=math.sqrt(b * (alpha - gamma)))
    modes = draw(st.integers(1, 6))
    rate = max(math.sqrt(b) * modes * math.pi, alpha + abs(gamma))
    horizon = draw(st.floats(0.05, min(50.0, 64 / rate)))
    steps = draw(st.integers(max(1, math.ceil(rate * horizon)), 64))
    return params, modes, TimeGrid(horizon, steps)


@settings(max_examples=60, deadline=None)
@given(case=envelope(), seed=st.integers(0, 2**16))
@example(case=GROWING, seed=0)
def test_scans_match_step_loops_across_envelope(case, seed):
    params, modes, grid = case
    basis = build_basis(DomainSpec("interval", 64), modes)
    assert structured_error(params, basis, grid, seed) < 1e-12
    # at rate*dt near 1 both forms sit up to 7e-14 of the sup away from RK4
    # in extended precision (the loop 3.7e-14, the scan 6.7e-14 at
    # alpha=4, b=1.4375, gamma=0, T=13, S=59), so their gap can pass 1e-13
    assert oracle_error(params, basis, grid, seed) < 2e-13


def traced_lines(fn) -> int:
    """Line events executed in mgtlab's own source while fn runs."""
    root = str(Path(mgtlab.__file__).parent)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("route", ["solve_mgt", "solve_by_modes"])
def test_routes_make_sublinear_python_steps(route):
    # a scan makes about 2 sqrt(S) Python-level steps: 16x the steps gives
    # about 4x the lines; any loop over the time steps gives about 16x
    solve = {"solve_mgt": solve_mgt, "solve_by_modes": solve_by_modes}[route]
    data = make_scenario(BASIS, ScenarioSpec(seed=1))
    lines = [traced_lines(lambda: solve(data, PARAMS, TimeGrid(1.0, steps)))
             for steps in (1024, 16384)]
    assert lines[1] < 5 * lines[0], lines


@pytest.mark.parametrize("rate", [-2.0, -0.5, 0.7, -100.0, -500.0, -5000.0, -1e5])
def test_prefix_exponential_matches_step_recursion(rate):
    # the step recursion on the same float weights, taken in exact
    # arithmetic: in float64 it is itself up to 2.5e-15 off at rate 0.7;
    # |rate*dt| 1, 5, 50 and 1000 take blocks of 23, 5 and 1 rows, and at
    # 1000 e underflows to 0
    values = np.random.default_rng(4).normal(size=(300, 5))
    dt = 0.01
    e = np.exp(rate * dt)
    i2 = (e - 1.0) / rate**2 - dt / rate
    e, w_left, w_right = (Fraction(float(w)) for w in (e, (e - 1.0) / rate - i2 / dt, i2 / dt))
    want = np.zeros_like(values)
    for col in range(values.shape[1]):
        v, x = [Fraction(float(s)) for s in values[:, col]], Fraction(0)
        for m in range(len(v) - 1):
            x = e * x + w_left * v[m] + w_right * v[m + 1]
            want[m + 1, col] = float(x)
    got = prefix_exponential(rate, values, dt)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.all(got[0] == 0.0)
    assert np.array_equal(prefix_exponential(rate, values[:, 0], dt), got[:, 0])


def chunked(prefix, values, cuts):
    """prefix run over the row chunks between the cut points, one carry."""
    carry = {}
    edges = [0, *cuts, len(values)]
    return np.concatenate([prefix(values[a:b], carry) for a, b in zip(edges, edges[1:])])


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 3 * EXP_BLOCK + 2), cols=st.integers(1, 4),
       seed=st.integers(0, 2**16),
       rate=st.sampled_from([-2.0, -0.5, 0.7, 1e-15, -500.0, -5000.0]), data=st.data())
def test_carried_prefix_sums_equal_one_call(rows, cols, seed, rate, data):
    # a prefix continued over any row chunks gives the bits of one call;
    # prefix_exponential anchors its blocks at absolute rows, EXP_BLOCK rows
    # at these rates but the last two (|rate*dt| 5 and 50: blocks of 5 rows
    # and of one), so cuts also fall on block anchors and one row either
    # side of them
    values = np.random.default_rng(seed).normal(size=(rows, cols))
    cuts = []
    if rows > 1:
        anchors = [a + d for a in range(EXP_BLOCK, rows, EXP_BLOCK)
                   for d in (-1, 0, 1) if a + d < rows]
        cut = st.integers(1, rows - 1)
        cuts = sorted(data.draw(st.sets(cut | st.sampled_from(anchors) if anchors else cut,
                                        max_size=6)))
    dt = 0.01
    for prefix in (lambda v, c: prefix_trapezoid(v, dt, c),
                   lambda v, c: prefix_exponential(rate, v, dt, c)):
        # prefix_trapezoid overwrites its samples: each call takes a copy
        whole = prefix(values.copy(), None)
        assert np.all(np.isfinite(whole))
        assert np.array_equal(chunked(prefix, values.copy(), cuts), whole)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 300), cols=st.sampled_from([1, 2, 3, 8]),
       seed=st.integers(0, 2**16), data=st.data())
def test_prefix_trapezoid_integrates_in_place(rows, cols, seed, data):
    # the integrals overwrite the very array given, chunk by chunk too, with
    # the bits of a referee that integrates a copy (an odd column count
    # takes the one-lane running sum, an even one the complex lanes)
    values = np.random.default_rng(seed).normal(size=(rows, cols))
    dt = 0.01
    want = copied_trapezoid(values, dt)
    given_array = values.copy()
    assert prefix_trapezoid(given_array, dt) is given_array
    assert np.array_equal(given_array, want)
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=5))) if rows > 1 else []
    referee_carry = {}
    edges = [0, *cuts, rows]
    referee = np.concatenate([copied_trapezoid(values[a:b], dt, referee_carry)
                              for a, b in zip(edges, edges[1:])])
    assert np.array_equal(referee, want)
    assert np.array_equal(chunked(lambda v, c: prefix_trapezoid(v, dt, c), values.copy(), cuts),
                          want)


@pytest.mark.parametrize("rate", [-2.0, 0.7, -1e-15])
def test_exponential_prefix_and_forcing_transform_leave_their_input(rate):
    # at |rate| < 1e-14 prefix_exponential is the trapezoid prefix, which
    # works in place: the samples are copied first, since the forcing
    # transform reads them again; the transform's rates are -alpha and
    # -c^2/b, both -|rate| here
    values = np.random.default_rng(5).normal(size=(50, 4))
    kept = values.copy()
    prefix_exponential(rate, values, 0.01)
    assert np.array_equal(values, kept)
    params = MgtParams(alpha=abs(rate), b=1.0 / abs(rate), c=1.0)
    forcing_transform(values, params, TimeGrid(0.49, 49))
    assert np.array_equal(values, kept)


@settings(max_examples=16, deadline=None)
@given(edge=st.sampled_from([-1, 0, 1, CHUNK_ELEMENTS // BASIS.size + 1]),
       forcing=st.booleans(), boundary=st.booleans(), seed=st.integers(0, 2**16))
def test_chunked_rhs_equals_one_chunk(edge, forcing, boundary, seed):
    # steps + 1 = C - 1, C, C + 1 and 2C + 1 rows for C rows per chunk
    rows = CHUNK_ELEMENTS // BASIS.size + edge
    grid = TimeGrid(1.0, rows - 1)
    spec = make_scenario(BASIS, ScenarioSpec(seed=seed, g_family="poly"))
    data = MgtData(spec.w0, spec.w1, spec.w2, f=spec.f if forcing else None,
                   g=spec.g if boundary else None)
    chunks, whole = np.empty((2, 3, rows, BASIS.size))
    _assembly(data, PARAMS, grid)[1](chunks, slice(0, BASIS.size))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "CHUNK_ELEMENTS", rows * BASIS.size)
        _assembly(data, PARAMS, grid)[1](whole, slice(0, BASIS.size))
    assert np.array_equal(chunks, whole)


@pytest.mark.parametrize("width", [1, 64, 10961, 10962, 2**14, 2**15, 2**16])
def test_row_chunks_never_make_a_one_row_chunk(width):
    # numpy rounds a one-row matrix product by its vector routine
    for rows in range(1, 41):
        chunks = row_chunks(rows, width)
        assert [c.start for c in chunks] == [0] + [c.stop for c in chunks[:-1]]
        assert chunks[-1].stop == rows
        sizes = [c.stop - c.start for c in chunks]
        assert min(sizes) >= (1 if rows == 1 else 2), (rows, sizes)
        assert max(sizes) <= max(3, CHUNK_ELEMENTS // width)


def test_row_chunks_of_no_rows_are_none():
    assert row_chunks(0, 4) == []


def test_row_chunks_of_narrow_widths_are_unchanged():
    # at 256 or fewer modes per chunk the chunks, and so every solve's bits,
    # are those of the plain ceil(rows / (CHUNK_ELEMENTS // width)) split
    for width in range(1, 257):
        for rows in (*range(1, 41), 127, 128, 129, 2001, 10001, 10002):
            count = -(-rows // (CHUNK_ELEMENTS // width))
            edges = [rows * i // count for i in range(count + 1)]
            assert row_chunks(rows, width) == [slice(a, b) for a, b in zip(edges, edges[1:])]
