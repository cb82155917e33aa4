"""Mode groups: both routes give the same bits at any group count.

Wide bases run as contiguous mode groups, one per core
(quadrature.mode_groups); each route is one pass in which every group runs
the whole route on its own core, on its own columns of the shared arrays.
Here the floor of modes per group and the core count are patched so that
toy bases split into 1, 2 and 3 (uneven) groups, with small row chunks so
that every group carries its running sums over several chunks; every output
must match one group bit for bit.
"""

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from mgtlab import modal_oracle, quadrature, reduction
from mgtlab.generators import ScenarioSpec, make_scenario
from mgtlab.modal_oracle import solve_by_modes
from mgtlab.quadrature import each_part, mode_groups, row_chunks
from mgtlab.reduction import ForcingData, MgtData, MgtParams, solve_mgt
from mgtlab.spectral import BoundaryData, DomainSpec, TimeGrid, build_basis

PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
BASES = {"interval": build_basis(DomainSpec("interval", 64), 8),
         "square": build_basis(DomainSpec("square", 32), 4)}


def grouped(monkeypatch, count):
    """Split every basis of 2 or more modes into count groups, with chunks
    of at most 256 values."""
    monkeypatch.setattr(quadrature, "GROUP_MODES", 1)
    monkeypatch.setattr(quadrature, "_cores", lambda: count)
    monkeypatch.setattr(quadrature, "CHUNK_ELEMENTS", 256)


def outputs(data, grid):
    bundle = solve_mgt(data, PARAMS, grid)
    oracle = solve_by_modes(data, PARAMS, grid)
    out = {f"mgt_{k}": bundle.total(k) for k in ("w", "wt", "wtt")}
    out.update({f"oracle_{k}": oracle.total(k) for k in ("w", "wt", "wtt")})
    if bundle.basis.domain.kind == "interval":
        out.update({f"trace_{k}": bundle.trace(k).series for k in ("w", "wt")})
    return out, bundle.metadata["mode_groups"]


def test_mode_groups_cover_the_basis_in_order(monkeypatch):
    monkeypatch.setattr(quadrature, "_cores", lambda: 2)
    assert mode_groups(127) == [slice(0, 127)]
    assert mode_groups(128) == [slice(0, 64), slice(64, 128)]
    assert mode_groups(4096) == [slice(0, 2048), slice(2048, 4096)]
    monkeypatch.setattr(quadrature, "_cores", lambda: 3)
    assert mode_groups(200) == [slice(0, 66), slice(66, 133), slice(133, 200)]
    monkeypatch.setattr(quadrature, "_cores", lambda: 1)
    assert mode_groups(4096) == [slice(0, 4096)]


@pytest.mark.parametrize("domain", sorted(BASES))
@pytest.mark.parametrize("forcing", [True, False])
@pytest.mark.parametrize("boundary", [True, False])
def test_groups_give_the_bits_of_one_group(monkeypatch, domain, forcing, boundary):
    # at 111 steps the last scan segment (block length 11) is a single row
    basis = BASES[domain]
    spec = make_scenario(basis, ScenarioSpec(seed=3, g_family="poly"))
    data = MgtData(spec.w0, spec.w1, spec.w2, f=spec.f if forcing else None,
                   g=spec.g if boundary else None)
    recovered = recovered_ranges(monkeypatch)
    for steps in (300, 111):
        grid = TimeGrid(1.0, steps)
        recovered.clear()
        want, groups = outputs(data, grid)
        assert groups == 1
        assert_cover(recovered, steps, groups)
        for count in (1, 2, 3):
            recovered.clear()
            with monkeypatch.context() as mp:
                grouped(mp, count)
                got, groups = outputs(data, grid)
            assert groups == count
            assert_cover(recovered, steps, groups)
            for key, value in want.items():
                assert np.array_equal(got[key], value), (steps, count, key)


def recovered_ranges(monkeypatch):
    """A list that gets, for each scan of solve_mgt, the list of the row
    ranges it hands to the recovery."""
    recovered = []

    def recording(plan, v, done, scan=reduction._scan_group):
        ranges = []
        recovered.append(ranges)

        def record(rows):
            ranges.append(rows)
            done(rows)

        scan(plan, v, record)

    monkeypatch.setattr(reduction, "_scan_group", recording)
    return recovered


def assert_cover(recovered, steps, groups):
    """Each of the groups' scans handed rows 0..steps to the recovery once,
    in order, in nonempty ranges."""
    assert len(recovered) == groups
    for ranges in recovered:
        assert ranges[0].start == 0 and ranges[-1].stop == steps + 1
        assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
        assert all(r.stop > r.start for r in ranges), ranges


@pytest.mark.parametrize("module,route", [(reduction, "solve_mgt"),
                                          (modal_oracle, "solve_by_modes")])
def test_each_route_is_one_pass_over_the_mode_groups(monkeypatch, module, route):
    # every group runs its whole route, with no wait for the other groups
    passes = []

    def counted(work, parts):
        passes.append(len(parts))
        return each_part(work, parts)

    monkeypatch.setattr(module, "each_part", counted)
    grouped(monkeypatch, 3)
    data = make_scenario(BASES["interval"], ScenarioSpec(seed=3, g_family="poly"))
    getattr(module, route)(data, PARAMS, TimeGrid(1.0, 300))
    assert passes == [3]


@pytest.mark.parametrize("domain,count,steps", [("interval", 1, 10000),
                                                ("square", 2, 2000)])
def test_solve_samples_the_forcing_one_chunk_at_a_time(monkeypatch, domain, count,
                                                       steps):
    # the forcing callable is asked for one row chunk's times at a time and,
    # by each mode group, for each time once: a solve forms no grid-length
    # forcing table
    if count > 1:
        grouped(monkeypatch, count)
    basis = BASES[domain]
    spec = make_scenario(basis, ScenarioSpec(seed=2))
    asked = []

    def modes(t, inner=spec.f.modes):
        asked.append(len(t))
        return inner(t)

    data = MgtData(spec.w0, spec.w1, spec.w2, f=ForcingData(modes), g=spec.g)
    grid = TimeGrid(1.0, steps)
    groups = mode_groups(basis.size)
    chunks = [row_chunks(grid.steps + 1, cols.stop - cols.start) for cols in groups]
    assert len(groups) == count and min(map(len, chunks)) >= 3
    bundle = solve_mgt(data, PARAMS, grid)
    assert bundle.metadata["mode_groups"] == count
    assert max(asked) <= max(c.stop - c.start for c in sum(chunks, []))
    assert sum(asked) == count * (grid.steps + 1)


@pytest.mark.parametrize("count", [1, 3])
def test_oracle_samples_each_distinct_time_once_per_chunk(monkeypatch, count):
    # a chunk of a group's steps samples its step ends, shared by neighbouring
    # steps, and its midpoints: 2S + chunks times per group, not the 3S of
    # three stage times per step; the trajectory's Dirichlet signal samples
    # g, gt and gtt once more on the S+1 grid times
    grouped(monkeypatch, count)
    spec = make_scenario(BASES["interval"], ScenarioSpec(seed=2, g_family="poly"))
    asked = Counter()
    lock = threading.Lock()

    def counted(name, fn):
        def wrapped(t):
            with lock:
                asked[name] += len(t)
            return fn(t)
        return wrapped

    g = BoundaryData(counted("g", spec.g.g), counted("gt", spec.g.gt),
                     counted("gtt", spec.g.gtt), nodes=spec.g.nodes)
    data = MgtData(spec.w0, spec.w1, spec.w2, f=ForcingData(counted("f", spec.f.modes)),
                   g=g)
    asked.clear()
    grid = TimeGrid(1.0, 300)
    solve_by_modes(data, PARAMS, grid)
    groups = mode_groups(data.basis.size)
    want = sum(2 * grid.steps + len(row_chunks(grid.steps, cols.stop - cols.start))
               for cols in groups)
    assert len(groups) == count
    signal = grid.steps + 1
    assert asked == {"g": want + signal, "gt": want + signal, "gtt": signal, "f": want}


def errors(monkeypatch, solve, data, grid):
    """(type, message) of the error that solve raises at 1, 2 and 3 groups."""
    found = set()
    for count in (1, 2, 3):
        with monkeypatch.context() as mp:
            grouped(mp, count)
            with pytest.raises(Exception) as info:
                solve(data, grid)
        found.add((info.type, str(info.value)))
    return found


def test_groups_raise_the_overflow_error_of_one_group(monkeypatch):
    # gamma = 9: the transform's exponentials leave the float range near t = 158
    params = MgtParams(alpha=10.0, b=1.0, c=1.0)
    data = make_scenario(BASES["interval"], ScenarioSpec(seed=1))
    found = errors(monkeypatch, lambda d, g: solve_mgt(d, params, g), data,
                   TimeGrid(400.0, 400))
    assert len(found) == 1
    kind, message = found.pop()
    assert kind is FloatingPointError and message.startswith("non-finite w from t = ")


@pytest.mark.parametrize("early_col,late_col", [(6, 0), (0, 6), (None, 3)])
def test_groups_name_the_earliest_bad_time_of_all(monkeypatch, early_col, late_col):
    # 8 modes in 3 mode groups: each group finds its own first bad time in
    # its columns, and the error names the earliest of them, also when only
    # the middle group finds one (no early column)
    grouped(monkeypatch, 3)
    grid = TimeGrid(1.0, 300)
    early, late = 40, 250
    assert mode_groups(8) == [slice(0, 2), slice(2, 5), slice(5, 8)]

    data = make_scenario(BASES["interval"], ScenarioSpec(seed=1))
    omega = reduction.build_kernel(PARAMS, data.basis).omega

    def spoiled(plan, v, done, scan=reduction._scan_group):
        # v holds a group's columns only: column col of the basis is its
        # column col - start; a row is spoiled as its range is handed to
        # the recovery
        start = int(np.flatnonzero(omega == plan.kernels.omega[0])[0])

        def spoil(rows):
            for row, col, bad in ((late, late_col, np.inf), (early, early_col, np.nan)):
                if (col is not None and start <= col < start + plan.kernels.size
                        and rows.start <= row < rows.stop):
                    v[row, 0, col - start] = bad
            done(rows)

        scan(plan, v, spoil)

    monkeypatch.setattr(reduction, "_scan_group", spoiled)
    first = late if early_col is None else early
    with pytest.raises(FloatingPointError,
                       match=f"non-finite w from t = {grid.times[first]:.6g} on"):
        solve_mgt(data, PARAMS, grid)


def test_groups_raise_the_rk4_error_of_one_group(monkeypatch):
    # dt = 0.5 is far past RK4's stability limit on the upper modes
    data = make_scenario(BASES["square"], ScenarioSpec(seed=2))
    found = errors(monkeypatch, lambda d, g: solve_by_modes(d, PARAMS, g), data,
                   TimeGrid(100.0, 200))
    assert len(found) == 1
    kind, message = found.pop()
    assert kind is FloatingPointError
    assert message.startswith("RK4 oracle: non-finite state from t = ")


def finishes(fn, timeout=60.0):
    """fn() on a thread that must end within timeout seconds; its result,
    or the exception it raised."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the call did not return"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_groups_under_thread_switching_stress(monkeypatch):
    # more groups than cores and a tiny switch interval: every group must
    # carry its own running sums over every chunk, with no lost update
    data = make_scenario(BASES["square"], ScenarioSpec(seed=6, g_family="poly"))
    grid = TimeGrid(1.0, 300)
    want, _ = outputs(data, grid)
    grouped(monkeypatch, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got, groups = finishes(lambda: outputs(data, grid))
            assert groups == 5
            for key, value in want.items():
                assert np.array_equal(got[key], value), key
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() < 10


def test_each_part_runs_one_part_inline():
    caller = threading.get_ident()
    assert each_part(lambda part: (part, threading.get_ident()), ["a"]) == [("a", caller)]


@pytest.mark.parametrize("failing", [0, 1])
def test_each_part_raises_after_every_part_has_finished(failing):
    # a failing part, on the calling thread or the pool, raises only once
    # the other parts are done; the results keep the order of the parts
    done = []

    def work(part):
        if part == failing:
            raise KeyError(part)
        time.sleep(0.2)
        done.append(part)
        return part

    with pytest.raises(KeyError) as info:
        finishes(lambda: each_part(work, [0, 1, 2]))
    assert info.value.args == (failing,)
    assert sorted(done) == sorted({0, 1, 2} - {failing})
    assert finishes(lambda: each_part(lambda part: 2 * part, [0, 1, 2])) == [0, 2, 4]


def test_each_part_keeps_the_callers_errstate():
    # the overflow is in the part that runs on the pool
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            each_part(np.exp, [np.ones(2), np.full(2, 1e3)])
    with np.errstate(over="ignore"):
        assert np.isinf(each_part(np.exp, [np.ones(2), np.full(2, 1e3)])[1]).all()


def test_one_group_solves_never_ask_for_the_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-group solve asked for the thread pool")

    monkeypatch.setattr(quadrature, "ThreadPoolExecutor", no_pool)
    basis = build_basis(DomainSpec("interval", 128), 32)
    data = make_scenario(basis, ScenarioSpec(seed=4, g_family="poly"))
    grid = TimeGrid(1.0, 2000)
    assert len(mode_groups(basis.size)) == 1 and len(row_chunks(grid.steps, 32)) >= 2
    assert solve_mgt(data, PARAMS, grid).metadata["mode_groups"] == 1
    assert np.isfinite(solve_by_modes(data, PARAMS, grid).wtt).all()
