"""Solver plans: each mode group's tables, built once per problem shape.

Both routes keep their data-independent tables (reduction.group_plan,
modal_oracle.oracle_plan) in lru_caches keyed by value
(spectral.group_plans): the parameters, the domain, the mode count, the
grid and the group's columns.  A plan is
shared by every problem with that key, so its arrays are read-only, and a
solve gives the same bits whether its plan was built for it or found.
"""

import dataclasses

import numpy as np
import pytest

from mgtlab.generators import ScenarioSpec, make_scenario
from mgtlab.modal_oracle import oracle_plan, solve_by_modes
from mgtlab.reduction import MgtParams, group_plan, solve_mgt
from mgtlab.spectral import DomainSpec, TimeGrid, build_basis

PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
DOMAIN = DomainSpec("interval", 64)
GRID = TimeGrid(1.0, 400)
ROUTES = [group_plan, oracle_plan]


def arrays(plan):
    """The arrays a plan holds, also those of its kernels and phase rows."""
    found = []
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            found.append(value)
        elif hasattr(value, "__dict__"):
            found.extend(arrays(value))
    return found


@pytest.mark.parametrize("plan_of", ROUTES)
def test_equal_bases_share_one_plan(plan_of):
    plan_of.cache_clear()
    first = plan_of(PARAMS, build_basis(DOMAIN, 16), GRID, slice(0, 16))
    hits = plan_of.cache_info().hits
    again = plan_of(MgtParams(alpha=2.0, b=1.0, c=1.0), build_basis(DOMAIN, 16),
                    TimeGrid(1.0, 400), slice(0, 16))
    assert again is first
    assert plan_of.cache_info().hits == hits + 1


@pytest.mark.parametrize("plan_of", ROUTES)
def test_plan_arrays_are_read_only(plan_of):
    plan = plan_of(PARAMS, build_basis(DOMAIN, 8), GRID, slice(2, 7))
    tables = arrays(plan)
    assert len(tables) >= 3
    for table in tables:
        with pytest.raises(ValueError):
            table.flat[0] = 1.0


@pytest.mark.parametrize("plan_of", ROUTES)
@pytest.mark.parametrize("change", ["params", "dt", "steps", "cols"])
def test_another_problem_shape_gets_another_plan(plan_of, change):
    basis = build_basis(DOMAIN, 8)
    key = {"params": PARAMS, "grid": GRID, "cols": slice(0, 8)}
    other = dict(key)
    if change == "params":
        other["params"] = dataclasses.replace(PARAMS, b=1.5)
    elif change == "dt":
        other["grid"] = TimeGrid(2.0, GRID.steps)
    elif change == "steps":
        other["grid"] = TimeGrid(GRID.horizon, GRID.steps + 1)
    else:
        other["cols"] = slice(0, 7)
    plans = [plan_of(k["params"], basis, k["grid"], k["cols"]) for k in (key, other)]
    assert plans[0] is not plans[1]
    assert any(a.shape != b.shape or not np.array_equal(a, b)
               for a, b in zip(arrays(plans[0]), arrays(plans[1])))


@pytest.mark.parametrize("steps", [1, 400])
def test_oracle_end_weight_is_dt_over_six_in_component_2_alone(steps):
    # the input build adds the end weight dt/6 e_3 to component 2 only
    grid = TimeGrid(1.0, steps)
    weights = oracle_plan(PARAMS, build_basis(DOMAIN, 8), grid, slice(2, 7)).weights
    want = np.zeros((3, 5))
    want[2] = grid.dt / 6.0
    assert np.array_equal(weights[2], want)
    assert not np.signbit(weights[2]).any()


@pytest.mark.parametrize("steps", [400, 401])
def test_routes_give_the_same_bits_with_a_cold_and_a_warm_cache(steps):
    basis = build_basis(DOMAIN, 16)
    grid = TimeGrid(1.0, steps)
    data = make_scenario(basis, ScenarioSpec(seed=11, g_family="poly"))
    runs = []
    for cold in (True, False, True):
        if cold:
            group_plan.cache_clear()
            oracle_plan.cache_clear()
        bundle = solve_mgt(data, PARAMS, grid)
        oracle = solve_by_modes(data, PARAMS, grid)
        runs.append([getattr(sol, k) for sol in (bundle, oracle) for k in ("w", "wt", "wtt")])
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)
