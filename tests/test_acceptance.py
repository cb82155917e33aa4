"""Acceptance suite: every criterion at its stated tolerance, desk scale.

Each test prints one pass/fail line.  Tolerances are pinned here, not
derived from runtime calibration; scales are N <= 128 modes, dt >= 1e-4,
T <= 2.

Criteria 2 and 3 read the rows of the witness runner on configs/witness.json,
7 and 8 those of the symbols runner on configs/symbols.json, and 9 those of
the convergence runner on configs/convergence.json at 800 steps, whose
orders are each route's errors against the closed-form Dirichlet solution of
generators.exact_dirichlet_case: the gate runs the code and the configs that
a user runs, and checks that each row it reads was judged at the
criterion's own tolerance.  Criteria 1, 4, 5 and 6 stay direct: no config
names criterion 1's mixed scenarios, criterion 4 steps one node where the
symbols runner steps both, and no runner computes the referees or the
characteristic roots of 5 and 6.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mgtlab.generators import ScenarioSpec, make_scenario
from mgtlab.harness import (
    ScenarioConfig,
    relative_sup_error,
    run_convergence,
    run_regularity_witness,
    run_symbol_suite,
)
from mgtlab.modal_oracle import solve_by_modes
from mgtlab.reduction import MgtParams, build_kernel, solve_mgt
from mgtlab.spectral import BoundaryData, DomainSpec, TimeGrid, build_basis
from mgtlab.symbols import boundary_convolution_probe
from reference import characteristic_roots, kernel_samples, solve_direct, solve_picard

CONFIGS = Path(__file__).parents[1] / "configs"
PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
DOMAIN = DomainSpec("interval", 1024)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def judged(row, tol: float) -> bool:
    """Whether a runner's report row passed, judged at the pinned tolerance tol."""
    assert row.tol == tol, f"{row.name} was judged at {row.tol}, the criterion pins {tol}"
    return bool(row.passed)


def by_name(report) -> dict:
    return {row.name: row for row in report.rows}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{config name: (config, report)} of the witness, symbols and convergence
    runners, each run once on its shipped config."""
    out = {}
    # at 800 steps the convergence runner's oracle ladder
    # max(50, steps // 16) * 2**k is 50/100/200 steps
    for name, runner, edits in (("witness", run_regularity_witness, {}),
                                ("symbols", run_symbol_suite, {}),
                                ("convergence", run_convergence, {"steps": 800})):
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg = ScenarioConfig.from_dict({**raw, **edits})
        out[name] = cfg, runner(cfg, tmp_path_factory.mktemp(name))
    return out


# mixed generator families for the cross-route sweep
SCENARIOS = [
    ScenarioSpec(seed=0),
    ScenarioSpec(seed=1, g_family="poly", g_amp=0.08),
    ScenarioSpec(seed=2, f_family="poly", f_amp=0.4),
    ScenarioSpec(seed=3, w0_amp=1.5, w2_amp=1.0),
    ScenarioSpec(seed=4, g_family="trig", g_freq=2.1, g_offset=0.1),
    ScenarioSpec(seed=5, f_family="zero"),
    ScenarioSpec(seed=6, g_family="poly", g_amp=0.12, f_family="trig"),
    ScenarioSpec(seed=7, w1_amp=1.0, decay=3.0),
    ScenarioSpec(seed=8, g_freq=0.7, f_freq=3.0),
    ScenarioSpec(seed=9, active_modes=10),
]


def test_criterion_1_cross_route_equivalence():
    """>= 10 mixed compatible scenarios, N=32, dt=1e-4, T=1, tol 1e-6."""
    tol = 1e-6
    basis = build_basis(DOMAIN, 32)
    grid = TimeGrid(1.0, 10000)
    worst = 0.0
    for spec in SCENARIOS:
        data = make_scenario(basis, spec)
        assert data.compatible_position and data.compatible_velocity
        bundle = solve_mgt(data, PARAMS, grid)
        oracle = solve_by_modes(data, PARAMS, grid)
        err = relative_sup_error(bundle.total("w"), oracle.w)
        worst = max(worst, err)
    report("1 cross-route equivalence", worst < tol,
           f"{len(SCENARIOS)} scenarios, worst rel sup error {worst:.3e} < {tol:g}")


def test_criterion_2_interior_regularity_witness(runs):
    """Interior sup norms stable <1% under N doubling; divergence >=2x when
    the position trace is incompatible."""
    tol_stable, tol_growth = 0.01, 2.0
    rows = by_name(runs["witness"][1])
    stable = [rows[f"a_interior_{key}"] for key in ("w_H2", "wt_H1", "wtt_L2")]
    growth = rows["d_incompatible_H2_growth"]
    ok = all([judged(row, tol_stable) for row in stable]) and judged(growth, tol_growth)
    report("2 interior regularity witness", ok,
           f"max stable change {max(row.value for row in stable):.2e} < {tol_stable}; "
           f"incompatible growth {growth.value:.2f} >= {tol_growth}")


def test_criterion_3_trace_regularity_witness(runs):
    """H1(Sigma) norm of d_nu w and L2(Sigma) norm of d_nu w_t stable within
    5% under N doubling + dt halving, for H2-in-time boundary data."""
    tol = 0.05
    rows = by_name(runs["witness"][1])
    h1, l2 = rows["b_trace_H1_Sigma"], rows["c_trace_wt_L2_Sigma"]
    report("3 trace regularity witness", judged(h1, tol) and judged(l2, tol),
           f"H1 trace change {h1.value:.2e}, wt L2 trace change {l2.value:.2e} < {tol}")


def test_criterion_4_boundary_to_interior_probe():
    """Step-in-time Dirichlet datum: probe norm series stable within 5%."""
    tol = 0.05
    grid = TimeGrid(1.0, 2000)
    sups = {}
    for n in (32, 64):
        basis = build_basis(DOMAIN, n)
        g = BoundaryData(g=lambda t: np.column_stack([np.where(t >= 0.4, 1.0, 0.0), 0.0 * t]),
                         gt=lambda t: np.zeros((len(t), 2)),
                         gtt=lambda t: np.zeros((len(t), 2)))
        probe = boundary_convolution_probe(basis, np.sqrt(PARAMS.b), g.sample(grid), grid)
        sups[n] = float(np.max(probe))
    change = abs(sups[64] - sups[32]) / sups[32]
    report("4 boundary-to-interior probe", change < tol,
           f"sup-norm series change {change:.2e} < {tol} (N 32 -> 64)")


def test_criterion_5_volterra_engine():
    """Direct vs Picard within 1e-6 on four kernels; analytic resolvent
    reproduced within 1e-8 at dt=1e-3."""
    grid = TimeGrid(1.0, 1000)
    mgt = build_kernel(PARAMS, build_basis(DOMAIN, 1))
    kernels = {
        "one": np.ones(grid.steps + 1),
        "sin": np.sin(grid.times),
        "exp": np.exp(-grid.times),
        "mgt_mode_1": kernel_samples(mgt, grid.times)[0][:, 0],
    }
    worst_gap = 0.0
    ones = np.ones(grid.steps + 1)
    for kernel in kernels.values():
        direct = solve_direct(kernel, ones, grid.dt)
        picard, _, converged, _ = solve_picard(kernel, ones, grid.dt, tol=1e-12)
        assert converged
        worst_gap = max(worst_gap, float(np.max(np.abs(direct - picard))))
    resolvent = solve_direct(kernels["one"], ones, grid.dt)
    resolvent_err = float(np.max(np.abs(resolvent - np.exp(-grid.times))))
    report("5 volterra engine",
           worst_gap < 1e-6 and resolvent_err < 1e-8,
           f"direct/Picard gap {worst_gap:.2e} < 1e-6; "
           f"resolvent error {resolvent_err:.2e} < 1e-8 at dt=1e-3")


def test_criterion_6_stability_threshold():
    """Root pattern across mu in {1,10,100,1000} follows the sign of gamma."""
    mus = [1.0, 10.0, 100.0, 1000.0]
    pos = all(np.max(characteristic_roots(PARAMS, mu).real) < 0 for mu in mus)
    marginal = MgtParams(alpha=1.0, b=1.0, c=1.0)
    zero = all(abs(np.max(characteristic_roots(marginal, mu).real)) < 1e-9
               for mu in mus)
    unstable = MgtParams(alpha=0.5, b=1.0, c=1.0)
    neg = all(np.max(characteristic_roots(unstable, mu).real) > 0
              for mu in mus if mu >= 100.0)
    report("6 stability threshold", pos and zero and neg,
           "gamma>0 all stable, gamma=0 marginal within 1e-9, "
           "gamma<0 unstable for mu >= 100")


def test_criterion_7_lopatinskii_certification(runs):
    """b=1 sweep over >= 1e4 normalized points (beta down to 1e-6): min >= 0.5;
    b in {0.25, 4}: positive minima."""
    tol = 0.5
    cfg, suite = runs["symbols"]
    assert cfg.symbol.samples >= 10000 and cfg.symbol.beta_min <= 1e-6
    sweeps = {row.level: row for row in suite.rows if row.name == "lopatinskii_min"}
    unit = sweeps.pop("b=1.0")
    argmin = float(unit.note.partition("=")[2])  # "argmin beta=<value>"
    ok = judged(unit, tol) and all(row.passed for row in sweeps.values())
    detail = (f"b=1 min {unit.value:.4f} >= {tol} (argmin beta {argmin:.1e}); "
              + ", ".join(f"{level} min {row.value:.4f}" for level, row in sweeps.items()))
    report("7 lopatinskii certification", ok, detail)


def test_criterion_8_estimate_probes(runs):
    """Both estimate forms over 100 randomized compatible scenarios:
    max/median < 10 and <10% drift under refinement."""
    tol_spread, tol_drift = 10.0, 0.10
    cfg, suite = runs["symbols"]
    assert cfg.symbol.probe_scenarios >= 100
    rows = by_name(suite)
    spreads = [rows[f"{which}_max_over_median"] for which in ("resolvent_4a", "semigroup_10")]
    drifts = [rows[f"{which}_refinement_drift"] for which in ("resolvent_4a", "semigroup_10")]
    ok = (all([judged(row, tol_spread) for row in spreads])
          and all([judged(row, tol_drift) for row in drifts]))
    report("8 estimate probes", ok,
           f"max/median {spreads[0].value:.2f}, {spreads[1].value:.2f} < {tol_spread:g}; "
           f"worst refinement drift {max(row.value for row in drifts):.2e} < {tol_drift:g}")


def test_criterion_9_convergence_orders(runs):
    """Volterra route order >= 1.8 and oracle order >= 3.8 in the worst relative
    sup error of (w, w_t, w_tt) against the exact Dirichlet solution at rate 4i,
    over 800/1600/3200 steps (Volterra) and 50/100/200 steps (oracle)."""
    rows = by_name(runs["convergence"][1])
    orders = [(rows[f"{name}_order"], name, tol)
              for name, tol in (("volterra", 1.8), ("oracle", 3.8))]
    report("9 convergence orders", all([judged(row, tol) for row, _, tol in orders]),
           ", ".join(f"{name} {row.value:.2f} >= {tol}" for row, name, tol in orders))
