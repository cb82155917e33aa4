"""Acceptance suite: every criterion at its stated tolerance, desk scale.

Each test prints one pass/fail line.  Tolerances are pinned here, not
derived from runtime calibration; scales are N <= 128 modes, dt >= 1e-4,
T <= 2.
"""

import numpy as np

from mgtlab.cosine import boundary_convolution_probe
from mgtlab.generators import ScenarioSpec, make_scenario, manufactured_mode_case
from mgtlab.harness import (
    discrete_equation_residual,
    relative_sup_error,
    sup_interior_norms,
    trace_space_norms,
)
from mgtlab.modal_oracle import solve_by_modes
from mgtlab.reduction import MgtParams, build_kernel, solve_mgt
from mgtlab.spectral import BoundaryData, DomainSpec, TimeGrid, build_basis
from mgtlab.symbols import estimate_probe, lopatinskii_sweep
from reference import characteristic_roots, kernel_samples, solve_direct, solve_picard

PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
DOMAIN = DomainSpec("interval", 1024)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


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


def test_criterion_2_interior_regularity_witness():
    """Interior sup norms stable <1% under N doubling; divergence >=2x when
    the position trace is incompatible."""
    tol_stable, tol_growth = 0.01, 2.0
    grid = TimeGrid(1.0, 1000)
    spec = ScenarioSpec(seed=1)
    sups = {}
    for n in (32, 64):
        bundle = solve_mgt(make_scenario(build_basis(DOMAIN, n), spec), PARAMS, grid)
        sups[n] = sup_interior_norms(bundle, 1024)
    changes = {k: abs(sups[64][k] - sups[32][k]) / sups[32][k]
               for k in ("w_H2", "wt_H1", "wtt_L2")}
    stable = all(v < tol_stable for v in changes.values())

    bad = ScenarioSpec(seed=1, compatible=False)
    h2 = {}
    for n in (32, 64):
        bundle = solve_mgt(make_scenario(build_basis(DOMAIN, n), bad), PARAMS, grid)
        h2[n] = sup_interior_norms(bundle, 1024)["w_H2"]
    growth = h2[64] / h2[32]
    report("2 interior regularity witness",
           stable and growth >= tol_growth,
           f"max stable change {max(changes.values()):.2e} < {tol_stable}; "
           f"incompatible growth {growth:.2f} >= {tol_growth}")


def test_criterion_3_trace_regularity_witness():
    """H1(Sigma) norm of d_nu w and L2(Sigma) norm of d_nu w_t stable within
    5% under N doubling + dt halving, for H2-in-time boundary data."""
    tol = 0.05
    spec = ScenarioSpec(seed=1)
    h1 = {}
    l2 = {}
    for n, steps in ((32, 1000), (64, 2000)):
        bundle = solve_mgt(make_scenario(build_basis(DOMAIN, n), spec),
                           PARAMS, TimeGrid(1.0, steps))
        h1[n], l2[n] = trace_space_norms(bundle)
    ch_h1 = abs(h1[64] - h1[32]) / h1[32]
    ch_l2 = abs(l2[64] - l2[32]) / l2[32]
    report("3 trace regularity witness", ch_h1 < tol and ch_l2 < tol,
           f"H1 trace change {ch_h1:.2e}, wt L2 trace change {ch_l2:.2e} < {tol}")


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


def test_criterion_7_lopatinskii_certification():
    """b=1 sweep over >= 1e4 normalized points (beta down to 1e-6): min >= 0.5;
    b in {0.25, 4}: positive minima."""
    sweep = lopatinskii_sweep(1.0, samples=10000, beta_min=1e-6, seed=0)
    others = {b: lopatinskii_sweep(b, samples=2000, beta_min=1e-6, seed=0)
              for b in (0.25, 4.0)}
    ok = sweep.minimum >= 0.5 and all(s.minimum > 0 for s in others.values())
    detail = (f"b=1 min {sweep.minimum:.4f} >= 0.5 "
              f"(argmin beta {sweep.rows[sweep.argmin, 1]:.1e}); "
              + ", ".join(f"b={b} min {s.minimum:.4f}" for b, s in others.items()))
    report("7 lopatinskii certification", ok, detail)


def test_criterion_8_estimate_probes():
    """Both estimate forms over 100 randomized compatible scenarios:
    max/median < 10 and <10% drift under refinement."""
    basis = build_basis(DOMAIN, 16)
    grid = TimeGrid(1.0, 400)
    ratios = {"resolvent_4a": [], "semigroup_10": []}
    for seed in range(100):
        data = make_scenario(basis, ScenarioSpec(seed=seed))
        bundle = solve_mgt(data, PARAMS, grid)
        for which in ratios:
            ratios[which].append(
                estimate_probe(bundle, data, which, weight_beta=2.0,
                               space_points=256).ratio)
    spreads = {k: max(v) / float(np.median(v)) for k, v in ratios.items()}
    fine_basis = build_basis(DOMAIN, 32)
    fine_grid = TimeGrid(1.0, 800)
    drifts = []
    for seed in range(8):
        data = make_scenario(fine_basis, ScenarioSpec(seed=seed))
        bundle = solve_mgt(data, PARAMS, fine_grid)
        for which in ratios:
            fine = estimate_probe(bundle, data, which, weight_beta=2.0,
                                  space_points=512).ratio
            drifts.append(abs(fine - ratios[which][seed]) / ratios[which][seed])
    ok = all(s < 10.0 for s in spreads.values()) and max(drifts) < 0.10
    report("8 estimate probes", ok,
           f"max/median {spreads['resolvent_4a']:.2f}, "
           f"{spreads['semigroup_10']:.2f} < 10; worst refinement drift "
           f"{max(drifts):.2e} < 0.1")


def test_criterion_9_convergence_orders():
    """Volterra route order >= 1.8, oracle order >= 3.8, residual order >= 1."""
    basis = build_basis(DOMAIN, 8)
    errs_v, errs_o, resids = [], [], []
    for steps, osteps in ((1000, 50), (2000, 100), (4000, 200)):
        data, exact = manufactured_mode_case(basis, PARAMS, mode=0)
        grid = TimeGrid(1.0, steps)
        exact_w = exact(grid.times)[0]
        bundle = solve_mgt(data, PARAMS, grid)
        errs_v.append(np.max(np.abs(bundle.total("w")[:, 0] - exact_w)))
        resids.append(discrete_equation_residual(bundle, PARAMS))
        ogrid = TimeGrid(1.0, osteps)
        oracle = solve_by_modes(data, PARAMS, ogrid)
        exact_o = exact(ogrid.times)[0]
        errs_o.append(np.max(np.abs(oracle.w[:, 0] - exact_o)))
    order = lambda e: min(np.log2(e[i] / e[i + 1]) for i in range(len(e) - 1))
    ov, oo, orr = order(errs_v), order(errs_o), order(resids)
    report("9 convergence orders",
           ov >= 1.8 and oo >= 3.8 and orr >= 1.0,
           f"volterra {ov:.2f} >= 1.8, oracle {oo:.2f} >= 3.8, "
           f"residual {orr:.2f} >= 1.0")
