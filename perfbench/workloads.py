"""Seeded workloads of the mgtlab benchmark: inputs, items and output checks.

Every workload is a closed loop with one client: it runs one item, checks
its outputs, and only then starts the next.  Inputs come from the seed
alone; mgtlab receives only the ScenarioSpec values drawn here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from mgtlab.generators import ScenarioSpec, make_scenario
from mgtlab.harness import relative_sup_error, sup_interior_norms, trace_space_norms
from mgtlab.modal_oracle import solve_by_modes
from mgtlab.reduction import MgtParams, solve_mgt
from mgtlab.spectral import DomainSpec, TimeGrid, build_basis
from mgtlab.symbols import estimate_probe, lopatinskii_sweep

# Gates pinned at the repository's default tolerances, so that a change of
# those defaults cannot loosen the benchmark's own checks.
CROSS_ROUTE_TOL = 1e-6        # DEFAULT_TOLERANCES["cross_route"]
LOPATINSKII_MIN_B1 = 0.5      # DEFAULT_TOLERANCES["lopatinskii_min"]
PROBE_SPREAD_TOL = 10.0       # DEFAULT_TOLERANCES["probe_spread"]
# The spread is taken over this many scenarios, criterion 8's count, so
# that the gate does not depend on how many items a run gets through.
PROBE_SPREAD_ITEMS = 100
# ROADMAP output tolerance: outputs may drift by at most 1e-12 relative.
FINGERPRINT_RTOL = 1e-12
FINGERPRINT_SEED = 0

PARAMS = MgtParams(alpha=2.0, b=1.0, c=1.0)
PROBES = ("resolvent_4a", "semigroup_10")
SWEEP_B = (0.25, 1.0, 4.0)
SWEEP_SAMPLES = 10000

# acceptance criterion 1's ten scenarios, less their seeds: the trig/poly
# boundary and trig/poly/zero forcing mix, in the order the test lists them
CRITERION_1_MIX = (
    ScenarioSpec(),
    ScenarioSpec(g_family="poly", g_amp=0.08),
    ScenarioSpec(f_family="poly", f_amp=0.4),
    ScenarioSpec(w0_amp=1.5, w2_amp=1.0),
    ScenarioSpec(g_family="trig", g_freq=2.1, g_offset=0.1),
    ScenarioSpec(f_family="zero"),
    ScenarioSpec(g_family="poly", g_amp=0.12, f_family="trig"),
    ScenarioSpec(w1_amp=1.0, decay=3.0),
    ScenarioSpec(g_freq=0.7, f_freq=3.0),
    ScenarioSpec(active_modes=10),
)


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str
    modes: int
    steps: int
    mixed_families: bool  # criterion-1 scenario mix, else criterion-8 defaults
    oracle: bool          # run solve_by_modes and the cross-route error
    norms: bool           # sup interior norms at 1024 points and trace norms
    probes: bool          # both estimate probes at 256 space points
    sweep: bool           # Lopatinskii sweeps once per run
    fingerprint_items: int

    def basis(self):
        return build_basis(DomainSpec(self.domain, 1024), self.modes)

    def grid(self) -> TimeGrid:
        return TimeGrid(1.0, self.steps)

    @property
    def min_scenarios(self) -> int:
        """Scenarios a run takes at least, whatever its time: the probe
        spread gate's fixed sample."""
        return PROBE_SPREAD_ITEMS if self.probes else 1


# why each workload exists: see BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("interval-long", "interval", 32, 10000, mixed_families=True,
             oracle=True, norms=True, probes=False, sweep=False, fingerprint_items=2),
    Workload("square-wide", "square", 16, 10000, mixed_families=True,
             oracle=True, norms=False, probes=False, sweep=False, fingerprint_items=2),
    Workload("probe-many-small", "interval", 16, 400, mixed_families=False,
             oracle=False, norms=False, probes=True, sweep=True, fingerprint_items=8),
)}


def scenario_spec(wl: Workload, seed: int, index: int) -> ScenarioSpec:
    """Compatible scenario number `index` of the stream drawn from `seed`.

    The oracle workloads take criterion 1's scenario `index mod 10`, so every
    run starts with the same sequence of families; the seed draws the space
    seed, which sets the initial data and forcing coefficients.  The probe
    workload keeps acceptance criterion 8's family (the defaults): its
    max/median spread gate is defined on that family, and mixing boundary
    and forcing families moves the resolvent ratio by more than the gate's
    factor of 10.
    """
    space_seed = int(np.random.default_rng([seed, index]).integers(0, 2**31 - 1))
    template = CRITERION_1_MIX[index % len(CRITERION_1_MIX)] if wl.mixed_families \
        else ScenarioSpec()
    return dataclasses.replace(template, seed=space_seed)


def run_item(wl: Workload, basis, grid: TimeGrid, spec: ScenarioSpec,
             on_data=None) -> dict:
    """One item of the workload; returns its named outputs.

    on_data, when given, receives the MgtData before any solve (the traced
    run uses it to count boundary-callable calls).
    """
    data = make_scenario(basis, spec)
    if on_data is not None:
        on_data(data)
    bundle = solve_mgt(data, PARAMS, grid)
    out = {}
    if wl.oracle:
        oracle = solve_by_modes(data, PARAMS, grid)
        for which in ("w", "wt", "wtt"):
            out[f"cross_route_{which}"] = relative_sup_error(
                bundle.total(which), getattr(oracle, which))
    if wl.norms:
        out.update({f"sup_{k}": v for k, v in sup_interior_norms(bundle, 1024).items()})
        out["trace_w_H1"], out["trace_wt_L2"] = trace_space_norms(bundle)
    if wl.probes:
        for which in PROBES:
            out[f"probe_{which}"] = estimate_probe(bundle, data, which,
                                                   weight_beta=2.0,
                                                   space_points=256).ratio
    return out


def item_failures(out: dict) -> list[str]:
    """Reasons one item's outputs are wrong; empty when they pass."""
    reasons = [f"{k} is not finite" for k, v in out.items() if not math.isfinite(v)]
    for k, v in out.items():
        if k.startswith("cross_route_") and not v < CROSS_ROUTE_TOL:
            reasons.append(f"{k} {v:.3e} >= {CROSS_ROUTE_TOL:g}")
        if k.startswith("probe_") and not v > 0:
            reasons.append(f"{k} {v!r} is not positive")
    return reasons


def run_sweeps(seed: int) -> dict:
    """Lopatinskii minima per b; the per-run part of probe-many-small."""
    return {f"lopatinskii_min_b{b:g}": lopatinskii_sweep(
                b, samples=SWEEP_SAMPLES, beta_min=1e-6, seed=seed).minimum
            for b in SWEEP_B}


def run_failures(outputs: list[dict], sweeps: dict | None) -> list[str]:
    """Run-level gates: Lopatinskii minima and the probe max/median spread.

    `outputs` holds one item per scenario, in scenario order; the spread is
    taken over the first PROBE_SPREAD_ITEMS of them.
    """
    reasons = []
    if sweeps is not None:
        for b in SWEEP_B:
            m = sweeps[f"lopatinskii_min_b{b:g}"]
            floor_ok = m >= LOPATINSKII_MIN_B1 if b == 1.0 else m > 0
            if not floor_ok:
                reasons.append(f"Lopatinskii minimum {m:.4f} at b={b:g} below its gate")
    for which in PROBES:
        vals = [o[f"probe_{which}"] for o in outputs[:PROBE_SPREAD_ITEMS]
                if math.isfinite(o.get(f"probe_{which}", math.nan))]
        if vals:
            spread = max(vals) / float(np.median(vals))
            if not spread < PROBE_SPREAD_TOL:
                reasons.append(f"{which} max/median {spread:.2f} >= {PROBE_SPREAD_TOL:g}")
    return reasons


def fingerprint_drift(out: dict, ref: dict) -> list[str]:
    """Fields of `out` that drift from the recorded `ref` beyond 1e-12 relative.

    Cross-route errors are already relative to the solution's sup norm, so a
    1e-12 relative drift of either route moves them by at most about 1e-12:
    they are compared on that absolute scale.  Every other field is compared
    relative to its recorded value.
    """
    drifts = []
    for k, want in ref.items():
        got = out.get(k, math.nan)
        scale = 1.0 if k.startswith("cross_route_") else abs(want)
        if not abs(got - want) <= FINGERPRINT_RTOL * scale:
            drifts.append(f"{k} {got!r} != recorded {want!r}")
    return drifts


def record_fingerprint(wl: Workload) -> dict:
    """Outputs of the first items of FINGERPRINT_SEED, and its sweep minima."""
    basis, grid = wl.basis(), wl.grid()
    rec = {"items": [run_item(wl, basis, grid, scenario_spec(wl, FINGERPRINT_SEED, i))
                     for i in range(wl.fingerprint_items)]}
    if wl.sweep:
        rec["sweeps"] = run_sweeps(FINGERPRINT_SEED)
    return rec
