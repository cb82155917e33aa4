"""Experiment runner: scenario configs, regularity witnesses, reports.

Each runner consumes a ScenarioConfig, produces ReportRow records plus CSV
and JSON artifacts, and never hard-codes a tolerance: every pass/fail row
cites the tolerance it was judged against, taken from the config.  CSV
bodies are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .generators import ScenarioSpec, exact_dirichlet_case, make_boundary, make_scenario
from .modal_oracle import solve_by_modes
from .quadrature import composite_weights, row_chunks
from .reduction import MgtData, MgtParams, solve_mgt
from .spectral import (DomainSpec, EigenBasis, TimeGrid, Trajectory, build_basis, gram_forms,
                       gram_rows, row_forms)
from .symbols import boundary_convolution_probe, estimate_probe, lopatinskii_sweep

# boundary time families that violate the square-integrable-second-derivative
# class and that the routes solve (step data is rejected by ScenarioConfig)
H2_VIOLATING_FAMILIES = ("ramp_kink",)

# the keys of a solve's metadata that a run summary records, from its widest solve
RUN_METADATA = ("mode_groups", "blas_threads")

# the time rate s of the convergence runner's exact Dirichlet solution
EXACT_RATE = 4j


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def _load(tp, raw, path: str):
    """The decoded JSON value raw, checked against the annotation tp.

    A record loads from an object with no unknown keys, field by field, and
    is then built, so its own range checks run; a list is non-empty.  Every
    failure is a ConfigError that names the path.
    """
    if is_dataclass(tp):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must be an object, got {raw!r}")
        hints = typing.get_type_hints(tp)
        unknown = sorted(set(raw) - {f.name for f in fields(tp)})
        if unknown:
            raise ConfigError(f"{path} has unknown keys {unknown}")
        values = {key: _load(hints[key], value, f"{path}.{key}")
                  for key, value in raw.items()}
        try:
            return tp(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    origin = typing.get_origin(tp)
    if origin in (list, tuple):
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError(f"{path} must be a non-empty list, got {raw!r}")
        item = typing.get_args(tp)[0]
        return origin(_load(item, v, f"{path}[{i}]") for i, v in enumerate(raw))
    number = isinstance(raw, numbers.Real) and not isinstance(raw, bool)
    ok = {int: number and isinstance(raw, numbers.Integral),
          float: number and math.isfinite(raw)}.get(tp, type(raw) is tp)
    if not ok:
        want = "a finite float" if tp is float else tp.__name__
        raise ConfigError(f"{path} must be {want}, got {raw!r}")
    return tp(raw)


def _all_positive(record) -> None:
    for f in fields(record):
        value = getattr(record, f.name)
        if min(value if isinstance(value, tuple) else (value,)) <= 0:
            raise ConfigError(f"{f.name} must be positive, got {value!r}")


@dataclass
class Tolerances:
    """The pass/fail thresholds that the judged rows cite."""

    cross_route: float = 1e-6
    interior_stability: float = 0.01
    trace_stability: float = 0.05
    boundary_probe_stability: float = 0.05
    divergence_factor: float = 2.0
    lopatinskii_min: float = 0.5
    probe_spread: float = 10.0
    probe_refinement: float = 0.10
    volterra_order_min: float = 1.8
    oracle_order_min: float = 3.8

    __post_init__ = _all_positive


@dataclass
class SymbolSuite:
    """Knobs of the symbol suite (Lopatinskii sweeps and estimate probes)."""

    b_grid: tuple[float, ...] = (0.25, 1.0, 4.0)
    samples: int = 10000
    beta_min: float = 1e-6
    weight_beta: float = 2.0
    probe_scenarios: int = 100
    probe_modes: int = 16
    probe_steps: int = 400

    def __post_init__(self):
        _all_positive(self)
        if self.samples < 1000:  # lopatinskii_sweep's floor
            raise ConfigError(f"samples must be >= 1000, got {self.samples!r}")


@dataclass
class ScenarioConfig:
    """Declarative description of one experiment suite."""

    domain_kind: str = "interval"
    grid_points_per_axis: int = 1024
    modes: list[int] = field(default_factory=lambda: [32, 64])
    horizon: float = 1.0
    steps: int = 2048  # dt defaults to horizon/2048
    params: MgtParams = field(default_factory=lambda: MgtParams(alpha=2.0, b=1.0, c=1.0))
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    seed: int = 0
    n_scenarios: int = 10
    tolerances: Tolerances = field(default_factory=Tolerances)
    symbol: SymbolSuite = field(default_factory=SymbolSuite)

    def __post_init__(self):
        for key, value, least in (("modes", min(self.modes, default=0), 1),
                                  ("steps", self.steps, 2),
                                  ("n_scenarios", self.n_scenarios, 1),
                                  ("seed", self.seed, 0)):
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)!r}")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be > 0, got {self.horizon!r}")
        if self.scenario.g_family == "step":
            # the jump of g puts a Dirac mass in g_t that both routes drop
            raise ConfigError("config.scenario.g_family 'step' is not solvable: both "
                              "routes drop the Dirac mass of its jump from g_t")
        self.domain()  # the domain checks its own kind and grid size

    @classmethod
    def from_dict(cls, raw) -> "ScenarioConfig":
        """The config that the JSON object raw describes; the only entry point."""
        scenario = raw.get("scenario") if isinstance(raw, dict) else None
        if isinstance(scenario, dict) and "seed" in scenario:
            raise ConfigError("config.scenario.seed is not a key: set the top-level seed")
        return _load(cls, raw, "config")

    def domain(self) -> DomainSpec:
        return DomainSpec(self.domain_kind, self.grid_points_per_axis)

    def scenario_spec(self, seed_shift: int = 0, **overrides) -> ScenarioSpec:
        return replace(self.scenario, seed=self.seed + seed_shift, **overrides)


@dataclass
class ReportRow:
    experiment: str
    level: str
    name: str
    value: float
    reference: float
    tol: float
    passed: bool | None
    note: str = ""


@dataclass
class Report:
    rows: list[ReportRow]
    files: list[str]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def write_rows_csv(path: Path, rows: list[ReportRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "level", "name", "value", "reference",
                         "tol", "passed", "note"])
        for r in rows:
            status = "" if r.passed is None else ("pass" if r.passed else "fail")
            writer.writerow([r.experiment, r.level, r.name, _fmt(r.value),
                             _fmt(r.reference), _fmt(r.tol), status, r.note])


def write_series_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for vals in zip(*columns):
            writer.writerow([_fmt(float(v)) for v in vals])


def write_summary_json(path: Path, summary: dict) -> None:
    """summary as RFC 8259 JSON, each non-finite float written as null."""
    payload = dict(summary)
    payload["metadata"] = dict(payload.get("metadata", {}))
    payload["metadata"]["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, default=float,
                  allow_nan=False)
        fh.write("\n")


def _finite_or_null(value):
    """value with each non-finite float in its dicts, lists and tuples as None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def _finish(experiment: str, prefix: str, out_dir: str | Path, rows: list[ReportRow],
            summary: dict, *series: tuple) -> Report:
    """Write a run's artifacts and list them in its Report.

    Each series is a (file name, header, columns) CSV; the rows go to
    <prefix>_report.csv and the summary, tagged with the experiment, to
    <prefix>_summary.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"experiment": experiment, **summary}
    files = []
    for name, header, columns in series:
        files.append(out / name)
        write_series_csv(files[-1], header, columns)
    files += [out / f"{prefix}_report.csv", out / f"{prefix}_summary.json"]
    write_rows_csv(files[-2], rows)
    write_summary_json(files[-1], summary)
    return Report(rows, [str(f) for f in files])


# -- shared measurement helpers ----------------------------------------------


def norm_series(bundle: Trajectory, n: int, stride: int = 1) -> dict:
    """Grid Sobolev norm time series of (w, w_t, w_tt) plus trace magnitudes.

    The grid norms on the (n+1)-point grid are taken as Gram quadratic forms
    of the zero-trace rows on the strided rows alone (spectral.gram_forms,
    Trajectory.interior), with no grid evaluation.
    """
    basis = bundle.basis
    sel = slice(None, None, stride)
    g0, g1, g2 = gram_forms(basis, n)
    out = {"t": bundle.grid.times[sel]}
    for which, key, gram in (("w", "w_H2", g0 + g1 + g2), ("wt", "wt_H1", g0 + g1),
                             ("wtt", "wtt_L2", g0)):
        edge = bundle.boundary_values(which)
        interior = bundle.interior(which, sel)
        rows = gram_rows(interior, None if edge is None else edge[sel])
        out[key] = np.sqrt(row_forms(rows, gram))
        if which == "w":
            out["w_H2_spectral_interior"] = np.sqrt(
                ((1.0 + basis.eigenvalues) ** 2 * interior**2).sum(axis=1))
    for which in ("w", "wt"):
        out[f"trace_{which}"] = np.linalg.norm(bundle.trace(which).series[sel], axis=1)
    return out


def trace_space_norms(bundle: Trajectory) -> tuple[float, float]:
    """(H^1(Sigma) norm of d_nu w, L^2(Sigma) norm of d_nu w_t).

    The time derivative of the trace of w is the trace of w_t, so no
    differencing enters the H^1 lateral norm.  The time integrals are
    trapezoid weights over the per-time sums, as in the estimate probes.
    """
    weights = composite_weights(bundle.grid.steps, bundle.grid.dt)
    sq_w, sq_wt = (weights @ (bundle.trace(which).series**2).sum(axis=1) for which in ("w", "wt"))
    return float(np.sqrt(sq_w + sq_wt)), float(np.sqrt(sq_wt))


def sup_interior_norms(bundle: Trajectory, n: int, stride: int = 10) -> dict:
    series = norm_series(bundle, n, stride)
    return {key: float(series[key].max()) for key in ("w_H2", "wt_H1", "wtt_L2")}


def _rel_change(new: float, old: float) -> float:
    return abs(new - old) / max(abs(old), 1e-300)


def relative_sup_error(a: np.ndarray, b: np.ndarray) -> float:
    """Relative sup-in-time L2 distance between coefficient trajectories.

    a and b are (rows, modes) arrays of one shape.  The squared row norms
    are summed chunk by chunk (quadrature.row_chunks) in one chunk buffer,
    so no temporary the size of the trajectories is formed, and one square
    root is taken of each running maximum: sqrt is monotone and correctly
    rounded, so this gives the bits of the largest np.linalg.norm of the
    rows.  np.maximum keeps a NaN or inf row in the result.
    """
    if a.shape != b.shape:
        raise ValueError(f"relative_sup_error needs arrays of one shape, got {a.shape} "
                         f"and {b.shape}")
    if not len(b):
        raise ValueError(f"relative_sup_error needs at least one row, got shape {b.shape}")
    chunks = row_chunks(len(b), b.shape[1])
    buf = np.empty((max(rows.stop - rows.start for rows in chunks),) + b.shape[1:])
    num = den = -np.inf
    for rows in chunks:
        sq = np.subtract(a[rows], b[rows], out=buf[:rows.stop - rows.start])
        sq *= sq
        num = np.maximum(num, np.max(np.add.reduce(sq, axis=1)))
        np.multiply(b[rows], b[rows], out=sq)
        den = np.maximum(den, np.max(np.add.reduce(sq, axis=1)))
    return float(np.sqrt(num) / max(np.sqrt(den), 1e-300))


# -- runners ------------------------------------------------------------------


def _interval_only(cfg: ScenarioConfig, command: str, mode_counts: int = 1) -> None:
    """Reject before any solve the square (command's grid norms are 1D) and
    a config with fewer than mode_counts mode counts."""
    if cfg.domain_kind != "interval":
        raise ConfigError(f"{command} is interval-only: its grid norms and normal "
                          f"traces are not implemented on the {cfg.domain_kind}")
    if len(cfg.modes) < mode_counts:
        raise ConfigError(f"{command} needs at least {mode_counts} mode counts")


def run_solve(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Solve one scenario and write the norm time series plus a JSON summary."""
    _interval_only(cfg, "solve")
    params = cfg.params
    basis = build_basis(cfg.domain(), cfg.modes[0])
    grid = TimeGrid(cfg.horizon, cfg.steps)
    data = make_scenario(basis, cfg.scenario_spec())
    bundle = solve_mgt(data, params, grid)
    series = norm_series(bundle, cfg.grid_points_per_axis, stride=1)
    keys = ["t", "w_H2", "wt_H1", "wtt_L2", "w_H2_spectral_interior",
            "trace_w", "trace_wt"]
    rows = [ReportRow("solve", f"N={cfg.modes[0]}", f"sup_{name}",
                      float(series[name].max()), float("nan"),
                      float("nan"), None)
            for name in ("w_H2", "wt_H1", "wtt_L2")]
    summary = {
        "modes": cfg.modes[0],
        "steps": cfg.steps,
        "seed": cfg.seed,
        "basis": {
            "domain": basis.domain.kind,
            "mode_count": basis.mode_count,
            "size": basis.size,
            "eigenvalue_min": float(basis.eigenvalues.min()),
            "eigenvalue_max": float(basis.eigenvalues.max()),
        },
        "sup_norms": {name: float(series[name].max()) for name in keys[1:]},
        "compatible_position": data.compatible_position,
        "compatible_velocity": data.compatible_velocity,
        "metadata": dict(bundle.metadata),
    }
    return _finish("solve", "solve", out_dir, rows, summary,
                   ("solve_series.csv", keys, [series[k] for k in keys]))


def run_regularity_witness(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Refinement-stability witnesses for interior and trace regularity.

    Clause a: interior sup norms stable under mode doubling (smooth data).
    Clause b: H^1 lateral trace norm stable under mode doubling + dt halving.
    Clause c: L^2 lateral norm of d_nu w_t, same refinement.
    Clause d: compatibility violation makes the H^2 sup grow by the
              configured factor per doubling (an expected-divergence row).
    Hypothesis-violating boundary families mark clause b as flagged instead
    of asserting a stability number.
    """
    _interval_only(cfg, "witness", mode_counts=2)
    params = cfg.params
    tol = cfg.tolerances
    n_lo, n_hi = cfg.modes[0], cfg.modes[1]
    npt = cfg.grid_points_per_axis
    grid = TimeGrid(cfg.horizon, cfg.steps)
    grid_fine = TimeGrid(cfg.horizon, 2 * cfg.steps)

    spec = cfg.scenario_spec()
    g_family = spec.g_family
    flagged_boundary = g_family in H2_VIOLATING_FAMILIES
    if flagged_boundary:
        # evaluate the interior clause under a compliant family instead
        spec = cfg.scenario_spec(g_family="trig")

    rows: list[ReportRow] = []
    bundles = {}
    for name, n, g in (("lo", n_lo, grid), ("hi", n_hi, grid), ("hi_fine", n_hi, grid_fine)):
        basis = build_basis(cfg.domain(), n)
        bundles[name] = solve_mgt(make_scenario(basis, spec), params, g)

    sup_lo = sup_interior_norms(bundles["lo"], npt)
    sup_hi = sup_interior_norms(bundles["hi"], npt)
    for key in ("w_H2", "wt_H1", "wtt_L2"):
        change = _rel_change(sup_hi[key], sup_lo[key])
        rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", f"a_interior_{key}",
                              change, 0.0, tol.interior_stability,
                              change < tol.interior_stability))

    h1_lo, l2_lo = trace_space_norms(bundles["lo"])
    h1_hi, l2_hi = trace_space_norms(bundles["hi_fine"])
    if flagged_boundary:
        rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", "b_trace_H1_Sigma",
                              float("nan"), 0.0, tol.trace_stability, None,
                              note=f"flagged: {g_family} violates the H2-in-time hypothesis"))
    else:
        change = _rel_change(h1_hi, h1_lo)
        rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", "b_trace_H1_Sigma",
                              change, 0.0, tol.trace_stability,
                              change < tol.trace_stability))
    change = _rel_change(l2_hi, l2_lo)
    rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", "c_trace_wt_L2_Sigma",
                          change, 0.0, tol.trace_stability,
                          change < tol.trace_stability))

    # clause d: divergence under a compatibility violation
    bad_spec = cfg.scenario_spec(compatible=False)
    sups = []
    for n in (n_lo, n_hi):
        basis = build_basis(cfg.domain(), n)
        bundle = solve_mgt(make_scenario(basis, bad_spec), params, grid)
        sups.append(sup_interior_norms(bundle, npt)["w_H2"])
    growth = sups[1] / max(sups[0], 1e-300)
    rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", "d_incompatible_H2_growth",
                          growth, tol.divergence_factor, tol.divergence_factor,
                          growth >= tol.divergence_factor,
                          note="expected divergence witness"))

    summary = {
        "modes": [n_lo, n_hi],
        "steps": [cfg.steps, cfg.steps * 2],
        "seed": cfg.seed,
        "boundary_family": g_family,
        "boundary_flagged": flagged_boundary,
        "interior_sup_lo": sup_lo,
        "interior_sup_hi": sup_hi,
        "trace_H1": [h1_lo, h1_hi],
        "trace_wt_L2": [l2_lo, l2_hi],
        "incompatible_H2_sups": sups,
        "metadata": {k: bundles["hi"].metadata[k] for k in RUN_METADATA},
    }
    return _finish("witness", "witness", out_dir, rows, summary)


def _observed_orders(errors: list[float]) -> list[float]:
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


def _nested(data: MgtData, basis: EigenBasis) -> tuple[MgtData, typing.Callable]:
    """data on basis, a wider basis of its domain, and the map that puts an
    array of data's mode columns into basis's: each coefficient goes to its
    own mode's column.  The boundary values and g are kept."""
    idx = data.w0.basis.indices - 1
    cols = np.ravel_multi_index(tuple(idx.T), (basis.mode_count,) * idx.shape[1])

    def pad(values):
        out = np.zeros(values.shape[:-1] + (basis.size,))
        out[..., cols] = values
        return out

    changes = {name: replace(part, basis=basis, coeffs=pad(part.coeffs))
               for name, part in (("w0", data.w0), ("w1", data.w1), ("w2", data.w2))}
    if data.f is not None:
        changes["f"] = replace(data.f, modes=lambda t, modes=data.f.modes: pad(modes(t)))
    return replace(data, **changes), pad


def run_convergence(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Observed orders of both routes against an exact Dirichlet solution."""
    params = cfg.params
    tol = cfg.tolerances
    basis = build_basis(cfg.domain(), cfg.modes[0])
    levels = [cfg.steps, cfg.steps * 2, cfg.steps * 4]
    # the RK4 route needs a coarser ladder to stay above the rounding floor
    oracle_levels = [max(50, cfg.steps // 16) * 2**k for k in range(3)]

    data, exact = exact_dirichlet_case(basis, params, EXACT_RATE)
    errors, orders, rows = {}, {}, []
    for name, route, ladder, least in (
            ("volterra", solve_mgt, levels, tol.volterra_order_min),
            ("oracle", solve_by_modes, oracle_levels, tol.oracle_order_min)):
        errs = errors[name] = []
        for steps in ladder:
            grid = TimeGrid(cfg.horizon, steps)
            traj = route(data, params, grid)
            # the worst relative sup error of w, w_t and w_tt
            errs.append(max(relative_sup_error(traj.total(which), ref)
                            for which, ref in zip(("w", "wt", "wtt"), exact(grid.times))))
        orders[name] = _observed_orders(errs)
        rows.append(ReportRow("convergence", "dt-halving", f"{name}_order", min(orders[name]),
                              least, least, min(orders[name]) >= least))

    # degraded order for a non-smooth forcing is reported, not failed
    rough = cfg.scenario_spec(f_family="step", g_family="zero", f_amp=0.5)
    errs_rough = []
    ref_grid = TimeGrid(cfg.horizon, levels[-1] * 4)
    ref = solve_mgt(make_scenario(basis, rough), params, ref_grid)
    for steps in levels:
        grid = TimeGrid(cfg.horizon, steps)
        bundle = solve_mgt(make_scenario(basis, rough), params, grid)
        stride = ref_grid.steps // steps
        errs_rough.append(relative_sup_error(bundle.total("w"),
                                             ref.total("w")[::stride]))
    rows.append(ReportRow("convergence", "dt-halving", "nonsmooth_f_order",
                          min(_observed_orders(errs_rough)), float("nan"),
                          float("nan"), None, note="degraded order reported"))

    # spectral truncation decay with N: each N-mode solution against its own
    # smooth data solved on the 2x-mode basis
    ref_basis = build_basis(cfg.domain(), 2 * max(cfg.modes))
    grid = TimeGrid(cfg.horizon, cfg.steps)
    diffs = []
    for n in cfg.modes:
        data = make_scenario(build_basis(cfg.domain(), n), cfg.scenario_spec())
        ref_data, pad = _nested(data, ref_basis)
        ref_bundle = solve_mgt(ref_data, params, grid)
        diffs.append(relative_sup_error(pad(solve_mgt(data, params, grid).total("w")),
                                        ref_bundle.total("w")))
    decreasing = all(diffs[i + 1] <= diffs[i] + 1e-12 for i in range(len(diffs) - 1))
    rows.append(ReportRow("convergence", f"N={cfg.modes}", "truncation_decay",
                          diffs[-1], diffs[0], float("nan"), decreasing,
                          note="sup-t L2 distance to the 2x-mode reference"))

    summary = {
        "levels": levels,
        "oracle_levels": oracle_levels,
        "exact_rate": [EXACT_RATE.real, EXACT_RATE.imag],
        "exact_driven": ("node" if cfg.domain_kind == "interval" else "edge") + " 0",
        "volterra_errors": errors["volterra"],
        "oracle_errors": errors["oracle"],
        "orders": orders,
        "nonsmooth_errors": errs_rough,
        "truncation_diffs": diffs,
        "metadata": {k: ref_bundle.metadata[k] for k in RUN_METADATA},
    }
    table = ("convergence_errors.csv", ["steps", "volterra_err", "oracle_steps", "oracle_err"],
             [np.array(levels, dtype=float), np.array(errors["volterra"]),
              np.array(oracle_levels, dtype=float), np.array(errors["oracle"])])
    return _finish("convergence", "convergence", out_dir, rows, summary, table)


def run_compare_oracle(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Cross-route agreement over randomized compatible scenarios."""
    params = cfg.params
    tol = cfg.tolerances.cross_route
    basis = build_basis(cfg.domain(), cfg.modes[0])
    grid = TimeGrid(cfg.horizon, cfg.steps)
    rows = []
    worst = 0.0
    for i in range(cfg.n_scenarios):
        data = make_scenario(basis, cfg.scenario_spec(seed_shift=i))
        bundle = solve_mgt(data, params, grid)
        oracle = solve_by_modes(data, params, grid)
        err = max(relative_sup_error(bundle.total("w"), oracle.w),
                  relative_sup_error(bundle.total("wt"), oracle.wt),
                  relative_sup_error(bundle.total("wtt"), oracle.wtt))
        worst = max(worst, err)
        rows.append(ReportRow("compare-oracle", f"scenario{i}", "rel_sup_L2",
                              err, 0.0, tol, err < tol))
    summary = {"n_scenarios": cfg.n_scenarios, "modes": cfg.modes[0],
               "steps": cfg.steps, "worst": worst,
               "metadata": {k: bundle.metadata[k] for k in RUN_METADATA}}
    return _finish("compare-oracle", "compare", out_dir, rows, summary)


def run_symbol_suite(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Lopatinskii sweeps, estimate probes, and the boundary-probe witness."""
    _interval_only(cfg, "symbols", mode_counts=2)
    if cfg.grid_points_per_axis < 32:
        # the probes take grid_points_per_axis // 4 points, and a grid needs 8
        raise ConfigError("symbols needs grid_points_per_axis >= 32, got "
                          f"{cfg.grid_points_per_axis!r}")
    params = cfg.params
    tol = cfg.tolerances
    sym = cfg.symbol

    rows = []
    sweep_rows = []
    for b in sym.b_grid:
        sw = lopatinskii_sweep(b, samples=sym.samples, beta_min=sym.beta_min,
                               seed=cfg.seed)
        sweep_rows.append((b, sw))
        if abs(b - 1.0) < 1e-12:
            # the minimum lies on whole circles: note its smallest beta, not the argmin
            ties = sw.rows[:, 3] <= sw.minimum + 4 * np.spacing(sw.minimum)
            rows.append(ReportRow("symbols", f"b={b}", "lopatinskii_min",
                                  sw.minimum, tol.lopatinskii_min,
                                  tol.lopatinskii_min,
                                  sw.minimum >= tol.lopatinskii_min,
                                  note=f"argmin beta={sw.rows[ties, 1].min():.3e}"))
        else:
            rows.append(ReportRow("symbols", f"b={b}", "lopatinskii_min",
                                  sw.minimum, sw.floor, sw.floor,
                                  sw.minimum > 0.0,
                                  note=f"analytic floor {sw.floor:.4f}"))
    all_rows = np.vstack([sw.rows for _, sw in sweep_rows])
    labels = np.concatenate([np.full(len(sw.rows), b) for b, sw in sweep_rows])
    points = ("lopatinskii_points.csv", ["b", "tau", "beta", "eta", "ratio"],
              [labels, all_rows[:, 0], all_rows[:, 1], all_rows[:, 2], all_rows[:, 3]])

    # estimate probes over randomized compatible scenarios
    basis = build_basis(cfg.domain(), sym.probe_modes)
    grid = TimeGrid(cfg.horizon, sym.probe_steps)
    ratios = {"resolvent_4a": [], "semigroup_10": []}
    for i in range(sym.probe_scenarios):
        data = make_scenario(basis, cfg.scenario_spec(seed_shift=i))
        bundle = solve_mgt(data, params, grid)
        for which in ratios:
            res = estimate_probe(bundle, data, which, weight_beta=sym.weight_beta,
                                 space_points=cfg.grid_points_per_axis // 4)
            ratios[which].append(res.ratio)
    probe_cols = {k: np.array(v) for k, v in ratios.items()}
    probes = ("estimate_probes.csv", ["scenario", "resolvent_4a", "semigroup_10"],
              [np.arange(sym.probe_scenarios, dtype=float),
               probe_cols["resolvent_4a"], probe_cols["semigroup_10"]])
    # the first scenarios again at 2N modes and 2S steps, one solve for both probes
    refine_basis = build_basis(cfg.domain(), sym.probe_modes * 2)
    refine_grid = TimeGrid(cfg.horizon, sym.probe_steps * 2)
    refined = {which: [] for which in probe_cols}
    for i in range(min(8, sym.probe_scenarios)):
        data = make_scenario(refine_basis, cfg.scenario_spec(seed_shift=i))
        bundle = solve_mgt(data, params, refine_grid)
        for which, vals in refined.items():
            vals.append(estimate_probe(bundle, data, which, weight_beta=sym.weight_beta,
                                       space_points=cfg.grid_points_per_axis // 2).ratio)
    # an inf ratio (estimate_probe) makes its spread and drift nan: failing
    # rows, not warnings
    with np.errstate(invalid="ignore"):
        for which, vals in probe_cols.items():
            spread = float(vals.max() / np.median(vals))
            rows.append(ReportRow("symbols", "probe", f"{which}_max_over_median",
                                  spread, tol.probe_spread, tol.probe_spread,
                                  spread < tol.probe_spread))
            drift = max(_rel_change(new, old) for new, old in zip(refined[which], vals))
            rows.append(ReportRow("symbols", "probe", f"{which}_refinement_drift",
                                  float(drift), tol.probe_refinement,
                                  tol.probe_refinement,
                                  drift < tol.probe_refinement))

    # boundary-to-interior probe under an L2-only (step) boundary datum
    probe_changes = _boundary_probe_stability(cfg)
    rows.append(ReportRow("symbols", f"N{cfg.modes[0]}->N{cfg.modes[1]}",
                          "boundary_probe_stability", probe_changes,
                          tol.boundary_probe_stability,
                          tol.boundary_probe_stability,
                          probe_changes < tol.boundary_probe_stability,
                          note="step-in-time Dirichlet datum"))

    summary = {
        "b_grid": list(sym.b_grid),
        "sweep_minima": {str(b): sw.minimum for b, sw in sweep_rows},
        "sweep_floors": {str(b): sw.floor for b, sw in sweep_rows},
        "probe_medians": {k: float(np.median(v)) for k, v in probe_cols.items()},
        "probe_max": {k: float(v.max()) for k, v in probe_cols.items()},
        "boundary_probe_change": probe_changes,
        "metadata": {k: bundle.metadata[k] for k in RUN_METADATA},  # a 2N-mode solve
    }
    return _finish("symbols", "symbols", out_dir, rows, summary, points, probes)


def _boundary_probe_stability(cfg: ScenarioConfig) -> float:
    """Mode-refinement change of the step-datum boundary convolution series."""
    params = cfg.params
    grid = TimeGrid(cfg.horizon, cfg.steps)
    spec = cfg.scenario_spec(g_family="step", g_amp=1.0, g_offset=0.0)
    sups = []
    for n in cfg.modes[:2]:
        basis = build_basis(cfg.domain(), n)
        g = make_boundary(spec, basis.domain.boundary_size).sample(grid)
        probe = boundary_convolution_probe(basis, np.sqrt(params.b), g, grid)
        sups.append(float(np.max(probe)))
    return _rel_change(sups[1], sups[0])
