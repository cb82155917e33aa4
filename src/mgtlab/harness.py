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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .generators import ScenarioSpec, make_scenario, manufactured_mode_case
from .modal_oracle import solve_by_modes
from .quadrature import row_chunks
from .reduction import MgtParams, SolutionBundle, solve_mgt
from .spectral import DomainSpec, TimeGrid, build_basis, gram_forms, gram_rows, row_forms
from .symbols import estimate_probe, lopatinskii_sweep
from .cosine import boundary_convolution_probe

DEFAULT_TOLERANCES = {
    "cross_route": 1e-6,
    "interior_stability": 0.01,
    "trace_stability": 0.05,
    "boundary_probe_stability": 0.05,
    "divergence_factor": 2.0,
    "lopatinskii_min": 0.5,
    "probe_spread": 10.0,
    "probe_refinement": 0.10,
    "volterra_order_min": 1.8,
    "oracle_order_min": 3.8,
    "residual_order_min": 1.0,
}

# knobs of the symbol suite (Lopatinskii sweeps and estimate probes)
DEFAULT_SYMBOL = {
    "b_grid": (0.25, 1.0, 4.0),
    "samples": 10000,
    "beta_min": 1e-6,
    "weight_beta": 2.0,
    "probe_scenarios": 100,
    "probe_modes": 16,
    "probe_steps": 400,
}

# time families that violate the square-integrable-second-derivative class
H2_VIOLATING_FAMILIES = ("ramp_kink", "step")


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def _positive(value, kind=numbers.Real) -> bool:
    """A finite number > 0 of the given kind (a bool is not a number here)."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _check_symbol_value(key: str, value) -> None:
    """Reject a symbol-suite value whose type differs from its default's."""
    default = DEFAULT_SYMBOL[key]
    if isinstance(default, tuple):
        ok = (isinstance(value, (list, tuple)) and len(value) > 0
              and all(_positive(b) for b in value))
        want = "a non-empty list of positive numbers"
    elif isinstance(default, int):
        ok, want = _positive(value, numbers.Integral), "a positive int"
    else:
        ok, want = _positive(value), "a positive number"
    if not ok:
        raise ConfigError(f"symbol key {key!r} must be {want}, got {value!r}")


@dataclass
class ScenarioConfig:
    """Declarative description of one experiment suite."""

    domain_kind: str = "interval"
    grid_points_per_axis: int = 1024
    modes: list[int] = field(default_factory=lambda: [32, 64])
    horizon: float = 1.0
    steps: int = 2048  # dt defaults to horizon/2048
    params: dict = field(default_factory=lambda: {"alpha": 2.0, "b": 1.0, "c": 1.0})
    scenario: dict = field(default_factory=dict)
    seed: int = 0
    n_scenarios: int = 10
    tolerances: dict = field(default_factory=dict)
    symbol: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.modes or any(int(n) < 1 for n in self.modes):
            raise ConfigError("modes must be a nonempty list of positive ints")
        if self.horizon <= 0:
            raise ConfigError("need horizon > 0")
        for key, least in (("steps", 2), ("n_scenarios", 1)):
            value = getattr(self, key)
            if not (_positive(value, numbers.Integral) and value >= least):
                raise ConfigError(f"{key} must be an int >= {least}, got {value!r}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerances: {sorted(unknown)}")
        merged = dict(DEFAULT_TOLERANCES)
        merged.update(self.tolerances)
        if any(v <= 0 for v in merged.values()):
            raise ConfigError("tolerances must be positive")
        self.tolerances = merged
        unknown = set(self.symbol) - set(DEFAULT_SYMBOL)
        if unknown:
            raise ConfigError(f"unknown symbol keys: {sorted(unknown)}")
        for key, value in self.symbol.items():
            _check_symbol_value(key, value)
        self.symbol = {**DEFAULT_SYMBOL, **self.symbol}
        self.modes = [int(n) for n in self.modes]
        try:  # the domain, the constants and the scenario check their own values
            self.domain()
            self.mgt_params()
            self.scenario_spec()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:  # e.g. a string where a number belongs
            raise ConfigError(f"invalid config value: {exc}") from exc

    def mgt_params(self) -> MgtParams:
        return MgtParams(**self.params)

    def domain(self) -> DomainSpec:
        return DomainSpec(self.domain_kind, self.grid_points_per_axis)

    def scenario_spec(self, seed_shift: int = 0, **overrides) -> ScenarioSpec:
        raw = dict(self.scenario)
        raw.update(overrides)
        raw.setdefault("seed", self.seed)
        raw["seed"] = int(raw["seed"]) + seed_shift
        return ScenarioSpec.from_dict(raw)


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


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


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
    payload = dict(summary)
    payload["metadata"] = dict(payload.get("metadata", {}))
    payload["metadata"]["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


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


def norm_series(bundle: SolutionBundle, n: int, stride: int = 1) -> dict:
    """Grid Sobolev norm time series of (w, w_t, w_tt) plus trace magnitudes.

    The grid norms on the (n+1)-point grid are taken as Gram quadratic forms
    of the coefficient rows (spectral.gram_forms), with no grid evaluation.
    """
    basis = bundle.basis
    sel = slice(None, None, stride)
    g0, g1, g2 = gram_forms(basis, n)
    out = {"t": bundle.grid.times[sel]}
    for which, key, gram in (("w", "w_H2", g0 + g1 + g2), ("wt", "wt_H1", g0 + g1),
                             ("wtt", "wtt_L2", g0)):
        edge = bundle.boundary_values(which)
        rows = gram_rows(bundle.interior(which)[sel], None if edge is None else edge[sel])
        out[key] = np.sqrt(row_forms(rows, gram))
    out["w_H2_spectral_interior"] = np.sqrt(
        ((1.0 + basis.eigenvalues) ** 2 * bundle.w[sel] ** 2).sum(axis=1))
    for which in ("w", "wt"):
        out[f"trace_{which}"] = np.linalg.norm(bundle.trace(which).series[sel], axis=1)
    return out


def trace_space_norms(bundle: SolutionBundle) -> tuple[float, float]:
    """(H^1(Sigma) norm of d_nu w, L^2(Sigma) norm of d_nu w_t).

    The time derivative of the trace of w is the trace of w_t, so no
    differencing enters the H^1 lateral norm.
    """
    dt = bundle.grid.dt
    sq = lambda arr: np.trapezoid((arr**2).sum(axis=1), dx=dt)
    trace_w, trace_wt = bundle.trace("w").series, bundle.trace("wt").series
    h1 = float(np.sqrt(sq(trace_w) + sq(trace_wt)))
    l2 = float(np.sqrt(sq(trace_wt)))
    return h1, l2


def sup_interior_norms(bundle: SolutionBundle, n: int, stride: int = 10) -> dict:
    series = norm_series(bundle, n, stride)
    return {
        "w_H2": float(series["w_H2"].max()),
        "wt_H1": float(series["wt_H1"].max()),
        "wtt_L2": float(series["wtt_L2"].max()),
    }


def _rel_change(new: float, old: float) -> float:
    return abs(new - old) / max(abs(old), 1e-300)


def relative_sup_error(a: np.ndarray, b: np.ndarray) -> float:
    """Relative sup-in-time L2 distance between coefficient trajectories.

    The row norms are taken chunk by chunk (quadrature.row_chunks), so no
    temporary the size of the trajectories is formed; np.maximum keeps a
    NaN or inf row in the result.
    """
    num = den = -np.inf
    for rows in row_chunks(len(b), b.shape[1]):
        num = np.maximum(num, np.max(np.linalg.norm(a[rows] - b[rows], axis=1)))
        den = np.maximum(den, np.max(np.linalg.norm(b[rows], axis=1)))
    return float(num / max(den, 1e-300))


def discrete_equation_residual(bundle: SolutionBundle) -> float:
    """Sup-t L2 residual of w_ttt + alpha w_tt - c^2 Lap w - b Lap w_t - f.

    One-sided (backward) differencing of w_tt supplies the third derivative,
    so the residual decays at first order in dt.
    """
    params = bundle.params
    basis = bundle.basis
    grid = bundle.grid
    mu = basis.eigenvalues
    w = bundle.total("w")
    wt = bundle.total("wt")
    wtt = bundle.total("wtt")
    dt = grid.dt
    wttt = (wtt[1:] - wtt[:-1]) / dt
    tail = slice(1, grid.steps + 1)
    flux = basis.boundary_flux()
    q = bundle.boundary.values @ flux
    qd = bundle.boundary.dvalues @ flux
    rhs = -params.c**2 * q - params.b * qd + bundle.f_samples
    resid = (wttt + params.alpha * wtt[tail] + params.b * mu * wt[tail]
             + params.c**2 * mu * w[tail] - rhs[tail])
    return float(np.max(np.linalg.norm(resid, axis=1)))


# -- runners ------------------------------------------------------------------


def _interval_only(cfg: ScenarioConfig, command: str) -> None:
    """Reject the square before any solve: command's grid norms are 1D."""
    if cfg.domain_kind != "interval":
        raise ConfigError(f"{command} is interval-only: its grid norms and normal "
                          f"traces are not implemented on the {cfg.domain_kind}")


def run_solve(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Solve one scenario and write the norm time series plus a JSON summary."""
    _interval_only(cfg, "solve")
    params = cfg.mgt_params()
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
    _interval_only(cfg, "witness")
    if len(cfg.modes) < 2:
        raise ConfigError("witness needs at least two mode counts")
    params = cfg.mgt_params()
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
                              change, 0.0, tol["interior_stability"],
                              change < tol["interior_stability"]))

    h1_lo, l2_lo = trace_space_norms(bundles["lo"])
    h1_hi, l2_hi = trace_space_norms(bundles["hi_fine"])
    if flagged_boundary:
        rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", "b_trace_H1_Sigma",
                              float("nan"), 0.0, tol["trace_stability"], None,
                              note=f"flagged: {g_family} violates the H2-in-time hypothesis"))
    else:
        change = _rel_change(h1_hi, h1_lo)
        rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", "b_trace_H1_Sigma",
                              change, 0.0, tol["trace_stability"],
                              change < tol["trace_stability"]))
    change = _rel_change(l2_hi, l2_lo)
    rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", "c_trace_wt_L2_Sigma",
                          change, 0.0, tol["trace_stability"],
                          change < tol["trace_stability"]))

    # clause d: divergence under a compatibility violation
    bad_spec = cfg.scenario_spec(compatible=False)
    sups = []
    for n in (n_lo, n_hi):
        basis = build_basis(cfg.domain(), n)
        bundle = solve_mgt(make_scenario(basis, bad_spec), params, grid)
        sups.append(sup_interior_norms(bundle, npt)["w_H2"])
    growth = sups[1] / max(sups[0], 1e-300)
    rows.append(ReportRow("witness", f"N{n_lo}->N{n_hi}", "d_incompatible_H2_growth",
                          growth, tol["divergence_factor"], tol["divergence_factor"],
                          growth >= tol["divergence_factor"],
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
    }
    return _finish("witness", "witness", out_dir, rows, summary)


def _observed_orders(errors: list[float]) -> list[float]:
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


def run_convergence(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Observed orders on a manufactured smooth solution, plus residual decay."""
    params = cfg.mgt_params()
    tol = cfg.tolerances
    basis = build_basis(cfg.domain(), cfg.modes[0])
    levels = [cfg.steps, cfg.steps * 2, cfg.steps * 4]
    # the RK4 route needs a coarser ladder to stay above the rounding floor
    oracle_levels = [max(50, cfg.steps // 16) * 2**k for k in range(3)]

    errs_volterra, errs_oracle, resids = [], [], []
    for steps, osteps in zip(levels, oracle_levels):
        grid = TimeGrid(cfg.horizon, steps)
        data, exact = manufactured_mode_case(basis, params, mode=0, freq=1.0)
        exact_w = exact(grid.times)[0]
        bundle = solve_mgt(data, params, grid)
        errs_volterra.append(float(np.max(np.abs(bundle.total("w")[:, 0] - exact_w))))
        ogrid = TimeGrid(cfg.horizon, osteps)
        exact_o = exact(ogrid.times)[0]
        oracle = solve_by_modes(data, params, ogrid)
        errs_oracle.append(float(np.max(np.abs(oracle.w[:, 0] - exact_o))))
        resids.append(discrete_equation_residual(bundle))

    orders_v = _observed_orders(errs_volterra)
    orders_o = _observed_orders(errs_oracle)
    orders_r = _observed_orders(resids)
    rows = [
        ReportRow("convergence", "dt-halving", "volterra_order", min(orders_v),
                  tol["volterra_order_min"], tol["volterra_order_min"],
                  min(orders_v) >= tol["volterra_order_min"]),
        ReportRow("convergence", "dt-halving", "oracle_order", min(orders_o),
                  tol["oracle_order_min"], tol["oracle_order_min"],
                  min(orders_o) >= tol["oracle_order_min"]),
        ReportRow("convergence", "dt-halving", "residual_order", min(orders_r),
                  tol["residual_order_min"], tol["residual_order_min"],
                  min(orders_r) >= tol["residual_order_min"]),
    ]

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

    # spectral truncation decay with N for fixed smooth data
    ref_n = 2 * max(cfg.modes)
    ref_basis = build_basis(cfg.domain(), ref_n)
    grid = TimeGrid(cfg.horizon, cfg.steps)
    spec = cfg.scenario_spec()
    ref_bundle = solve_mgt(make_scenario(ref_basis, spec), params, grid)
    ref_w = ref_bundle.total("w")
    diffs = []
    for n in cfg.modes:
        bundle = solve_mgt(make_scenario(build_basis(cfg.domain(), n), spec),
                           params, grid)
        # each coefficient goes to its own mode's column of the 2x-mode reference
        idx = bundle.basis.indices - 1
        cols = np.ravel_multi_index(tuple(idx.T), (ref_n,) * idx.shape[1])
        padded = np.zeros_like(ref_w)
        padded[:, cols] = bundle.total("w")
        diffs.append(relative_sup_error(padded, ref_w))
    decreasing = all(diffs[i + 1] <= diffs[i] + 1e-12 for i in range(len(diffs) - 1))
    rows.append(ReportRow("convergence", f"N={cfg.modes}", "truncation_decay",
                          diffs[-1], diffs[0], float("nan"), decreasing,
                          note="sup-t L2 distance to the 2x-mode reference"))

    summary = {
        "levels": levels,
        "volterra_errors": errs_volterra,
        "oracle_errors": errs_oracle,
        "residuals": resids,
        "orders": {"volterra": orders_v, "oracle": orders_o, "residual": orders_r},
        "nonsmooth_errors": errs_rough,
        "truncation_diffs": diffs,
    }
    errors = ("convergence_errors.csv", ["steps", "volterra_err", "oracle_err", "residual"],
              [np.array(levels, dtype=float), np.array(errs_volterra),
               np.array(errs_oracle), np.array(resids)])
    return _finish("convergence", "convergence", out_dir, rows, summary, errors)


def run_compare_oracle(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Cross-route agreement over randomized compatible scenarios."""
    params = cfg.mgt_params()
    tol = cfg.tolerances["cross_route"]
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
               "steps": cfg.steps, "worst": worst}
    return _finish("compare-oracle", "compare", out_dir, rows, summary)


def run_symbol_suite(cfg: ScenarioConfig, out_dir: str | Path) -> Report:
    """Lopatinskii sweeps, estimate probes, and the boundary-probe witness."""
    _interval_only(cfg, "symbols")
    params = cfg.mgt_params()
    tol = cfg.tolerances
    sym = cfg.symbol
    b_grid = sym["b_grid"]
    samples = int(sym["samples"])
    beta_min = float(sym["beta_min"])
    weight_beta = float(sym["weight_beta"])
    n_probe = int(sym["probe_scenarios"])
    probe_modes = int(sym["probe_modes"])
    probe_steps = int(sym["probe_steps"])

    rows = []
    sweep_rows = []
    for b in b_grid:
        sw = lopatinskii_sweep(float(b), samples=samples, beta_min=beta_min,
                               seed=cfg.seed)
        sweep_rows.append((b, sw))
        if abs(float(b) - 1.0) < 1e-12:
            rows.append(ReportRow("symbols", f"b={b}", "lopatinskii_min",
                                  sw.minimum, tol["lopatinskii_min"],
                                  tol["lopatinskii_min"],
                                  sw.minimum >= tol["lopatinskii_min"],
                                  note=f"argmin beta={sw.argmin.weight_beta:.3e}"))
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
    basis = build_basis(cfg.domain(), probe_modes)
    grid = TimeGrid(cfg.horizon, probe_steps)
    ratios = {"resolvent_4a": [], "semigroup_10": []}
    for i in range(n_probe):
        data = make_scenario(basis, cfg.scenario_spec(seed_shift=i))
        bundle = solve_mgt(data, params, grid)
        for which in ratios:
            res = estimate_probe(bundle, data, which, weight_beta=weight_beta,
                                 space_points=cfg.grid_points_per_axis // 4)
            ratios[which].append(res.ratio)
    probe_cols = {k: np.array(v) for k, v in ratios.items()}
    probes = ("estimate_probes.csv", ["scenario", "resolvent_4a", "semigroup_10"],
              [np.arange(n_probe, dtype=float),
               probe_cols["resolvent_4a"], probe_cols["semigroup_10"]])
    # the first scenarios again at 2N modes and 2S steps, one solve for both probes
    refine_basis = build_basis(cfg.domain(), probe_modes * 2)
    refine_grid = TimeGrid(cfg.horizon, probe_steps * 2)
    drifts = {which: [] for which in probe_cols}
    for i in range(min(8, n_probe)):
        data = make_scenario(refine_basis, cfg.scenario_spec(seed_shift=i))
        bundle = solve_mgt(data, params, refine_grid)
        for which, vals in probe_cols.items():
            res = estimate_probe(bundle, data, which, weight_beta=weight_beta,
                                 space_points=cfg.grid_points_per_axis // 2)
            drifts[which].append(_rel_change(res.ratio, vals[i]))
    for which, vals in probe_cols.items():
        spread = float(vals.max() / np.median(vals))
        rows.append(ReportRow("symbols", "probe", f"{which}_max_over_median",
                              spread, tol["probe_spread"], tol["probe_spread"],
                              spread < tol["probe_spread"]))
        drift = max(drifts[which])
        rows.append(ReportRow("symbols", "probe", f"{which}_refinement_drift",
                              float(drift), tol["probe_refinement"],
                              tol["probe_refinement"],
                              drift < tol["probe_refinement"]))

    # boundary-to-interior probe under an L2-only (step) boundary datum
    probe_changes = _boundary_probe_stability(cfg)
    rows.append(ReportRow("symbols", f"N{cfg.modes[0]}->N{cfg.modes[1]}",
                          "boundary_probe_stability", probe_changes,
                          tol["boundary_probe_stability"],
                          tol["boundary_probe_stability"],
                          probe_changes < tol["boundary_probe_stability"],
                          note="step-in-time Dirichlet datum"))

    summary = {
        "b_grid": list(b_grid),
        "sweep_minima": {str(b): sw.minimum for b, sw in sweep_rows},
        "sweep_floors": {str(b): sw.floor for b, sw in sweep_rows},
        "probe_medians": {k: float(np.median(v)) for k, v in probe_cols.items()},
        "probe_max": {k: float(v.max()) for k, v in probe_cols.items()},
        "boundary_probe_change": probe_changes,
    }
    return _finish("symbols", "symbols", out_dir, rows, summary, points, probes)


def _boundary_probe_stability(cfg: ScenarioConfig) -> float:
    """Mode-refinement change of the step-datum boundary convolution series."""
    from .generators import make_boundary

    params = cfg.mgt_params()
    grid = TimeGrid(cfg.horizon, cfg.steps)
    spec = cfg.scenario_spec(g_family="step", g_amp=1.0, g_offset=0.0)
    sups = []
    for n in cfg.modes[:2]:
        basis = build_basis(cfg.domain(), n)
        g = make_boundary(spec, basis.domain.boundary_size).sample(grid)
        probe = boundary_convolution_probe(basis, np.sqrt(params.b), g, grid)
        sups.append(float(np.max(probe)))
    return _rel_change(sups[1], sups[0])
