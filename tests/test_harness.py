"""Config validation, runners, CSV determinism, CLI exit codes."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtlab import harness
from mgtlab.cli import main
from mgtlab.generators import make_scenario
from mgtlab.harness import (
    ConfigError,
    ScenarioConfig,
    relative_sup_error,
    run_compare_oracle,
    run_convergence,
    run_regularity_witness,
    run_solve,
    run_symbol_suite,
)
from mgtlab.quadrature import CHUNK_ELEMENTS, row_chunks
from mgtlab.spectral import BoundarySignal, DomainSpec, TimeGrid, Trajectory, build_basis


def small_config(**overrides):
    base = dict(
        grid_points_per_axis=256,
        modes=[8, 16],
        horizon=0.5,
        steps=200,
        seed=0,
        scenario={"active_modes": 4},
    )
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"modes": []})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"steps": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"domain_kind": "torus"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"tolerances": {"cross_route": -1.0}})
    with pytest.raises(ConfigError, match="cross_rout"):
        ScenarioConfig.from_dict({"tolerances": {"cross_rout": 1e-3}})


def test_config_rejects_unknown_symbol_keys(tmp_path):
    # a misspelled symbol-suite key is an error, not a silent default
    with pytest.raises(ConfigError, match="probe_scenaros.*sampels"):
        ScenarioConfig.from_dict({"symbol": {"sampels": 1000, "probe_scenaros": 3}})
    assert ScenarioConfig.from_dict({"symbol": {"samples": 5000}}).symbol.samples == 5000
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"symbol": {"sampels": 1000}}))
    code = main(["symbols", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("symbol", [
    {"samples": "abc"}, {"samples": 0}, {"samples": 100.0}, {"samples": True},
    {"probe_scenarios": -3}, {"probe_modes": 1.5}, {"probe_steps": None},
    {"b_grid": []}, {"b_grid": 1.0}, {"b_grid": [1.0, "x"]}, {"b_grid": [0.25, -1.0]},
    {"beta_min": 0.0}, {"beta_min": "1e-6"}, {"weight_beta": -2.0},
    {"weight_beta": float("nan")},
])
def test_config_rejects_mistyped_symbol_values(tmp_path, symbol):
    # a mistyped symbol-suite value is a config error (exit 2), not a failed run
    key = next(iter(symbol))
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig.from_dict({"symbol": symbol})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"symbol": symbol}))
    code = main(["symbols", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_config_accepts_well_typed_symbol_values():
    cfg = ScenarioConfig.from_dict({"symbol": {
        "b_grid": [0.5, 2], "beta_min": 1, "weight_beta": 2.5,
        "samples": np.int64(2000), "probe_steps": 40}})
    assert cfg.symbol.b_grid == (0.5, 2.0) and cfg.symbol.samples == 2000


def test_config_from_json_rejects_unknown_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modez": [4]}))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(json.loads(path.read_text()))


@pytest.mark.parametrize("raw", [{"modes": ["a"]}, {"steps": "100"},
                                 {"tolerances": {"cross_route": "x"}}])
def test_config_from_json_rejects_mistyped_values(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(json.loads(path.read_text()))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_config_from_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modes": [4, 8], "steps": 64, "horizon": 0.25}))
    cfg = ScenarioConfig.from_dict(json.loads(path.read_text()))
    assert cfg.modes == [4, 8]
    assert cfg.tolerances.cross_route == 1e-6


def test_run_solve_writes_series_and_summary(tmp_path):
    report = run_solve(small_config(), tmp_path)
    assert (tmp_path / "solve_series.csv").exists()
    summary = json.loads((tmp_path / "solve_summary.json").read_text())
    assert summary["sup_norms"]["w_H2"] > 0
    # the solve's metadata, then the flags of the traces that the series took
    assert summary["metadata"].keys() == {
        "compatible_position", "compatible_velocity", "mode_groups", "blas_threads",
        "trace_w_converged", "trace_wt_converged", "generated_at"}
    assert summary["metadata"]["trace_w_converged"] in (True, False)
    assert summary["metadata"]["trace_wt_converged"] in (True, False)
    assert summary["metadata"]["mode_groups"] == 1
    assert summary["metadata"]["blas_threads"] is None or summary["metadata"]["blas_threads"] >= 1
    assert report.all_passed  # informational rows only


def test_run_solve_zero_scenario_all_zero(tmp_path):
    cfg = small_config(scenario={"w0_amp": 0.0, "w1_amp": 0.0, "w2_amp": 0.0,
                                 "f_family": "zero", "g_family": "zero"})
    report = run_solve(cfg, tmp_path)
    assert all(row.value == 0.0 for row in report.rows)


def test_symbol_suite_solves_each_scenario_once(monkeypatch, tmp_path):
    # the golden symbols config: 8 probe scenarios at 40 steps, and the same
    # 8 refined to 80 steps serve both probe kinds
    from test_golden import BASE, CASES

    runner, overrides = CASES["symbols"]
    solve, steps = harness.solve_mgt, []

    def counting(data, params, grid):
        steps.append(grid.steps)
        return solve(data, params, grid)

    monkeypatch.setattr(harness, "solve_mgt", counting)
    runner(ScenarioConfig.from_dict({**BASE, **overrides}), tmp_path)
    assert sorted(steps) == [40] * 8 + [80] * 8


def test_run_witness_flags_kinked_boundary(tmp_path):
    cfg = small_config(modes=[16, 32], steps=250,
                       scenario={"g_family": "ramp_kink"})
    report = run_regularity_witness(cfg, tmp_path)
    flagged = [r for r in report.rows if r.name == "b_trace_H1_Sigma"]
    assert flagged[0].passed is None
    assert "flagged" in flagged[0].note


def test_run_witness_needs_two_mode_counts(tmp_path):
    with pytest.raises(ConfigError):
        run_regularity_witness(small_config(modes=[16]), tmp_path)


def test_symbols_needs_two_mode_counts_before_any_work(monkeypatch, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep ran before the mode counts were checked")

    monkeypatch.setattr(harness, "lopatinskii_sweep", no_work)
    monkeypatch.setattr(harness, "solve_mgt", no_work)
    cfg = ScenarioConfig.from_dict({"modes": [4], "steps": 20, "grid_points_per_axis": 64})
    with pytest.raises(ConfigError, match="symbols needs at least 2 mode counts"):
        run_symbol_suite(cfg, tmp_path / "o")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modes": [4], "steps": 20, "grid_points_per_axis": 64}))
    assert main(["symbols", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_run_compare_oracle_rows(tmp_path):
    cfg = small_config(modes=[8], steps=4000, horizon=0.5, n_scenarios=2)
    report = run_compare_oracle(cfg, tmp_path)
    assert len(report.rows) == 2
    assert report.all_passed


def test_csv_bodies_deterministic(tmp_path):
    cfg = small_config()
    run_solve(cfg, tmp_path / "a")
    run_solve(cfg, tmp_path / "b")
    body_a = (tmp_path / "a" / "solve_series.csv").read_bytes()
    body_b = (tmp_path / "b" / "solve_series.csv").read_bytes()
    assert body_a == body_b


def test_rows_cite_config_tolerances(tmp_path):
    cfg = small_config(modes=[16, 32], steps=250,
                       tolerances={"interior_stability": 0.123})
    report = run_regularity_witness(cfg, tmp_path)
    interior = [r for r in report.rows if r.name.startswith("a_interior")]
    assert all(r.tol == 0.123 for r in interior)


def test_cli_exit_codes(tmp_path, capsys):
    cfg = {"modes": [8], "steps": 2000, "horizon": 0.25,
           "grid_points_per_axis": 256, "n_scenarios": 1,
           "scenario": {"active_modes": 4}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["compare-oracle", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    # unreadable config file -> invalid-config status
    code = main(["solve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out2")])
    assert code == 2

    # failing tolerance -> nonzero status with fail rows
    path.write_text(json.dumps({**cfg, "tolerances": {"cross_route": 1e-12}}))
    code = main(["compare-oracle", "--config", str(path),
                 "--out", str(tmp_path / "out3")])
    assert code == 1


def test_cli_bad_tolerance_name(tmp_path):
    # a misspelled name in a config file is rejected, not silently ignored
    path = tmp_path / "cfg.json"
    for name in ("nope", "cross_rout"):
        path.write_text(json.dumps({"tolerances": {name: 1e-3}}))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--modes", "8"], ["--dt", "0.005"], ["--seed", "1"],
                                   ["--tol", "cross_route=1e-3"]])
def test_cli_takes_no_config_override_flags(tmp_path, capsys, flags):
    # the config file is the one way to set a config value
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--out", str(tmp_path / "o"), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,raw", [
    ("solve", {"scenario": {"g_family": "nope"}}),
    ("solve", {"grid_points_per_axis": 4}),
    ("compare-oracle", {"n_scenarios": "3"}),
    ("compare-oracle", {"n_scenarios": 0}),
    # each of these loaded (and ran some other config, or failed inside a run)
    # before every value was checked against its field's type
    ("solve", {"modes": [4.7]}), ("solve", {"modes": [True]}),
    ("solve", {"seed": 1.5}), ("solve", {"seed": -1}),
    ("solve", {"scenario": {"g_amp": "x"}}), ("solve", {"scenario": {"compatible": "no"}}),
    ("solve", {"scenario": {"active_modes": 2.5}}), ("solve", {"grid_points_per_axis": 100.5}),
    ("solve", {"params": {"alpha": float("nan"), "b": 1.0, "c": 1.0}}),
    ("solve", {"params": {"alpha": "2", "b": 1.0, "c": 1.0}}),
    ("solve", {"horizon": float("inf")}), ("solve", {"horizon": "1"}),
    ("solve", {"tolerances": {"cross_route": float("nan")}}),
    ("solve", {"tolerances": {"cross_route": "x"}}),
    ("compare-oracle", {"n_scenarios": True}),
    # loaded, then failed inside the run (exit 1) before ScenarioSpec's range checks
    ("solve", {"scenario": {"active_modes": -1}}),
    # once passed as command-line flags, now set in the config file alone
    ("solve", {"modes": [0]}), ("solve", {"modes": [-3, 4]}), ("solve", {"modes": []}),
    ("solve", {"tolerances": {"cross_route": 0}}),
])
def test_cli_rejects_invalid_config_at_load(tmp_path, command, raw):
    # caught before any work: exit 2 and no error record, never a failed run
    # or a gate that passes on no rows
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modes": [4], "steps": 20, "grid_points_per_axis": 64,
                                **raw}))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(json.loads(path.read_text()))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o" / "error.json").exists()


@pytest.mark.parametrize("command", ["solve", "witness", "compare-oracle",
                                     "convergence", "symbols"])
def test_cli_rejects_step_dirichlet_data(tmp_path, capsys, command):
    # both routes drop the Dirac mass of a step in g_t: exit 2 before any solve
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modes": [4, 8], "steps": 20, "grid_points_per_axis": 64,
                                "scenario": {"g_family": "step"}}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config.scenario.g_family" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_non_finite_solve_writes_record(tmp_path):
    # gamma = 1 at T = 2000: the exponential transform overflows
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modes": [4], "horizon": 2000.0, "steps": 2000,
                                "grid_points_per_axis": 64}))
    with np.errstate(all="ignore"):
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    record = json.loads((tmp_path / "o" / "error.json").read_text())
    assert record["error"] == "FloatingPointError"
    assert "non-finite w" in record["message"]


def test_cli_symbols_without_boundary_data_or_forcing(tmp_path):
    # resolvent_4a's ratio is inf on every scenario: its rows fail, and the
    # run still writes its report, with no error record
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "modes": [6, 12], "steps": 100, "horizon": 0.5, "grid_points_per_axis": 128,
        "scenario": {"g_family": "zero", "f_family": "zero"},
        "symbol": {"b_grid": [1.0], "samples": 1000, "probe_scenarios": 4,
                   "probe_modes": 4, "probe_steps": 40}}))
    code = main(["symbols", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert not (tmp_path / "o" / "error.json").exists()
    rows = csv.DictReader((tmp_path / "o" / "symbols_report.csv").read_text().splitlines())
    probe = {row["name"]: row["passed"] for row in rows if row["level"] == "probe"}
    assert probe["resolvent_4a_max_over_median"] == probe["resolvent_4a_refinement_drift"] == "fail"
    assert probe["semigroup_10_max_over_median"] == "pass"
    ratios = list(csv.DictReader((tmp_path / "o" / "estimate_probes.csv").read_text()
                                 .splitlines()))
    assert {row["resolvent_4a"] for row in ratios} == {"inf"}
    assert all(math.isfinite(float(row["semigroup_10"])) for row in ratios)


def test_cli_unstable_oracle_writes_record(tmp_path):
    # RK4 at dt = 0.1 leaves its stability region on 64 modes: exit 1 with an
    # error record, never a nan row (a numpy warning would be the record here)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modes": [64], "steps": 100, "horizon": 10.0,
                                "n_scenarios": 1}))
    code = main(["compare-oracle", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    record = json.loads((tmp_path / "o" / "error.json").read_text())
    assert record["error"] == "FloatingPointError"
    assert record["message"].startswith("RK4 oracle: non-finite state from t = ")
    assert not (tmp_path / "o" / "compare_report.csv").exists()


def test_cli_solver_error_writes_record(tmp_path):
    # a valid config whose witness solves overflow (gamma = 1 at T = 2000)
    cfg = {"grid_points_per_axis": 64, "modes": [4, 8], "steps": 2000,
           "horizon": 2000.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        code = main(["witness", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    record = json.loads((tmp_path / "o" / "error.json").read_text())
    assert record["command"] == "witness"
    assert record["error"]


def test_cli_every_subcommand_on_the_square(tmp_path):
    # each subcommand runs on a toy square config or is rejected up front as
    # interval-only (exit 2); none fails inside a solve
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain_kind": "square", "modes": [3, 4], "steps": 64,
                                "grid_points_per_axis": 32}))
    codes = {}
    for command in ("solve", "witness", "convergence", "symbols", "compare-oracle"):
        out = tmp_path / command
        codes[command] = main([command, "--config", str(path), "--out", str(out)])
        assert not (out / "error.json").exists()
    assert codes["solve"] == codes["witness"] == codes["symbols"] == 2
    assert codes["convergence"] == 0
    assert (tmp_path / "compare-oracle" / "compare_report.csv").is_file()


def test_square_truncation_row_compares_each_n_with_its_own_data(tmp_path):
    # on the square an N-mode scenario fills other multi-indices than the
    # 2x-mode one, so each N's reference solves that N's own data, every
    # coefficient and forcing column moved to its (j, k) on the wider basis
    from mgtlab.reduction import ForcingData, MgtData, solve_mgt
    from mgtlab.spectral import SpectralField

    cfg = ScenarioConfig.from_dict({"domain_kind": "square", "modes": [3, 4], "steps": 64,
                                    "grid_points_per_axis": 32})
    run_convergence(cfg, tmp_path)
    summary = json.loads((tmp_path / "convergence_summary.json").read_text())
    ref_basis = build_basis(cfg.domain(), 8)
    column = {tuple(ix): c for c, ix in enumerate(ref_basis.indices)}
    grid = TimeGrid(cfg.horizon, cfg.steps)
    want = []
    for n in cfg.modes:
        data = make_scenario(build_basis(cfg.domain(), n), cfg.scenario_spec())
        cols = [column[tuple(ix)] for ix in data.w0.basis.indices]

        def wide(values, cols=cols):
            out = np.zeros(values.shape[:-1] + (ref_basis.size,))
            out[..., cols] = values
            return out

        fields = [SpectralField(ref_basis, wide(part.coeffs), part.boundary)
                  for part in (data.w0, data.w1, data.w2)]
        forcing = ForcingData(modes=lambda t, modes=data.f.modes, wide=wide: wide(modes(t)))
        ref = solve_mgt(MgtData(*fields, f=forcing, g=data.g), cfg.params, grid)
        want.append(relative_sup_error(wide(solve_mgt(data, cfg.params, grid).total("w")),
                                       ref.total("w")))
    assert summary["truncation_diffs"] == want
    assert want[1] < want[0]


def test_solve_norm_matches_oracle_built_value():
    # sup_t H2 norm of the eigenmode case, rebuilt from oracle coefficients
    from mgtlab.harness import sup_interior_norms
    from mgtlab.modal_oracle import solve_by_modes
    from mgtlab.reduction import MgtData, MgtParams, solve_mgt
    from mgtlab.spectral import DomainSpec, SpectralField, TimeGrid, build_basis
    from reference import evaluate, grid_sobolev_norm

    params = MgtParams(alpha=2.0, b=1.0, c=1.0)
    basis = build_basis(DomainSpec("interval", 1024), 8)
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    data = MgtData(w0=SpectralField(basis, coeffs),
                   w1=SpectralField(basis, np.zeros(8)),
                   w2=SpectralField(basis, np.zeros(8)))
    grid = TimeGrid(1.0, 1000)
    bundle = solve_mgt(data, params, grid)
    sup_v = sup_interior_norms(bundle, 1024, stride=10)["w_H2"]
    oracle = solve_by_modes(data, params, grid)
    sup_o = max(grid_sobolev_norm(evaluate(SpectralField(basis, oracle.w[m]), 1024),
                                  1.0 / 1024, 2)
                for m in range(0, grid.steps + 1, 10))
    assert abs(sup_v - sup_o) / sup_o < 1e-4


def test_witness_summary_reports_families(tmp_path):
    cfg = small_config(modes=[16, 32], steps=250)
    run_regularity_witness(cfg, tmp_path)
    summary = json.loads((tmp_path / "witness_summary.json").read_text())
    assert summary["boundary_family"] == "trig"
    assert summary["boundary_flagged"] is False
    assert len(summary["incompatible_H2_sups"]) == 2
    assert summary["metadata"]["mode_groups"] == 1
    assert "blas_threads" in summary["metadata"]


# -- the chunked cross-route error -------------------------------------------


def sup_error_at_once(a, b):
    # the one-shot formula that relative_sup_error evaluates chunk by chunk
    num = np.max(np.linalg.norm(a - b, axis=1))
    den = max(np.max(np.linalg.norm(b, axis=1)), 1e-300)
    return float(num / den)


def chunk_rows(modes):
    return CHUNK_ELEMENTS // modes


@settings(max_examples=30, deadline=None)
@given(modes=st.sampled_from([16, 32, 256]),
       extra=st.sampled_from(["1", "C-1", "C", "C+1", "2C+1"]),
       seed=st.integers(0, 2**32 - 1))
def test_relative_sup_error_matches_one_shot_formula(modes, extra, seed):
    c = chunk_rows(modes)
    rows = {"1": 1, "C-1": c - 1, "C": c, "C+1": c + 1, "2C+1": 2 * c + 1}[extra]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((rows, modes)) * np.exp(rng.uniform(-3, 3, (rows, 1)))
    a = b + 1e-7 * rng.standard_normal((rows, modes))
    assert relative_sup_error(a, b) == sup_error_at_once(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["a", "b"])
def test_relative_sup_error_keeps_non_finite_rows(bad, side):
    # one bad row in the middle chunk of three reaches the result
    modes = 32
    rows = 2 * chunk_rows(modes) + 1
    assert len(row_chunks(rows, modes)) == 3
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, rows, modes))
    {"a": a, "b": b}[side][rows // 2, 5] = bad
    with np.errstate(invalid="ignore"):
        got, want = relative_sup_error(a, b), sup_error_at_once(a, b)
    assert not math.isfinite(got)
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("bad", [None, np.nan, np.inf])
def test_relative_sup_error_keeps_bad_rows_of_the_first_and_last_chunk(bad):
    # a 256-mode input over six chunks; a bad row in its first or last chunk
    # reaches the result
    modes = 256
    rows = 5 * chunk_rows(modes) + 3
    assert len(row_chunks(rows, modes)) == 6
    rng = np.random.default_rng(11)
    b = rng.standard_normal((rows, modes)) * np.exp(rng.uniform(-3, 3, (rows, 1)))
    a = b + 1e-7 * rng.standard_normal((rows, modes))
    for row in (1, rows - 2):
        bent = a.copy()
        if bad is not None:
            bent[row, 3] = bad
        with np.errstate(invalid="ignore"):
            got, want = relative_sup_error(bent, b), sup_error_at_once(bent, b)
        if bad is not None:
            assert not math.isfinite(got)
        assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("shape", [(150, 8), (1, 8), (100, 1)])
def test_relative_sup_error_rejects_another_shape(shape):
    # 50 extra rows past b's chunks, or a row or a column that would broadcast
    b = np.random.default_rng(5).standard_normal((100, 8))
    with pytest.raises(ValueError) as caught:
        relative_sup_error(np.full(shape, 1e6), b)
    assert str(shape) in str(caught.value) and "(100, 8)" in str(caught.value)


def test_relative_sup_error_rejects_no_rows():
    with pytest.raises(ValueError, match=r"at least one row, got shape \(0, 4\)"):
        relative_sup_error(np.zeros((0, 4)), np.zeros((0, 4)))


def test_summary_json_writes_non_finite_values_as_null(tmp_path):
    # with zero Dirichlet data and zero forcing the resolvent probe's ratio
    # is infinite; the summary stays strict JSON and says null
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {"g_family": "zero", "f_family": "zero"},
                                "symbol": {"probe_scenarios": 2, "probe_steps": 40},
                                "modes": [4, 8], "steps": 100}))
    assert main(["symbols", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def no_constants(token):
        raise ValueError(f"non-JSON token {token}")

    text = (tmp_path / "o" / "symbols_summary.json").read_text()
    summary = json.loads(text, parse_constant=no_constants)
    assert summary["probe_medians"]["resolvent_4a"] is None
    assert summary["probe_max"]["resolvent_4a"] is None
    # a non-finite value that reaches the encoder another way fails loudly
    with pytest.raises(ValueError, match="JSON"):
        harness.write_summary_json(tmp_path / "s.json", {"z": np.array(np.nan)})
    harness.write_summary_json(tmp_path / "s.json", {"x": (1.0, {"y": float("nan")}),
                                                     "z": np.float32("-inf"), "n": np.int64(3)})
    summary = json.loads((tmp_path / "s.json").read_text(), parse_constant=no_constants)
    assert (summary["x"], summary["z"], summary["n"]) == ([1.0, {"y": None}], None, 3.0)


def test_cross_route_helpers_make_no_grid_sized_temporaries():
    rows, modes = 20001, 32
    basis = build_basis(DomainSpec("interval", 256), modes)
    grid = TimeGrid(1.0, rows - 1)
    rng = np.random.default_rng(3)
    edge = rng.standard_normal((rows, 2))
    traj = Trajectory(basis, grid, rng.standard_normal((rows, modes)), None, None,
                      BoundarySignal(grid, edge, edge, edge))
    other = rng.standard_normal((rows, modes))
    nbytes = rows * modes * 8
    tracemalloc.start()
    try:
        relative_sup_error(traj.w, other)
        error_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        total = traj.total("w")
        total_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total.nbytes == nbytes
    assert error_peak <= 2**20, error_peak
    assert total_peak <= 1.25 * nbytes, total_peak
