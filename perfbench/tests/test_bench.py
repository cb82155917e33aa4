"""Self-test of the benchmark at toy sizes.

    python3 -m pytest -q perfbench/tests
"""

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# few modes; the oracle workloads keep enough steps for the 1e-6 cross-route gate
TOY = {
    "interval-long": dict(modes=2, steps=4000),
    "square-wide": dict(modes=2, steps=4000),
    "probe-many-small": dict(modes=4, steps=100),
}


def toy(name: str) -> W.Workload:
    return dataclasses.replace(W.WORKLOADS[name], fingerprint_items=2, **TOY[name])


@pytest.fixture(scope="module")
def toy_fingerprints():
    return {name: W.record_fingerprint(toy(name)) for name in TOY}


def run_toy(name, fingerprint, trace, seed=W.FINGERPRINT_SEED):
    return bench.measure(toy(name), seed, 0.05, trace, fingerprint, SPEC,
                         setup_repeats=1)


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, trace, toy_fingerprints):
    result, report, _ = run_toy(name, toy_fingerprints[name], trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] >= 0
        if not trace:
            assert got["value"] > 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == report["timed_items"] + 1
    assert report["timed_items"] >= W.WORKLOADS[name].min_scenarios * (2 if trace else 1)
    if trace:  # traced and untraced items come in pairs
        assert report["timed_items"] % 2 == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    json.dumps(result, allow_nan=False)


def test_traced_counts_are_exact(toy_fingerprints):
    result, _, _ = run_toy("interval-long", toy_fingerprints["interval-long"], True)
    got = {k: v["value"] for k, v in result["metrics"].items()}
    steps = TOY["interval-long"]["steps"]
    # two samplings of g, g_t, g_tt at every grid time, plus g and g_t at
    # the four RK4 stages of every step in the oracle
    assert got["generators.boundary_callable.calls"] == 6 * (steps + 1) + 8 * steps
    assert got["cosine.phase_builds"] == 7
    modes = TOY["interval-long"]["modes"]
    assert got["cosine.phase_bytes_computed"] == 7 * 3 * 8 * (steps + 1) * modes
    assert got["spectral.BoundaryData.sample.calls"] == 2


def test_self_time_on_a_synthetic_nested_span_tree():
    # root A [0,10]; children B [1,4] and C [3,6] overlap, E [8,12] runs past
    # A's end; D [2,3] is B's child; F is a second item's root
    tree = [
        ["A", 0.0, 10.0, -1, 0],
        ["B", 1.0, 4.0, 0, 0],
        ["D", 2.0, 3.0, 1, 0],
        ["C", 3.0, 6.0, 0, 0],
        ["E", 8.0, 12.0, 0, 0],
        ["F", 20.0, 21.5, -1, 1],
    ]
    totals = spans.layer_totals(tree)
    want_self = {"A": 10 - (5 + 2), "B": 3 - 1, "C": 3, "D": 1, "E": 4}
    for name, value in want_self.items():
        assert totals[0][name]["self_s"] == pytest.approx(value)
        assert totals[0][name]["calls"] == 1
    assert totals[0]["A"]["busy_s"] == 10
    assert totals[1]["F"]["self_s"] == 1.5
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3
    assert spans.union_length([]) == 0


def test_recorded_spans_nest_and_self_times_add_up():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap("m.leaf", leaf)
    traced_inner = tracer.wrap("m.inner", lambda: traced_leaf() + traced_leaf())
    tracer.item = 7
    traced_inner()
    names = [s[0] for s in tracer.spans]
    assert names == ["m.inner", "m.leaf", "m.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert all(s[4] == 7 and s[2] >= s[1] for s in tracer.spans)
    totals = spans.layer_totals(tracer.spans)[7]
    root_busy = totals["m.inner"]["busy_s"]
    self_sum = sum(v["self_s"] for v in totals.values())
    assert self_sum == pytest.approx(root_busy, rel=1e-9)


def test_install_patches_importers_and_uninstall_restores():
    import mgtlab.reduction as reduction
    from mgtlab import cosine

    original = cosine.conv_sin
    tracer = spans.Tracer(holders=[W])
    tracer.install()
    try:
        assert reduction.conv_sin is cosine.conv_sin is not original
        assert W.solve_mgt is reduction.solve_mgt
        assert W.solve_mgt.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert cosine.conv_sin is original and reduction.conv_sin is original
    assert not hasattr(W.solve_mgt, "__wrapped__")


def test_corrupted_fingerprint_counts_as_failure(toy_fingerprints):
    # at the fingerprint seed, the warm-up and timed item 0 both run the
    # first recorded scenario
    bad = copy.deepcopy(toy_fingerprints["interval-long"])
    bad["items"][0]["sup_w_H2"] *= 1 + 1e-9
    result, report, _ = run_toy("interval-long", bad, False)
    assert not result["correct"]
    assert result["failed"] == 2
    assert [f["item"] for f in report["item_failures"]] == ["warmup", 0]
    assert all("sup_w_H2" in f["reasons"][0] for f in report["item_failures"])


def test_corrupted_warmup_fingerprint_fails_any_seed(toy_fingerprints):
    bad = copy.deepcopy(toy_fingerprints["probe-many-small"])
    bad["items"][0]["probe_semigroup_10"] *= 1 + 1e-9
    result, report, _ = run_toy("probe-many-small", bad, False, seed=5)
    assert not result["correct"] and result["failed"] == 1
    assert report["item_failures"][0]["item"] == "warmup"


def test_corrupted_sweep_fingerprint_fails_the_run(toy_fingerprints):
    bad = copy.deepcopy(toy_fingerprints["probe-many-small"])
    bad["sweeps"]["lopatinskii_min_b1"] *= 1 + 1e-9
    result, report, _ = run_toy("probe-many-small", bad, False)
    assert not result["correct"] and result["failed"] == 0
    assert "lopatinskii_min_b1" in report["run_failures"][0]


def test_probe_spread_is_taken_over_a_fixed_number_of_scenarios():
    n = W.PROBE_SPREAD_ITEMS
    calm = [{"probe_resolvent_4a": 1.0, "probe_semigroup_10": 1.0}] * n
    outlier = [{"probe_resolvent_4a": 50.0, "probe_semigroup_10": 1.0}]
    assert W.run_failures(calm + outlier, None) == []
    failures = W.run_failures(outlier + calm, None)
    assert len(failures) == 1 and "resolvent_4a" in failures[0]


def test_fingerprint_tolerance_is_1e12():
    ref = {"cross_route_w": 2e-8, "sup_w_H2": 5.0}
    assert W.fingerprint_drift({"cross_route_w": 2e-8 + 5e-13, "sup_w_H2": 5.0}, ref) == []
    assert W.fingerprint_drift({"cross_route_w": 2e-8 + 5e-12, "sup_w_H2": 5.0}, ref)
    assert W.fingerprint_drift({"cross_route_w": 2e-8, "sup_w_H2": 5.0 * (1 + 1e-11)}, ref)
    assert W.fingerprint_drift({"sup_w_H2": 5.0}, ref)  # a missing field drifts


def test_seeded_inputs_repeat():
    wl = W.WORKLOADS["interval-long"]
    assert W.scenario_spec(wl, 3, 4) == W.scenario_spec(wl, 3, 4)
    assert W.scenario_spec(wl, 3, 4) != W.scenario_spec(wl, 4, 4)
    mix = [dataclasses.replace(W.scenario_spec(wl, 3, i), seed=0)
           for i in range(len(W.CRITERION_1_MIX))]
    assert mix == [dataclasses.replace(t, seed=0) for t in W.CRITERION_1_MIX]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(5) == 50
    assert bench.tail_percentile(40) == 75
    assert bench.tail_percentile(199) == 90
    assert bench.tail_percentile(200) == 95
    assert bench.tail_percentile(1000) == 99


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe-many-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
