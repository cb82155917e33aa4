"""Measurement loop, metrics and run report of the mgtlab benchmark.

Imported by run.py after the thread settings are in place.  The metric
names, units and directions come from BENCHMARK.json at the checkout root,
so the file and the emitted metrics cannot disagree.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

import spans
from speed import SpeedProbe
import workloads as W
from run import BENCH_DIR, ROOT, SRC, THREAD_ENV

OUT_DIR = BENCH_DIR / "out"
FINGERPRINT_FILE = BENCH_DIR / "fingerprint.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
# item_s_tail: the highest of these percentiles with at least TAIL_BEYOND
# samples beyond it, else the median
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
# spans measured once per run rather than per item
PER_RUN_SPANS = ("symbols.lopatinskii_sweep", "symbols.lopatinskii_ratio")
COUNT_METRICS = ("cosine.phase_builds", "cosine.phase_bytes_computed",
                 "generators.boundary_callable.calls")
OVERHEAD_METRIC = "bench.trace_overhead_ratio"

# the speed probe's period while items run, and while a set-up child imports
ITEM_SPEED_EVERY_S = 0.2
SETUP_SPEED_EVERY_S = 0.05

# fresh interpreter to ready: the library import plus the workload's basis
# and time grid, what a command-line user pays on every call
SETUP_PROBE = """\
import sys
sys.path.insert(0, {bench_dir!r})
from speed import SpeedProbe, scale_of
with SpeedProbe({every_s!r}) as probe:
    import mgtlab
    from mgtlab.spectral import DomainSpec, TimeGrid, build_basis
    build_basis(DomainSpec({domain!r}, 1024), {modes})
    TimeGrid(1.0, {steps}).times
print("ready", probe.spent, scale_of([x for _, x in probe.samples]), flush=True)
"""


def setup_seconds(wl: W.Workload, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it reports ready,
    scaled and as measured.

    Each child samples its own speed while it sets up, since it may run on
    the other vCPU; its time, less the probe's, is scaled to the reference
    speed like an item's latency.
    """
    code = SETUP_PROBE.format(bench_dir=str(BENCH_DIR), every_s=SETUP_SPEED_EVERY_S,
                              domain=wl.domain, modes=wl.modes, steps=wl.steps)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    times, wall = [], []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().split()
            elapsed = perf_counter() - start
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if len(line) != 3 or line[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        spent, scale = float(line[1]), float(line[2])
        times.append((elapsed - spent) * scale)
        wall.append(elapsed)
    return times, wall


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p
    return 50.0


def count_boundary_calls(tracer: spans.Tracer, data) -> None:
    """Count calls of the g, g_t, g_tt callables the generators built."""
    if data.g is not None:
        for attr in ("g", "gt", "gtt"):
            setattr(data.g, attr, tracer.counted("generators.boundary_callable.calls",
                                                 getattr(data.g, attr)))


class Run:
    """One closed-loop run: a warm-up item, then items until the time is up."""

    def __init__(self, wl: W.Workload, seed: int, trace: bool, fingerprint: dict):
        self.wl, self.seed, self.trace = wl, seed, trace
        self.fingerprint = fingerprint
        self.basis, self.grid = wl.basis(), wl.grid()
        self.tracer = spans.Tracer(holders=[W]) if trace else None
        self.speed = SpeedProbe(ITEM_SPEED_EVERY_S)
        self.failures: list[dict] = []

    def attempt(self, item, spec, ref: dict | None, traced: bool):
        """Run one item; returns (outputs, seconds, start) and records any failure.

        The seconds leave out the time the speed probe took during the item.
        """
        on_data = None
        if traced:
            self.tracer.item = item
            self.tracer.install()
            on_data = lambda data: count_boundary_calls(self.tracer, data)  # noqa: E731
        probe_spent = self.speed.spent
        start = perf_counter()
        try:
            out = W.run_item(self.wl, self.basis, self.grid, spec, on_data)
        except Exception as exc:  # a raising item is a failed item; the run goes on
            out, reasons = {}, [f"{type(exc).__name__}: {exc}"]
        else:
            reasons = W.item_failures(out)
            if ref is not None:
                reasons += W.fingerprint_drift(out, ref)
        elapsed = perf_counter() - start - (self.speed.spent - probe_spent)
        if traced:
            self.tracer.uninstall()
            self.tracer.item = None
        if reasons:
            self.failures.append({"item": item, "reasons": reasons})
        return out, elapsed, start

    def sweeps(self) -> tuple[dict, float]:
        if self.trace:
            self.tracer.install()
        start = perf_counter()
        minima = W.run_sweeps(self.seed)
        elapsed = perf_counter() - start
        if self.trace:
            self.tracer.uninstall()
        return minima, elapsed

    def execute(self, seconds: float) -> dict:
        wl, refs = self.wl, self.fingerprint["items"]
        # warm-up: the first recorded item, checked against its fingerprint
        # and discarded from the timings
        warm, _, _ = self.attempt("warmup", W.scenario_spec(wl, W.FINGERPRINT_SEED, 0),
                               refs[0], traced=False)
        minima, sweep_s = self.sweeps() if wl.sweep else (None, None)

        outputs, latencies, windows, traced = [], [], [], []
        # a traced run takes each scenario twice, traced and then not, so the
        # two items of a pair differ only in tracing
        per_scenario = 2 if self.trace else 1
        min_items = per_scenario * wl.min_scenarios
        start = perf_counter()
        i = 0
        with self.speed:
            while perf_counter() - start < seconds or i < min_items or i % per_scenario:
                k = i // per_scenario
                ref = refs[k] if self.seed == W.FINGERPRINT_SEED and k < len(refs) else None
                is_traced = self.trace and i % 2 == 0
                out, elapsed, began = self.attempt(i, W.scenario_spec(wl, self.seed, k),
                                                   ref, is_traced)
                outputs.append(out)
                latencies.append(elapsed)
                windows.append((began, perf_counter()))
                traced.append(is_traced)
                i += 1

        run_failures = W.run_failures(outputs[::per_scenario], minima)
        if minima is not None and self.seed == W.FINGERPRINT_SEED:
            run_failures += W.fingerprint_drift(minima, self.fingerprint["sweeps"])
        failed_timed = {f["item"] for f in self.failures if f["item"] != "warmup"}
        cross = [v for o in [warm] + outputs for k, v in o.items()
                 if k.startswith("cross_route_")]
        return {
            "attempted": 1 + len(outputs),
            "failed": len(self.failures),
            "ok_timed": len(outputs) - len(failed_timed),
            "latencies": latencies,
            "windows": windows,
            "scales": [self.speed.scale(a, b) for a, b in windows],
            "traced": traced,
            "cross_route_err_max": max(cross) if cross else None,
            "sweep_s": sweep_s,
            "lopatinskii_minima": minima,
            "run_failures": run_failures,
        }


def item_metrics(ok_items: int, lat: list[float]) -> dict:
    return {
        "items_per_s": ok_items / sum(lat),
        "item_s_p50": statistics.median(lat),
        "item_s_tail": float(np.percentile(lat, tail_percentile(len(lat)))),
    }


def end_to_end(raw: dict, setup: list[float]) -> dict:
    """Set-up and item metrics at the reference host speed; memory as measured."""
    scaled = [x * k for x, k in zip(raw["latencies"], raw["scales"])]
    return {
        "setup_s": statistics.median(setup),
        **item_metrics(raw["ok_timed"], scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names: list[str], tracer: spans.Tracer, raw: dict) -> dict:
    """Per-item medians over the traced items; per-run totals where marked."""
    totals = spans.layer_totals(tracer.spans)
    items = [i for i, t in enumerate(raw["traced"]) if t]
    out = {}
    for name in names:
        if name == OVERHEAD_METRIC:
            lat = [x * k for x, k in zip(raw["latencies"], raw["scales"])]
            # per pair, untraced over traced latency: traced over untraced
            # items per second
            out[name] = statistics.median(b / a for a, b in zip(lat[::2], lat[1::2]))
        elif name in COUNT_METRICS:
            out[name] = float(statistics.median(tracer.counts[i][name] for i in items))
        else:
            span, stat = name.rsplit(".", 1)
            if span in PER_RUN_SPANS:
                out[name] = float(totals[None][span][stat])
            else:
                out[name] = float(statistics.median(totals[i][span][stat] for i in items))
    return out


def host_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "threads": THREAD_ENV}


def measure(wl: W.Workload, seed: int, seconds: float, trace: bool,
            fingerprint: dict, spec: dict, setup_repeats: int = SETUP_REPEATS):
    """One run; returns (result line, report, tracer or None)."""
    setup, setup_wall = ([], []) if trace else setup_seconds(wl, setup_repeats)
    run = Run(wl, seed, trace, fingerprint)
    raw = run.execute(seconds)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(names, run.tracer, raw)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = end_to_end(raw, setup)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": raw["failed"] == 0 and not raw["run_failures"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    lat = raw["latencies"]
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "timed_items": len(lat), "warmup_items": 1, "latencies_s": lat,
        "wall_metrics": item_metrics(raw["ok_timed"], lat),
        "item_windows": raw["windows"],  # (perf_counter start, end) per item
        "item_speed_scales": raw["scales"],
        "host_speed_scale": statistics.median(raw["scales"]),
        "speed_samples": run.speed.samples,  # (perf_counter start, seconds)
        "tail_percentile": tail_percentile(len(lat)),
        "fail_ratio": raw["failed"] / raw["attempted"],
        "cross_route_err_max": raw["cross_route_err_max"],
        "sweep_s": raw["sweep_s"],
        "lopatinskii_minima": raw["lopatinskii_minima"],
        "setup_samples_s": setup,
        "setup_wall_s": setup_wall,
        "item_failures": run.failures,
        "run_failures": raw["run_failures"],
        "host": host_info(),
        "result": result,
    }
    return result, report, run.tracer


def print_summary(result: dict, report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}: "
          f"{report['timed_items']} timed items + 1 warm-up, "
          f"{result['failed']} of {result['attempted']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {report['fail_ratio']:<14.6g} ratio")
    if not report["trace"]:
        print(f"  {'item_s_tail percentile':40s} p{report['tail_percentile']:g} "
              f"of {report['timed_items']} samples")
        print(f"  {'host_speed_scale':40s} {report['host_speed_scale']:<14.6g} ratio"
              "  (item metrics above are at the reference speed)")
        for name, value in report["wall_metrics"].items():
            unit = "1/s" if name == "items_per_s" else "s"
            print(f"  {name + ' (wall clock)':40s} {value:<14.6g} {unit}")
    if report["cross_route_err_max"] is not None:
        print(f"  {'cross_route_err_max':40s} {report['cross_route_err_max']:<14.6g} rel")
    if report["sweep_s"] is not None:
        print(f"  {'sweep_s':40s} {report['sweep_s']:<14.6g} s")
    for failure in report["item_failures"]:
        print(f"  FAILED item {failure['item']}: {'; '.join(failure['reasons'])}")
    for reason in report["run_failures"]:
        print(f"  FAILED run: {reason}")


def main(args) -> int:
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    fingerprint = json.loads(FINGERPRINT_FILE.read_text())[wl.name]
    spec = json.loads(SPEC_FILE.read_text())
    result, report, tracer = measure(wl, args.seed, args.seconds, bool(args.trace),
                                     fingerprint, spec)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{wl.name}-spans.jsonl")
    print_summary(result, report)
    print(json.dumps(result))
    return 0
