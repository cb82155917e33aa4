"""Command-line entry point: solve, witness, convergence, symbols, compare-oracle.

Exit status: 0 when every judged row passes, 1 when any fails or a solver
flags an error (a machine-readable record is written to the output
directory), 2 for an invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    Report,
    ScenarioConfig,
    run_compare_oracle,
    run_convergence,
    run_regularity_witness,
    run_solve,
    run_symbol_suite,
)

RUNNERS = {
    "solve": run_solve,
    "witness": run_regularity_witness,
    "convergence": run_convergence,
    "symbols": run_symbol_suite,
    "compare-oracle": run_compare_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgtlab",
        description="Numerical laboratory for the MGT Cauchy-Dirichlet problem")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner in RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__.splitlines()[0].lower())
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (built-in defaults when omitted)")
        p.add_argument("--out", type=str, default="out",
                       help="output directory for CSV/JSON artifacts")
        p.add_argument("--modes", type=str, default=None,
                       help="comma-separated mode counts, e.g. 32,64")
        p.add_argument("--dt", type=float, default=None,
                       help="time step (overrides steps as horizon/dt)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override one named tolerance (repeatable)")
    return parser


def load_config(args) -> ScenarioConfig:
    """The config file (or the defaults) with the flags applied as edits, loaded."""
    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not valid JSON
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, got {raw!r}")
    if args.modes is not None:
        try:
            raw["modes"] = [int(tok) for tok in args.modes.split(",") if tok]
        except ValueError as exc:
            raise ConfigError(f"bad --modes value: {exc}") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    for item in args.tol:
        name, _, value = item.partition("=")
        try:
            raw["tolerances"] = {**raw.get("tolerances", {}), name: float(value)}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}: {exc}") from exc
    cfg = ScenarioConfig.from_dict(raw)
    if args.dt is not None:  # the step count follows from the checked horizon
        if not 0 < args.dt <= cfg.horizon:
            raise ConfigError("--dt must lie in (0, horizon]")
        cfg = ScenarioConfig.from_dict({**raw, "steps": max(2, round(cfg.horizon / args.dt))})
    return cfg


def print_report(report: Report) -> None:
    for row in report.rows:
        status = "INFO" if row.passed is None else ("PASS" if row.passed else "FAIL")
        note = f"  [{row.note}]" if row.note else ""
        print(f"{status:4s}  {row.experiment}/{row.level}/{row.name}"
              f"  value={row.value:.6g}  tol={row.tol:.6g}{note}")
    print(f"artifacts: {', '.join(report.files)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        report = RUNNERS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver flags become a machine-readable record
        out_dir.mkdir(parents=True, exist_ok=True)
        record = {"error": type(exc).__name__, "message": str(exc),
                  "command": args.command}
        (out_dir / "error.json").write_text(json.dumps(record, indent=2) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
