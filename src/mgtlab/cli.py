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
    return parser


def load_config(path: str | None) -> ScenarioConfig:
    """The config file at path (the defaults when None), loaded."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not valid JSON
            raise ConfigError(f"cannot read config: {exc}") from exc
    return ScenarioConfig.from_dict(raw)


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
        report = RUNNERS[args.command](load_config(args.config), out_dir)
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
