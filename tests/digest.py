"""Print sha256 digests of both solution routes' outputs and of their measurements.

A refactor that promises the same bits runs this on the parent commit and on
the change and compares the output line by line:

    PYTHONPATH=src python tests/digest.py

--check does the comparison: it reads the lines printed on the parent
commit from a file, prints its own as it compares them, and exits 1 at the
first line that differs, naming it (a line missing or extra differs too),
else 0:

    PYTHONPATH=src python tests/digest.py > parent.txt    # on the parent
    PYTHONPATH=src python tests/digest.py --check parent.txt

A change with intended drift saves the outputs on the parent commit and
reads them back on the change, which prints the worst drift per case and
output: relative to the sup, max|new - old| / max|old|, except for the
cross-route errors, which are already relative to a solution's sup and
drift in absolute terms, max|new - old|.  It exits 1 at the first line
whose drift passes 1e-12, naming it, and at a key missing from either
side:

    PYTHONPATH=src python tests/digest.py --save /tmp/before.npz
    PYTHONPATH=src python tests/digest.py --against /tmp/before.npz

The cases are acceptance criterion 1's ten scenarios (interval, 32 modes,
10^4 steps), one 16x16 square solved as 1, 2 and 3 mode groups, whose
digests must also agree with each other, and criterion 8's small solves
(interval, 16 modes, the default scenario at seeds 0-2) on 400 steps, on
401, whose last scan segment is a leftover block, and on 111, whose last
scan segment is a single row.  One more small solve on 400 steps has no
Dirichlet data (seed 0, g_family "zero"; the forcing is kept, so both
probes stay finite): it is the case of each route's zero-signal path.
Each route's lines digest the whole-function coefficients total(which) of
its w, w_t and w_tt, and their zero-trace parts interior(which), taken out
with the Dirichlet signal that both routes carry.  Each case also digests
the cross-route relative sup errors of w, w_t and w_tt, and each interval
case the other measurements taken on it: the sup interior norms on a
1024-point grid and the two trace-space norms of both routes, and both
estimate-probe ratios on a 256-point grid.  numpy's BLAS is pinned to one
thread before numpy loads, since matrix products round differently with
more threads.  pytest does not collect this file.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import zipfile  # noqa: E402

import numpy as np  # noqa: E402

# --against's bound on a drift, the benchmark fingerprint's tolerance
DRIFT = 1e-12

from mgtlab import quadrature  # noqa: E402
from mgtlab.generators import ScenarioSpec, make_scenario  # noqa: E402
from mgtlab.harness import (relative_sup_error, sup_interior_norms,  # noqa: E402
                            trace_space_norms)
from mgtlab.modal_oracle import solve_by_modes  # noqa: E402
from mgtlab.reduction import solve_mgt  # noqa: E402
from mgtlab.spectral import DomainSpec, TimeGrid, build_basis  # noqa: E402
from mgtlab.symbols import estimate_probe  # noqa: E402
from test_acceptance import DOMAIN, PARAMS, SCENARIOS  # noqa: E402


def outputs(label, data, grid):
    """{"<label> <route> <component>": array} of both routes on one case,
    and {"<label> measure <name>": array} of the measurements on it: all of
    them on the interval, the cross-route errors alone on the square."""
    bundle = solve_mgt(data, PARAMS, grid)
    oracle = solve_by_modes(data, PARAMS, grid)
    routes = (("solve_mgt", bundle), ("solve_by_modes", oracle))
    out = {f"{label} {route} {which}": np.ascontiguousarray(sol.total(which))
           for route, sol in routes for which in ("w", "wt", "wtt")}
    out.update({f"{label} {route} interior {which}": sol.interior(which)
                for route, sol in routes for which in ("w", "wt", "wtt")})
    measured = {}
    if data.basis.domain.kind == "interval":
        measured = {
            "sup_interior_norms": list(sup_interior_norms(bundle, 1024).values()),
            "trace_space_norms": trace_space_norms(bundle),
            "estimate_probes": [estimate_probe(bundle, data, which, space_points=256).ratio
                                for which in ("resolvent_4a", "semigroup_10")],
            "solve_by_modes sup_interior_norms": list(sup_interior_norms(oracle,
                                                                         1024).values()),
            "solve_by_modes trace_space_norms": trace_space_norms(oracle),
        }
    measured["cross_route_errors"] = [relative_sup_error(bundle.total(which),
                                                         oracle.total(which))
                                      for which in ("w", "wt", "wtt")]
    out.update({f"{label} measure {name}": np.array(values, dtype=float)
                for name, values in measured.items()})
    return out


def cases():
    cores_of_host = quadrature._cores
    basis = build_basis(DOMAIN, 32)
    for spec in SCENARIOS:
        yield f"interval-seed{spec.seed}", make_scenario(basis, spec), TimeGrid(1.0, 10000)
    square = build_basis(DomainSpec("square", 64), 16)
    data = make_scenario(square, SCENARIOS[6])
    for cores in (1, 2, 3):
        quadrature._cores = lambda cores=cores: cores
        groups = len(quadrature.mode_groups(square.size))
        yield f"square-groups{groups}", data, TimeGrid(1.0, 3000)
    quadrature._cores = cores_of_host
    small = build_basis(DOMAIN, 16)
    for steps in (400, 401, 111):
        for seed in range(3):
            yield (f"small-steps{steps}-seed{seed}", make_scenario(small, ScenarioSpec(seed=seed)),
                   TimeGrid(1.0, steps))
    yield ("small-steps400-no-dirichlet",
           make_scenario(small, ScenarioSpec(seed=0, g_family="zero")), TimeGrid(1.0, 400))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH", help="save every output array to PATH (.npz)")
    parser.add_argument("--against", metavar="PATH",
                        help="print the drift from the arrays saved at PATH; exit 1 naming "
                             "the first past 1e-12")
    parser.add_argument("--check", metavar="PATH",
                        help="exit 1 naming the first line that differs from the digest at PATH")
    args = parser.parse_args()
    if args.check and args.against:
        parser.error("--check compares digests, --against prints drift: give one")
    saved = None
    if args.check:
        with open(args.check) as fh:
            saved = iter(fh.read().splitlines())
    number, seen = 0, set()

    def differs(got):
        # exit 1 at a line that is not the saved digest's line
        want = next(saved, None)
        if want != got:
            sys.exit(f"digest differs from {args.check} first at line {number}: "
                     f"expected {want!r}, got {got!r}")

    # an .npz archive written one array at a time, so one case is in memory
    with (np.load(args.against) if args.against else contextlib.nullcontext()) as old, \
            (zipfile.ZipFile(args.save, "w") if args.save else contextlib.nullcontext()) as save:
        for label, data, grid in cases():
            for key, arr in outputs(label, data, grid).items():
                if save is not None:
                    with save.open(f"{key}.npy", "w", force_zip64=True) as member:
                        np.lib.format.write_array(member, arr)
                if old is None:
                    line = f"{key} {hashlib.sha256(arr.tobytes()).hexdigest()}"
                    print(line, flush=True)
                    number += 1
                    if saved is not None:
                        differs(line)
                else:
                    if key not in old:
                        sys.exit(f"{key} is not saved in {args.against}")
                    seen.add(key)
                    ref = old[key]
                    scale = 1.0 if key.endswith("cross_route_errors") else np.max(np.abs(ref))
                    drift = np.max(np.abs(arr - ref)) / max(scale, np.finfo(float).tiny)
                    line = f"{key} {drift:.3e}"
                    print(line, flush=True)
                    if not drift <= DRIFT:
                        sys.exit(f"drift from {args.against} passes {DRIFT:g} at {line!r}")
        if old is not None and set(old.files) - seen:
            sys.exit(f"saved in {args.against} but not computed: "
                     f"{', '.join(sorted(set(old.files) - seen))}")
    if saved is not None:
        number += 1
        differs(None)
        print(f"all {number - 1} lines match {args.check}", file=sys.stderr)


if __name__ == "__main__":
    main()
