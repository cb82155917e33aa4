"""Print sha256 digests of both solution routes' w, w_t and w_tt.

A refactor that promises the same bits runs this on the parent commit and on
the change and compares the output line by line:

    PYTHONPATH=src python tests/digest.py

A change with intended drift saves the outputs on the parent commit and
reads them back on the change, which prints the worst relative sup drift
max|new - old| / max|old| per case, route and component:

    PYTHONPATH=src python tests/digest.py --save /tmp/before.npz
    PYTHONPATH=src python tests/digest.py --against /tmp/before.npz

The cases are acceptance criterion 1's ten scenarios (interval, 32 modes,
10^4 steps) and one 16x16 square solved as 1, 2 and 3 mode groups, whose
digests must also agree with each other.  numpy's BLAS is pinned to one
thread before numpy loads, since matrix products round differently with
more threads.  pytest does not collect this file.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import zipfile  # noqa: E402

import numpy as np  # noqa: E402

from mgtlab import quadrature  # noqa: E402
from mgtlab.generators import make_scenario  # noqa: E402
from mgtlab.modal_oracle import solve_by_modes  # noqa: E402
from mgtlab.reduction import solve_mgt  # noqa: E402
from mgtlab.spectral import DomainSpec, TimeGrid, build_basis  # noqa: E402
from test_acceptance import DOMAIN, PARAMS, SCENARIOS  # noqa: E402


def outputs(label, data, grid):
    """{"<label> <route> <component>": array} of both routes on one case."""
    bundle = solve_mgt(data, PARAMS, grid)
    oracle = solve_by_modes(data, PARAMS, grid)
    return {f"{label} {route} {which}": np.ascontiguousarray(getattr(sol, which))
            for route, sol in (("solve_mgt", bundle), ("solve_by_modes", oracle))
            for which in ("w", "wt", "wtt")}


def cases():
    basis = build_basis(DOMAIN, 32)
    for spec in SCENARIOS:
        yield f"interval-seed{spec.seed}", make_scenario(basis, spec), TimeGrid(1.0, 10000)
    square = build_basis(DomainSpec("square", 64), 16)
    data = make_scenario(square, SCENARIOS[6])
    for cores in (1, 2, 3):
        quadrature._cores = lambda cores=cores: cores
        groups = len(quadrature.mode_groups(square.size))
        yield f"square-groups{groups}", data, TimeGrid(1.0, 3000)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH", help="save every output array to PATH (.npz)")
    parser.add_argument("--against", metavar="PATH",
                        help="print the relative sup drift from the arrays saved at PATH")
    args = parser.parse_args()
    # an .npz archive written one array at a time, so one case is in memory
    with (np.load(args.against) if args.against else contextlib.nullcontext()) as old, \
            (zipfile.ZipFile(args.save, "w") if args.save else contextlib.nullcontext()) as save:
        for label, data, grid in cases():
            for key, arr in outputs(label, data, grid).items():
                if save is not None:
                    with save.open(f"{key}.npy", "w", force_zip64=True) as member:
                        np.lib.format.write_array(member, arr)
                if old is None:
                    print(f"{key} {hashlib.sha256(arr.tobytes()).hexdigest()}")
                else:
                    ref = old[key]
                    drift = np.max(np.abs(arr - ref)) / max(np.max(np.abs(ref)),
                                                            np.finfo(float).tiny)
                    print(f"{key} {drift:.3e}")


if __name__ == "__main__":
    main()
