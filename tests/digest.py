"""Print sha256 digests of both solution routes' w, w_t and w_tt.

A refactor that promises the same bits runs this on the parent commit and on
the change and compares the output line by line:

    PYTHONPATH=src python tests/digest.py

The cases are acceptance criterion 1's ten scenarios (interval, 32 modes,
10^4 steps) and one 16x16 square solved as 1, 2 and 3 mode groups, whose
digests must also agree with each other.  numpy's BLAS is pinned to one
thread before numpy loads, since matrix products round differently with
more threads.  pytest does not collect this file.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from mgtlab import quadrature  # noqa: E402
from mgtlab.generators import make_scenario  # noqa: E402
from mgtlab.modal_oracle import solve_by_modes  # noqa: E402
from mgtlab.reduction import solve_mgt  # noqa: E402
from mgtlab.spectral import DomainSpec, TimeGrid, build_basis  # noqa: E402
from test_acceptance import DOMAIN, PARAMS, SCENARIOS  # noqa: E402


def digests(label, data, grid):
    bundle = solve_mgt(data, PARAMS, grid)
    oracle = solve_by_modes(data, PARAMS, grid)
    for route, sol in (("solve_mgt", bundle), ("solve_by_modes", oracle)):
        for which in ("w", "wt", "wtt"):
            raw = np.ascontiguousarray(getattr(sol, which)).tobytes()
            print(f"{label} {route} {which} {hashlib.sha256(raw).hexdigest()}")


def main():
    basis = build_basis(DOMAIN, 32)
    for spec in SCENARIOS:
        digests(f"interval-seed{spec.seed}", make_scenario(basis, spec),
                TimeGrid(1.0, 10000))
    square = build_basis(DomainSpec("square", 64), 16)
    data = make_scenario(square, SCENARIOS[6])
    for cores in (1, 2, 3):
        quadrature._cores = lambda cores=cores: cores
        groups = len(quadrature.mode_groups(square.size))
        digests(f"square-groups{groups}", data, TimeGrid(1.0, 3000))


if __name__ == "__main__":
    main()
