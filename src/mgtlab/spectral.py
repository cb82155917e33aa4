"""Domains, eigenbases, fields, trajectories, liftings, norms and traces.

Everything downstream computes on the closed-form sine spectrum of the
Dirichlet Laplacian on the unit interval or the unit square.  A field is a
zero-trace eigen-expansion plus an optional harmonic lifting of boundary
values, so nonzero Dirichlet data never has to be squeezed through the sine
basis where its expansion converges slowly.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import composite_weights

SQRT2 = np.sqrt(2.0)

INTERVAL = "interval"
SQUARE = "square"

# relative gap allowed between half-spectrum and full normal-trace sums
_TRACE_RTOL = 0.05


@dataclass(frozen=True)
class DomainSpec:
    """Unit interval or unit square with a default physical evaluation grid."""

    kind: str
    grid_points_per_axis: int = 256

    def __post_init__(self):
        if self.kind not in (INTERVAL, SQUARE):
            raise ValueError(f"unsupported domain kind {self.kind!r}")
        if self.grid_points_per_axis < 8:
            raise ValueError("grid_points_per_axis must be >= 8")

    @property
    def boundary_size(self) -> int:
        """Number of boundary values carried by data (2 nodes or 4 edges)."""
        return 2 if self.kind == INTERVAL else 4


@functools.lru_cache(maxsize=16)
def _grid_times(horizon: float, steps: int) -> np.ndarray:
    times = np.linspace(0.0, horizon, steps + 1)
    times.flags.writeable = False
    return times


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        """The grid's times, built once per (horizon, steps) and read-only."""
        return _grid_times(self.horizon, self.steps)


def _boundary_flux(kind: str, indices: np.ndarray) -> np.ndarray:
    """(boundary_size, modes) pairings  integral_Gamma_i  d_nu e_k  dsigma.

    For the interval the boundary measure is counting measure, so the rows
    are the pointwise normal derivatives of each mode at x=0 and x=1
    (outward normals -d/dx and +d/dx).  For the square each row is the
    line integral of d_nu e over one edge (x=0, x=1, y=0, y=1) against
    constant edge data.
    """
    if kind == INTERVAL:
        k = indices[:, 0]
        d0 = -SQRT2 * k * np.pi
        d1 = SQRT2 * k * np.pi * np.where(k % 2 == 0, 1.0, -1.0)
        return np.vstack([d0, d1])
    j = indices[:, 0].astype(float)
    k = indices[:, 1].astype(float)
    oscil_k = 1.0 - np.where(indices[:, 1] % 2 == 0, 1.0, -1.0)
    oscil_j = 1.0 - np.where(indices[:, 0] % 2 == 0, 1.0, -1.0)
    sign_j = np.where(indices[:, 0] % 2 == 0, 1.0, -1.0)
    sign_k = np.where(indices[:, 1] % 2 == 0, 1.0, -1.0)
    fx0 = -2.0 * j * oscil_k / k
    fx1 = 2.0 * j * sign_j * oscil_k / k
    fy0 = -2.0 * k * oscil_j / j
    fy1 = 2.0 * k * sign_k * oscil_j / j
    return np.vstack([fx0, fx1, fy0, fy1])


class EigenBasis:
    """Closed-form Dirichlet eigenpairs, flattened row-major for the square."""

    def __init__(self, domain: DomainSpec, mode_count: int):
        if mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        self.domain = domain
        self.mode_count = mode_count
        if domain.kind == INTERVAL:
            k = np.arange(1, mode_count + 1)
            self.indices = k[:, None]
            self.eigenvalues = (k * np.pi) ** 2
        else:
            j, k = np.meshgrid(np.arange(1, mode_count + 1),
                               np.arange(1, mode_count + 1), indexing="ij")
            self.indices = np.column_stack([j.ravel(), k.ravel()])
            self.eigenvalues = ((self.indices**2).sum(axis=1)) * np.pi**2
        self.sqrt_eigenvalues = np.sqrt(self.eigenvalues)
        # (boundary_size, modes) each; row i of the lift, <D(delta_i), e_k> = -flux/mu_k,
        # is the harmonic extension of a unit value on boundary node/edge i
        self.boundary_flux = _boundary_flux(domain.kind, self.indices)
        self.lift_matrix = -self.boundary_flux / self.eigenvalues
        self.boundary_flux.flags.writeable = self.lift_matrix.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    # -- eigenfunction geometry -------------------------------------------

    def eval_matrix_1d(self, x: np.ndarray) -> np.ndarray:
        """(modes, len(x)) values of sqrt(2) sin(k pi x); interval only."""
        k = self.indices[:, 0]
        return SQRT2 * np.sin(np.outer(k, np.pi * x))

    def grid_points(self, n: int) -> np.ndarray:
        return np.linspace(0.0, 1.0, n + 1)


def build_basis(domain: DomainSpec, mode_count: int) -> EigenBasis:
    """Closed-form Dirichlet spectrum; eigenfunctions orthonormal in L2."""
    return EigenBasis(domain, mode_count)


# Plans kept per solution route: the mode groups of a problem or two
# (criterion 8 refines at twice the modes and steps).
PLANS = 8


def group_plans(build):
    """build(params, basis, grid, cols), the tables of the modes cols of
    basis on grid, kept by value.

    A basis is its domain and mode count, so the results are kept in an
    lru_cache of PLANS entries keyed by (params, domain, mode count, grid,
    cols.start, cols.stop): a basis built again, and every problem on the
    same basis and grid, gets the same plan, whose arrays must be
    read-only.  The wrapper has the cache's cache_info and cache_clear.
    """
    @functools.lru_cache(maxsize=PLANS)
    def cached(params, domain, mode_count, grid, start, stop):
        return build(params, EigenBasis(domain, mode_count), grid, slice(start, stop))

    @functools.wraps(build)
    def plan(params, basis: EigenBasis, grid: TimeGrid, cols: slice):
        return cached(params, basis.domain, basis.mode_count, grid, cols.start, cols.stop)

    plan.cache_info, plan.cache_clear = cached.cache_info, cached.cache_clear
    return plan


# -- fields ----------------------------------------------------------------


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass
class SpectralField:
    """Zero-trace eigen-expansion plus an optional harmonic-lifting part.

    The represented function is sum_k coeffs_k e_k + D(boundary), where D is
    the harmonic extension of the boundary node/edge values. Both arrays are
    read-only copies, so the finite checks hold for the field's lifetime.
    """

    basis: EigenBasis
    coeffs: np.ndarray
    boundary: np.ndarray | None = None

    def __post_init__(self):
        self.coeffs = _frozen(self.coeffs)
        if self.coeffs.shape != (self.basis.size,):
            raise ValueError("coefficient length must match the basis")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")
        if self.boundary is not None:
            self.boundary = _frozen(self.boundary)
            if self.boundary.shape != (self.basis.domain.boundary_size,):
                raise ValueError("boundary value count must match the domain")
            if not np.all(np.isfinite(self.boundary)):
                raise ValueError("boundary values must be finite")

    def total_coeffs(self) -> np.ndarray:
        """L2 eigen-coefficients of the full function, lifting included."""
        if self.boundary is None:
            return self.coeffs.copy()
        return self.coeffs + self.boundary @ self.basis.lift_matrix

    def boundary_values(self) -> np.ndarray:
        if self.boundary is None:
            return np.zeros(self.basis.domain.boundary_size)
        return self.boundary.copy()


# -- Sobolev norms ----------------------------------------------------------


def gram_forms(basis: EigenBasis, n: int) -> tuple[np.ndarray, ...]:
    """Gram matrices (G0, G1, G2) of the grid norms on the interval.

    The grid norms act on rows y = (interior coefficients, a, b), where a, b
    are the node values of the affine lifting: ||d_x^k u||^2 with k
    np.gradient(edge_order=2) differences and the trapezoid rule on the
    (n+1)-point grid equals y G_k y^T, so the finite-difference H^s norm of
    the evaluated field (the grid-norm referee in tests/reference.py) is
    (y (G0 + ... + Gs) y^T)^(1/2) up to rounding.  The matrices are
    built once per (modes, n) and returned read-only.
    """
    if basis.domain.kind != INTERVAL:
        raise NotImplementedError("Gram forms are implemented on the interval")
    return _interval_grams(basis.mode_count, n)


# a few (modes, n) pairs are in use at once; an entry holds 3 (modes+2)^2 floats
@functools.lru_cache(maxsize=8)
def _interval_grams(mode_count: int, n: int) -> tuple[np.ndarray, ...]:
    basis = EigenBasis(DomainSpec(INTERVAL, n), mode_count)
    x = basis.grid_points(n)
    h = 1.0 / n
    rows = np.vstack([basis.eval_matrix_1d(x), 1.0 - x, x])
    weights = composite_weights(n, h)
    grams = []
    for _ in range(3):
        gram = (rows * weights) @ rows.T
        gram.flags.writeable = False
        grams.append(gram)
        rows = np.gradient(rows, h, axis=1, edge_order=2)
    return tuple(grams)


def gram_rows(interior: np.ndarray, boundary: np.ndarray | None = None) -> np.ndarray:
    """Rows (interior coefficients, a, b) that the Gram forms act on.

    interior is (..., modes); boundary, when given, holds the matching node
    values (..., 2); without it the node values are zero.
    """
    if boundary is None:
        boundary = np.zeros(interior.shape[:-1] + (2,))
    return np.concatenate([interior, boundary], axis=-1)


def row_forms(rows: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Quadratic forms y G y^T of every row y of rows (times, modes + 2)."""
    return np.einsum("ij,ij->i", rows @ gram, rows)


# -- boundary traces --------------------------------------------------------


class NormalTrace(NamedTuple):
    series: np.ndarray   # (steps+1, 2) outward normal derivatives at x=0, x=1
    converged: bool


def normal_trace(basis: EigenBasis, coefficients: np.ndarray,
                 boundary: np.ndarray) -> NormalTrace:
    """Outward normal derivative series of a trajectory on the interval.

    coefficients are the whole function's (steps+1, modes); boundary the
    node values (steps+1, 2) of its affine lifting a + (b-a)x, with
    d_nu = [a - b, b - a].  The eigen-sum is Cauchy-tested with the lifting's
    fluxes taken out: partial sums over the lower half of the spectrum must
    stay within 5% of the sup of the full series.  Interval eigenvalues
    ascend, so that half is the leading columns, read as views.
    """
    if basis.domain.kind != INTERVAL:
        raise NotImplementedError("normal traces are implemented on the interval")
    dn = basis.boundary_flux
    half = slice(0, max(1, basis.size // 2))
    series = coefficients @ dn.T
    part = coefficients[:, half] @ dn[:, half].T
    series -= boundary @ (basis.lift_matrix @ dn.T)
    part -= boundary @ (basis.lift_matrix[:, half] @ dn[:, half].T)
    scale = np.max(np.abs(series)) + 1e-12
    converged = bool(np.max(np.abs(series - part)) <= _TRACE_RTOL * scale)
    slope = boundary[:, 0] - boundary[:, 1]
    series += np.column_stack([slope, -slope])
    return NormalTrace(series, converged)


# -- time-sampled boundary data ----------------------------------------------


def _samples(fn, times: np.ndarray, width: int, what: str = "boundary callables",
             cols: str = "nodes") -> np.ndarray:
    """fn(times) as floats of shape (len(times), width): the one read of a
    data callable, what, whose width columns are cols; by default one of
    the Dirichlet data's."""
    out = np.asarray(fn(times), dtype=float)
    if out.shape != (len(times), width):
        raise ValueError(f"{what} must map (T,) times to (T, {cols}) values: got "
                         f"{out.shape} for {len(times)} times and {width} {cols}")
    return out


@dataclass
class BoundarySignal:
    """Dirichlet data sampled in time at each boundary node/edge.

    values/dvalues/ddvalues hold g, g_t, g_tt with shape (steps+1, nodes).
    """

    grid: TimeGrid
    values: np.ndarray
    dvalues: np.ndarray
    ddvalues: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.dvalues = np.atleast_2d(np.asarray(self.dvalues, dtype=float))
        self.ddvalues = np.atleast_2d(np.asarray(self.ddvalues, dtype=float))
        expected = self.grid.steps + 1
        for arr in (self.values, self.dvalues, self.ddvalues):
            if arr.shape != self.values.shape or arr.shape[0] != expected:
                raise ValueError("signal arrays must share the time grid length")

    @classmethod
    def zero(cls, grid: TimeGrid, nodes: int) -> "BoundarySignal":
        z = np.zeros((grid.steps + 1, nodes))
        return cls(grid, z, z.copy(), z.copy())


@dataclass
class BoundaryData:
    """Analytic Dirichlet data g with its first two time derivatives gt, gtt.

    Each is a callable mapping times (T,) to values (T, nodes).  They must
    be pure, their values depending on the times alone: every mode group
    of the RK4 oracle calls g and gt from its own thread.
    """

    g: Callable[[np.ndarray], np.ndarray]
    gt: Callable[[np.ndarray], np.ndarray]
    gtt: Callable[[np.ndarray], np.ndarray]
    nodes: int = 2

    def sample(self, grid: TimeGrid) -> BoundarySignal:
        return BoundarySignal(grid, *(_samples(fn, grid.times, self.nodes)
                                      for fn in (self.g, self.gt, self.gtt)))


@dataclass
class Trajectory:
    """The solution of either route: (w, w_t, w_tt), each (steps+1, modes).

    On both routes the coefficients are the whole function's, lifting
    included, and boundary is the sampled Dirichlet signal (zeros without
    Dirichlet data), whose harmonic lifting of values / dvalues / ddvalues
    the zero-trace part of w / w_t / w_tt (interior) leaves out; the normal
    traces and the Gram rows read that part.  metadata holds what only the
    solve knows.  The normal traces and the Gram rows are computed once
    each, on first use, and kept read-only.
    """

    basis: EigenBasis
    grid: TimeGrid
    w: np.ndarray
    wt: np.ndarray
    wtt: np.ndarray
    boundary: BoundarySignal
    metadata: dict = dataclasses.field(default_factory=dict)
    traces: dict = dataclasses.field(init=False, default_factory=dict, repr=False,
                                     compare=False)
    rows: dict = dataclasses.field(init=False, default_factory=dict, repr=False,
                                   compare=False)

    def total(self, which: str) -> np.ndarray:
        """L2 eigen-coefficients of the whole function: the stored array."""
        return {"w": self.w, "wt": self.wt, "wtt": self.wtt}[which]

    def boundary_values(self, which: str) -> np.ndarray:
        sig = self.boundary
        return {"w": sig.values, "wt": sig.dvalues, "wtt": sig.ddvalues}[which]

    def interior(self, which: str, rows: slice = slice(None)) -> np.ndarray:
        """The zero-trace part of total(which) on rows: less the harmonic
        lifting of the boundary values."""
        out = np.matmul(self.boundary_values(which)[rows], self.basis.lift_matrix)
        return np.subtract(self.total(which)[rows], out, out=out)

    def trace(self, which: str) -> NormalTrace:
        if which not in self.traces:
            res = normal_trace(self.basis, self.total(which), self.boundary_values(which))
            res.series.flags.writeable = False
            self.traces[which] = res
        return self.traces[which]

    def gram_rows(self, which: str) -> np.ndarray:
        """The rows of one component at every time that the Gram forms act on."""
        if which not in self.rows:
            rows = gram_rows(self.interior(which), self.boundary_values(which))
            rows.flags.writeable = False
            self.rows[which] = rows
        return self.rows[which]
