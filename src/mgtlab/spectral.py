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

# terms kept when evaluating the square-domain harmonic lifting
_SQUARE_LIFT_TERMS = 128

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
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        """The grid's times, built once per (horizon, steps) and read-only."""
        return _grid_times(self.horizon, self.steps)


def _once(method):
    """A basis array built on first use and kept, read-only, on the basis."""
    name = "_" + method.__name__

    @functools.wraps(method)
    def stored(self):
        arr = self.__dict__.get(name)
        if arr is None:
            arr = method(self)
            arr.flags.writeable = False
            setattr(self, name, arr)
        return arr

    return stored


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

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    # -- eigenfunction geometry -------------------------------------------

    def eval_matrix_1d(self, x: np.ndarray) -> np.ndarray:
        """(modes, len(x)) values of sqrt(2) sin(k pi x); interval only."""
        k = self.indices[:, 0]
        return SQRT2 * np.sin(np.outer(k, np.pi * x))

    def grid_points(self, n: int | None = None) -> np.ndarray:
        n = n or self.domain.grid_points_per_axis
        return np.linspace(0.0, 1.0, n + 1)

    @_once
    def boundary_flux(self) -> np.ndarray:
        """(boundary_size, modes) pairings  integral_Gamma_i  d_nu e_k  dsigma.

        For the interval the boundary measure is counting measure, so the rows
        are the pointwise normal derivatives of each mode at x=0 and x=1
        (outward normals -d/dx and +d/dx).  For the square each row is the
        line integral of d_nu e over one edge (x=0, x=1, y=0, y=1) against
        constant edge data.
        """
        if self.domain.kind == INTERVAL:
            k = self.indices[:, 0]
            d0 = -SQRT2 * k * np.pi
            d1 = SQRT2 * k * np.pi * np.where(k % 2 == 0, 1.0, -1.0)
            return np.vstack([d0, d1])
        j = self.indices[:, 0].astype(float)
        k = self.indices[:, 1].astype(float)
        oscil_k = 1.0 - np.where(self.indices[:, 1] % 2 == 0, 1.0, -1.0)
        oscil_j = 1.0 - np.where(self.indices[:, 0] % 2 == 0, 1.0, -1.0)
        sign_j = np.where(self.indices[:, 0] % 2 == 0, 1.0, -1.0)
        sign_k = np.where(self.indices[:, 1] % 2 == 0, 1.0, -1.0)
        fx0 = -2.0 * j * oscil_k / k
        fx1 = 2.0 * j * sign_j * oscil_k / k
        fy0 = -2.0 * k * oscil_j / j
        fy1 = 2.0 * k * sign_k * oscil_j / j
        return np.vstack([fx0, fx1, fy0, fy1])

    @_once
    def lift_matrix(self) -> np.ndarray:
        """(boundary_size, modes) eigen-coefficients of unit boundary data.

        Row i holds <D(delta_i), e_k> = -(1/mu_k) * flux, the coefficients of
        the harmonic extension of a unit value on boundary node/edge i.
        """
        return -self.boundary_flux() / self.eigenvalues


def build_basis(domain: DomainSpec, mode_count: int) -> EigenBasis:
    """Closed-form Dirichlet spectrum; eigenfunctions orthonormal in L2."""
    return EigenBasis(domain, mode_count)


# -- fields ----------------------------------------------------------------


@dataclass
class SpectralField:
    """Zero-trace eigen-expansion plus an optional harmonic-lifting part.

    The represented function is sum_k coeffs_k e_k + D(boundary), where D is
    the harmonic extension of the boundary node/edge values.
    """

    basis: EigenBasis
    coeffs: np.ndarray
    boundary: np.ndarray | None = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.size,):
            raise ValueError("coefficient length must match the basis")
        if self.boundary is not None:
            self.boundary = np.asarray(self.boundary, dtype=float)
            if self.boundary.shape != (self.basis.domain.boundary_size,):
                raise ValueError("boundary value count must match the domain")
            if not np.all(np.isfinite(self.boundary)):
                raise ValueError("boundary values must be finite")

    def total_coeffs(self) -> np.ndarray:
        """L2 eigen-coefficients of the full function, lifting included."""
        if self.boundary is None:
            return self.coeffs.copy()
        return self.coeffs + self.boundary @ self.basis.lift_matrix()

    def boundary_values(self) -> np.ndarray:
        if self.boundary is None:
            return np.zeros(self.basis.domain.boundary_size)
        return self.boundary.copy()

    def evaluate(self, n: int | None = None) -> np.ndarray:
        """Values on the uniform physical grid (1D array, or 2D for the square)."""
        if self.basis.domain.kind == INTERVAL:
            x = self.basis.grid_points(n)
            vals = self.coeffs @ self.basis.eval_matrix_1d(x)
            if self.boundary is not None:
                vals = vals + lifting_values_interval(self.boundary, x)
            return vals
        n = n or self.basis.domain.grid_points_per_axis
        x = self.basis.grid_points(n)
        nm = self.basis.mode_count
        cmat = self.coeffs.reshape(nm, nm)
        sx = np.sin(np.outer(np.arange(1, nm + 1) * np.pi, x))
        vals = 2.0 * sx.T @ cmat @ sx
        if self.boundary is not None:
            vals = vals + lifting_values_square(self.boundary, x)
        return vals


def lifting_values_interval(boundary: np.ndarray, x: np.ndarray) -> np.ndarray:
    # 1D harmonic functions are affine
    a, b = boundary
    return a + (b - a) * x


def lifting_values_square(boundary: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Harmonic extension of constant-per-edge data on the tensor grid x (x) x."""
    xx, yy = np.meshgrid(x, x, indexing="ij")
    out = np.zeros_like(xx)
    k = np.arange(1, _SQUARE_LIFT_TERMS + 1)
    amp = 2.0 * (1.0 - (-1.0) ** k) / (k * np.pi)  # Fourier sine coefficients of 1
    for edge, value in enumerate(boundary):
        if value == 0.0:
            continue
        if edge in (0, 1):  # x = 0 or x = 1
            depth = xx if edge == 0 else 1.0 - xx
            trans = yy
        else:  # y = 0 or y = 1
            depth = yy if edge == 2 else 1.0 - yy
            trans = xx
        # sinh(k pi (1-d)) / sinh(k pi) in overflow-safe exponential form
        kd = k[:, None, None] * np.pi
        ratio = np.exp(-kd * depth[None]) * (1.0 - np.exp(-2.0 * kd * (1.0 - depth[None])))
        ratio /= 1.0 - np.exp(-2.0 * kd)
        sines = np.sin(kd * trans[None])
        out += value * np.tensordot(amp, ratio * sines, axes=(0, 0))
    return out


# -- Sobolev norms ----------------------------------------------------------


def _l2sq(arr: np.ndarray, spacings) -> float | np.ndarray:
    """Squared L2 norm of grid samples: nested trapezoid rules, last axis first.

    The rules run over the trailing len(spacings) axes; leading axes are a
    batch and give an array, no batch gives a float.
    """
    out = arr**2
    for h in reversed(list(spacings)):
        out = np.trapezoid(out, dx=h, axis=-1)
    return out if out.ndim else float(out)


def grid_sobolev_norm(values: np.ndarray, spacings, s: int) -> float | np.ndarray:
    """Finite-difference H^s norm of grid samples; s in {0, 1, 2}.

    The norm is taken over the trailing len(spacings) axes.  Leading axes,
    if any, are a batch: the result is then an array of norms, each equal
    to the norm of its own samples.
    """
    if s not in (0, 1, 2):
        raise ValueError("s must be one of 0, 1, 2")
    values = np.asarray(values, dtype=float)
    if np.isscalar(spacings):
        spacings = [spacings] * values.ndim
    nd = len(spacings)
    if not 0 < nd <= values.ndim:
        raise ValueError("one spacing per (trailing) axis is required")

    total = _l2sq(values, spacings)
    if s >= 1:
        grads = [np.gradient(values, h, axis=ax - nd, edge_order=2)
                 for ax, h in enumerate(spacings)]
        total += sum(_l2sq(g, spacings) for g in grads)
    if s == 2:
        # one term per multi-index: (2,0), (1,1), (0,2) in 2D
        for ax1, g in enumerate(grads):
            for ax2 in range(ax1, nd):
                gg = np.gradient(g, spacings[ax2], axis=ax2 - nd, edge_order=2)
                total += _l2sq(gg, spacings)
    return np.sqrt(total) if values.ndim > nd else float(np.sqrt(total))


def sobolev_norm(target, s: int, method: str = "spectral",
                 n: int | None = None) -> float:
    """H^s norm of a SpectralField (or raw grid samples), s in {0, 1, 2}.

    method="spectral" returns (sum (1+mu_k)^s |u_k|^2)^(1/2) over the total
    eigen-coefficients; it is equivalent to H^s only for zero-trace fields
    when s > 1/2, so grid norms are the norm of record for lifted fields.
    method="grid" evaluates the field and applies finite differences.
    """
    if s not in (0, 1, 2):
        raise ValueError("s must be one of 0, 1, 2")
    if isinstance(target, SpectralField):
        if method == "spectral":
            u = target.total_coeffs()
            return float(np.sqrt(np.sum((1.0 + target.basis.eigenvalues) ** s * u**2)))
        if method == "grid":
            npts = n or target.basis.domain.grid_points_per_axis
            h = 1.0 / npts
            vals = target.evaluate(npts)
            return grid_sobolev_norm(vals, [h] * vals.ndim, s)
        raise ValueError(f"unknown norm method {method!r}")
    if method != "grid":
        raise ValueError("raw grid samples support only the grid method")
    values = np.asarray(target, dtype=float)
    h = 1.0 / (values.shape[0] - 1)
    return grid_sobolev_norm(values, [h] * values.ndim, s)


def gram_forms(basis: EigenBasis, n: int | None = None) -> tuple[np.ndarray, ...]:
    """Gram matrices (G0, G1, G2) of the grid norms on the interval.

    The grid norms act on rows y = (interior coefficients, a, b), where a, b
    are the node values of the affine lifting: ||d_x^k u||^2 with k
    np.gradient(edge_order=2) differences and the trapezoid rule on the
    (n+1)-point grid equals y G_k y^T, so grid_sobolev_norm of the evaluated
    field is (y (G0 + ... + Gs) y^T)^(1/2) up to rounding.  The matrices are
    built once per (modes, n) and returned read-only.
    """
    if basis.domain.kind != INTERVAL:
        raise NotImplementedError("Gram forms are implemented on the interval")
    return _interval_grams(basis.mode_count, n or basis.domain.grid_points_per_axis)


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


def normal_trace(basis: EigenBasis, interior: np.ndarray,
                 boundary: np.ndarray | None = None) -> NormalTrace:
    """Outward normal derivative series of a trajectory on the interval.

    interior holds zero-trace coefficients (steps+1, modes); boundary, when
    given, holds the node values (steps+1, 2) whose affine lifting a + (b-a)x
    contributes d_nu = [a - b, b - a].  The eigen-sum is Cauchy-tested on the
    zero-trace part: partial sums over the lower half of the spectrum must
    stay within 5% of the sup of the full series.  Interval eigenvalues
    ascend, so that half is the leading columns, read as views.
    """
    if basis.domain.kind != INTERVAL:
        raise NotImplementedError("normal traces are implemented on the interval")
    dn = basis.boundary_flux()
    series = interior @ dn.T
    half = slice(0, max(1, basis.size // 2))
    part = interior[:, half] @ dn[:, half].T
    scale = np.max(np.abs(series)) + 1e-12
    converged = bool(np.max(np.abs(series - part)) <= _TRACE_RTOL * scale)
    if boundary is not None:
        slope = boundary[:, 0] - boundary[:, 1]
        series += np.column_stack([slope, -slope])
    return NormalTrace(series, converged)


# -- time-sampled boundary data ----------------------------------------------


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
        times = grid.times
        return BoundarySignal(grid, *(self._sampled(fn, times)
                                      for fn in (self.g, self.gt, self.gtt)))

    def _sampled(self, fn, times: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(times), dtype=float)
        if out.shape != (len(times), self.nodes):
            raise ValueError("boundary callables must map (T,) times to (T, nodes) values")
        return out


@dataclass
class Trajectory:
    """Coefficient trajectories of (w, w_t, w_tt), each of shape (steps+1, modes).

    As in SpectralField, the coefficients are the whole function when
    boundary is None; otherwise they are the zero-trace part, and the harmonic
    lifting of boundary.values / dvalues / ddvalues completes w / w_t / w_tt.
    The normal traces and the Gram rows are computed once each, on first
    use, and kept read-only.
    """

    basis: EigenBasis
    grid: TimeGrid
    w: np.ndarray
    wt: np.ndarray
    wtt: np.ndarray
    boundary: BoundarySignal | None
    traces: dict = dataclasses.field(init=False, default_factory=dict, repr=False,
                                     compare=False)
    rows: dict = dataclasses.field(init=False, default_factory=dict, repr=False,
                                   compare=False)

    def interior(self, which: str) -> np.ndarray:
        return {"w": self.w, "wt": self.wt, "wtt": self.wtt}[which]

    def boundary_values(self, which: str) -> np.ndarray | None:
        if self.boundary is None:
            return None
        sig = self.boundary
        return {"w": sig.values, "wt": sig.dvalues, "wtt": sig.ddvalues}[which]

    def total(self, which: str) -> np.ndarray:
        """L2 eigen-coefficients of the whole function, lifting included."""
        if self.boundary is None:
            return self.interior(which)
        lifted = self.boundary_values(which) @ self.basis.lift_matrix()
        return np.add(self.interior(which), lifted, out=lifted)

    def trace(self, which: str) -> NormalTrace:
        if which not in self.traces:
            res = normal_trace(self.basis, self.interior(which), self.boundary_values(which))
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
