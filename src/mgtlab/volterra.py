"""Second-kind Volterra solvers: direct collocation and the Picard series.

Both methods discretize v + L*v = h with the same product-quadrature weights,
so the Picard iteration is the Neumann series of the collocated system and
the two solutions agree to the series truncation tolerance, independently of
the quadrature error against the continuum solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import composite_weights, convolve_product
from .spectral import TimeGrid

DEFAULT_RULE = "gregory4"


class VolterraSingularError(RuntimeError):
    """Raised when the implicit collocation coefficient degenerates."""


@dataclass
class VolterraProblem:
    """Collocation data for v + L*v = h on a uniform grid.

    kernel holds the samples l(t_m) on the grid.  rhs may be (steps+1,) for a
    scalar problem or (steps+1, n) for a diagonal family; in the latter case
    the kernel is one shared column or n matching columns.
    """

    kernel: np.ndarray
    rhs: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.kernel = np.asarray(self.kernel, dtype=float)
        if self.rhs.shape[0] != self.grid.steps + 1:
            raise ValueError("rhs must be sampled on the grid")
        if self.kernel.ndim == 1 and self.rhs.ndim == 2:
            self.kernel = np.broadcast_to(self.kernel[:, None], self.rhs.shape).copy()
        if self.kernel.shape != self.rhs.shape:
            raise ValueError("kernel samples must match the rhs columns")


def solve_direct(problem: VolterraProblem, rule: str = DEFAULT_RULE) -> np.ndarray:
    """Forward-substitution collocation solve of v + L*v = h.

    At each node: v_m + sum_{j<=m} w_j l(t_m - t_j) v_j = h_m, with the
    implicit diagonal term divided out exactly.
    """
    h = problem.rhs
    scalar = h.ndim == 1
    if scalar:
        h = h[:, None]
    ker = problem.kernel
    if ker.ndim == 1:
        ker = ker[:, None]
    m_top = problem.grid.steps
    dt = problem.grid.dt
    v = np.empty_like(h)
    v[0] = h[0]
    for m in range(1, m_top + 1):
        w = composite_weights(m, dt, rule)
        history = np.einsum("j,jc->c", w[:m], ker[m:0:-1] * v[:m])
        diag = 1.0 + w[m] * ker[0]
        if np.any(np.abs(diag) < 1e-12):
            raise VolterraSingularError(
                f"implicit coefficient |1 + w_m l(0)| < 1e-12 at step {m}")
        v[m] = (h[m] - history) / diag
    return v[:, 0] if scalar else v


@dataclass
class PicardResult:
    values: np.ndarray
    terms_used: int
    converged: bool
    last_term_sup: float


def solve_picard(problem: VolterraProblem, max_terms: int = 80,
                 tol: float = 1e-10, rule: str = DEFAULT_RULE) -> PicardResult:
    """Picard (Neumann) series h + sum_k (-1)^k L^{(*k)} * h.

    Each term applies the discrete convolution operator to the previous one;
    the series is truncated when the sup norm of the latest term drops below
    tol, and a non-convergence flag is reported if max_terms is exhausted.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    h = problem.rhs
    ker = problem.kernel
    dt = problem.grid.dt
    total = h.copy()
    term = h
    sup = float(np.max(np.abs(term))) if term.size else 0.0
    used = 1
    for k in range(1, max_terms + 1):
        term = -convolve_product(ker, term, dt, rule)
        sup = float(np.max(np.abs(term)))
        total = total + term
        used = k
        if sup < tol:
            return PicardResult(total, used, True, sup)
    return PicardResult(total, used, False, sup)
