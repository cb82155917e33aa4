"""Named analytic data families for scenarios, deterministic given a seed.

Space profiles are finite eigen-expansions; time profiles come in polynomial,
trigonometric, ramp-with-kink and step flavors, each with analytic first and
second derivatives, so every hypothesis class has a family that satisfies it
and one that violates it (the kink breaks H^2 in time, the step breaks
continuity and leaves square-integrability only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .reduction import ForcingData, MgtData, MgtParams
from .spectral import BoundaryData, EigenBasis, SpectralField

TIME_FAMILIES = ("zero", "poly", "trig", "ramp_kink", "step")

def _zero(t):
    return np.zeros_like(t, dtype=float)


def time_profile(family: str, amp: float = 1.0, freq: float = 1.0,
                 phase: float = 0.0, offset: float = 0.0, knot: float = 0.4):
    """Return callables (p, p', p'') for one named time family.

    Each maps an array of times to an array of the same shape, elementwise,
    and gives the same floats as on one scalar time (powers are written as
    products because numpy's array power and scalar pow() differ by ulps).
    """
    if family == "zero":
        return _zero, _zero, _zero
    if family == "poly":
        def p(t):
            return offset + amp * (t + 0.5 * freq * (t * t) - 0.25 * (t * t * t))

        def pt(t):
            return amp * (1.0 + freq * t - 0.75 * (t * t))

        def ptt(t):
            return amp * (freq - 1.5 * t)

        return p, pt, ptt
    if family == "trig":
        def p(t):
            return offset + amp * np.sin(freq * t + phase)

        def pt(t):
            return amp * freq * np.cos(freq * t + phase)

        def ptt(t):
            return -amp * freq**2 * np.sin(freq * t + phase)

        return p, pt, ptt
    if family == "ramp_kink":
        # continuous, kinked slope at the knot: violates H^2 in time
        def p(t):
            return offset + amp * np.maximum(0.0, t - knot)

        def pt(t):
            return np.where(t > knot, amp, 0.0)

        return p, pt, _zero
    if family == "step":
        # square-integrable only
        def p(t):
            return offset + np.where(t >= knot, amp, 0.0)

        return p, _zero, _zero
    raise ValueError(f"unknown time family {family!r}")


def space_modes(basis: EigenBasis, rng: np.random.Generator, active: int = 6,
                decay: float = 2.0, amp: float = 1.0) -> np.ndarray:
    """Seeded finite eigen-expansion with power-law coefficient decay."""
    coeffs = np.zeros(basis.size)
    active = min(active, basis.size)
    draws = rng.uniform(-1.0, 1.0, size=active)
    coeffs[:active] = amp * draws / (1.0 + np.arange(active)) ** decay
    return coeffs


@dataclass
class ScenarioSpec:
    """Knobs of one named scenario; defaults give a smooth compatible case."""

    seed: int = 0
    active_modes: int = 6
    decay: float = 2.5
    w0_amp: float = 1.0
    w1_amp: float = 0.5
    w2_amp: float = 0.5
    f_family: str = "trig"
    f_amp: float = 0.3
    f_freq: float = 1.7
    g_family: str = "trig"
    g_amp: float = 0.1
    g_freq: float = 1.3
    g_offset: float = 0.05
    compatible: bool = True
    mismatch: float = 0.5
    knot: float = 0.4

    def __post_init__(self):
        for family in (self.f_family, self.g_family):
            if family not in TIME_FAMILIES:
                raise ValueError(f"unknown time family {family!r}, "
                                 f"expected one of {TIME_FAMILIES}")
        if self.active_modes < 0:
            raise ValueError(f"active_modes must be >= 0, got {self.active_modes!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")


def make_boundary(spec: ScenarioSpec, nodes: int) -> BoundaryData:
    """Per-node time profiles; node phases are staggered deterministically."""
    profiles = [time_profile(spec.g_family, amp=spec.g_amp,
                             freq=spec.g_freq * (1.0 + 0.2 * i),
                             phase=0.3 * i, offset=spec.g_offset,
                             knot=spec.knot)
                for i in range(nodes)]

    def stacked(k):
        # the k-th time derivative at every node, (T,) -> (T, nodes)
        return lambda t: np.stack([p[k](t) for p in profiles], axis=-1)

    return BoundaryData(*(stacked(k) for k in range(3)), nodes=nodes)


def make_scenario(basis: EigenBasis, spec: ScenarioSpec) -> MgtData:
    """Assemble MgtData with the compatibility switch applied to w0, w1."""
    rng = np.random.default_rng(spec.seed)
    nodes = basis.domain.boundary_size
    g = make_boundary(spec, nodes) if spec.g_family != "zero" else None

    if g is not None:
        g0, gt0 = g.g(np.zeros(1))[0], g.gt(np.zeros(1))[0]
    else:
        g0 = gt0 = np.zeros(nodes)
    w0_boundary = g0.copy()
    if not spec.compatible:
        w0_boundary = g0 + spec.mismatch

    w0 = SpectralField(basis, space_modes(basis, rng, spec.active_modes,
                                          spec.decay, spec.w0_amp), w0_boundary)
    w1 = SpectralField(basis, space_modes(basis, rng, spec.active_modes,
                                          spec.decay, spec.w1_amp), gt0.copy())
    w2 = SpectralField(basis, space_modes(basis, rng, spec.active_modes,
                                          spec.decay, spec.w2_amp))

    f = None
    if spec.f_family != "zero" and spec.f_amp != 0.0:
        coeffs = space_modes(basis, rng, spec.active_modes, spec.decay, spec.f_amp)
        prof = time_profile(spec.f_family, amp=1.0, freq=spec.f_freq,
                            knot=spec.knot)[0]
        f = ForcingData(modes=lambda t: prof(t)[:, None] * coeffs)
    return MgtData(w0=w0, w1=w1, w2=w2, f=f, g=g)


def exact_dirichlet_case(basis: EigenBasis, params: MgtParams, s: complex):
    """Closed-form solution w = Im(W e^{st}) driven by g = Im(e^{st}) on
    boundary node or edge 0, with f = 0.

    With kappa^2 = s^2 (s + alpha) / (c^2 + b s), mode k's projected equation
    holds for the total coefficient u_k e^{st}, u_k = -boundary_flux[0, k] /
    (kappa^2 + mu_k), so every mode count solves the problem exactly and time
    stepping is the only error left.  The initial data w0, w1, w2 have the
    zero-trace parts Im((u - lift_matrix[0]) s^j) and the value Im(s^j) on
    node or edge 0, j = 0, 1, 2.
    Returns (MgtData, exact): exact(t) gives the total coefficients of
    (w, w_t, w_tt) at the times t.  Raises ValueError when s is at a root of
    a mode's cubic s^3 + alpha s^2 + (b s + c^2) mu_k, where u_k is unbounded.
    """
    mu, nodes = basis.eigenvalues, basis.domain.boundary_size
    cubic = s**3 + params.alpha * s**2 + (params.b * s + params.c**2) * mu
    size = abs(s)**3 + params.alpha * abs(s)**2 + (params.b * abs(s) + params.c**2) * mu
    if np.any(np.abs(cubic) <= 1e-10 * size):
        raise ValueError(f"rate {s!r} is at a root of a mode's cubic")
    # -flux / (kappa^2 + mu), written over the cubic so that c^2 + b s = 0 is no pole
    coeffs = -(params.c**2 + params.b * s) * basis.boundary_flux[0] / cubic

    def exact(t):
        phase = np.exp(s * np.asarray(t, dtype=float))[..., None] * coeffs
        return tuple((phase * s**j).imag for j in range(3))

    def driven(j):
        def values(t):
            out = np.zeros((len(t), nodes))
            out[:, 0] = (s**j * np.exp(s * t)).imag
            return out
        return values

    w = [SpectralField(basis, ((coeffs - basis.lift_matrix[0]) * s**j).imag,
                       np.eye(nodes)[0] * (s**j).imag) for j in range(3)]
    return MgtData(*w, g=BoundaryData(*(driven(j) for j in range(3)), nodes=nodes)), exact
