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


def manufactured_mode_case(basis: EigenBasis, params: MgtParams, mode: int = 0,
                           freq: float = 1.0, amp: float = 1.0):
    """Manufactured solution w_k(t) = amp sin(freq t) on one mode, g = 0.

    Returns (MgtData, exact) where exact(t) gives the per-mode trajectory
    (value, first, second derivative); the forcing is chosen so the projected
    equation holds identically.
    """
    mu = basis.eigenvalues[mode]
    a, b, c2 = params.alpha, params.b, params.c**2
    s = freq

    def exact(t):
        return (amp * np.sin(s * t), amp * s * np.cos(s * t),
                -amp * s**2 * np.sin(s * t))

    def fmode(t):
        # w''' + a w'' + b mu w' + c^2 mu w for the manufactured trajectory
        w, w1, w2 = exact(t)
        w3 = -amp * s**3 * np.cos(s * t)
        return w3 + a * w2 + b * mu * w1 + c2 * mu * w

    def modes(t):
        out = np.zeros((len(t), basis.size))
        out[:, mode] = fmode(t)
        return out

    init1 = np.zeros(basis.size)
    init1[mode] = amp * s
    data = MgtData(w0=SpectralField(basis, np.zeros(basis.size)),
                   w1=SpectralField(basis, init1),
                   w2=SpectralField(basis, np.zeros(basis.size)),
                   f=ForcingData(modes=modes))
    return data, exact
