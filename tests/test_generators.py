"""Named data families: derivatives, determinism, compatibility switch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgtlab.generators import (
    TIME_FAMILIES,
    ScenarioSpec,
    exact_dirichlet_case,
    make_boundary,
    make_scenario,
    space_modes,
    time_profile,
)
from mgtlab.harness import ScenarioConfig
from mgtlab.modal_oracle import solve_by_modes
from mgtlab.reduction import MgtParams, solve_mgt
from mgtlab.spectral import DomainSpec, TimeGrid, build_basis

BASIS = build_basis(DomainSpec("interval", 256), 8)


@pytest.mark.parametrize("family", ["poly", "trig"])
def test_smooth_family_derivatives(family):
    p, pt, ptt = time_profile(family, amp=0.8, freq=1.7, offset=0.2)
    h = 1e-5
    for t in (0.1, 0.5, 1.2):
        fd1 = (p(t + h) - p(t - h)) / (2 * h)
        fd2 = (pt(t + h) - pt(t - h)) / (2 * h)
        assert pt(t) == pytest.approx(fd1, abs=1e-7)
        assert ptt(t) == pytest.approx(fd2, abs=1e-7)


def test_ramp_kink_profile():
    p, pt, ptt = time_profile("ramp_kink", amp=2.0, knot=0.4)
    assert p(0.3) == 0.0
    assert p(0.9) == pytest.approx(1.0)
    assert pt(0.3) == 0.0 and pt(0.5) == 2.0
    assert ptt(1.0) == 0.0


def test_step_profile():
    p, pt, _ = time_profile("step", amp=1.5, knot=0.4)
    assert p(0.39) == 0.0 and p(0.4) == 1.5
    assert pt(0.8) == 0.0


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(TIME_FAMILIES),
       amp=st.floats(-5.0, 5.0), freq=st.floats(0.0, 10.0),
       phase=st.floats(-np.pi, np.pi), offset=st.floats(-1.0, 1.0),
       knot=st.floats(0.0, 2.0),
       times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=16))
def test_time_profile_array_matches_scalar(family, amp, freq, phase, offset, knot, times):
    # one array call gives the stacked scalar calls bit for bit, also at the knot
    t = np.array(times + [knot])
    for fn in time_profile(family, amp=amp, freq=freq, phase=phase,
                           offset=offset, knot=knot):
        got = fn(t)
        assert got.shape == t.shape
        assert np.array_equal(got, np.stack([fn(float(x)) for x in t]))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        time_profile("sawtooth")
    with pytest.raises(ValueError, match="config.scenario.*bogus"):
        ScenarioConfig.from_dict({"scenario": {"g_family": "trig", "bogus": 1}})


@pytest.mark.parametrize("override", [{"active_modes": -1}, {"f_amp": float("nan")},
                                      {"g_freq": float("inf")}, {"knot": -float("inf")}])
def test_scenario_rejects_out_of_range_values(override):
    name = next(iter(override))
    with pytest.raises(ValueError, match=name):
        ScenarioSpec(**override)


def test_space_modes_deterministic_and_decaying():
    a = space_modes(BASIS, np.random.default_rng(3), active=6, decay=2.0)
    b = space_modes(BASIS, np.random.default_rng(3), active=6, decay=2.0)
    assert np.array_equal(a, b)
    assert np.all(a[6:] == 0.0)


def test_scenario_compatibility_switch():
    good = make_scenario(BASIS, ScenarioSpec(seed=0, compatible=True))
    assert good.compatible_position and good.compatible_velocity
    bad = make_scenario(BASIS, ScenarioSpec(seed=0, compatible=False, mismatch=0.3))
    assert not bad.compatible_position
    assert np.max(np.abs(bad.w0.boundary_values()
                         - good.w0.boundary_values())) == pytest.approx(0.3)


def test_boundary_nodes_match_domain():
    spec = ScenarioSpec(seed=0)
    g = make_boundary(spec, 4)
    assert g.g(np.zeros(3)).shape == (3, 4)


def test_square_domain_cross_route():
    # constant-per-edge Dirichlet data on the unit square, full pipeline
    params = MgtParams(alpha=2.0, b=1.0, c=1.0)
    basis = build_basis(DomainSpec("square", 64), 4)
    grid = TimeGrid(0.5, 2000)
    data = make_scenario(basis, ScenarioSpec(seed=2))
    assert data.compatible_position
    bundle = solve_mgt(data, params, grid)
    oracle = solve_by_modes(data, params, grid)
    num = np.max(np.linalg.norm(bundle.total("w") - oracle.w, axis=1))
    den = np.max(np.linalg.norm(oracle.w, axis=1))
    assert num / den < 1e-5


@pytest.mark.parametrize("kind, s", [("interval", 4j), ("interval", 0.5 + 2j),
                                     ("square", -0.3 + 4j)])
def test_exact_dirichlet_case_initial_data(kind, s):
    # the complex coefficients u, read back from exact(0) = (Im u, Im us, Im us^2),
    # solve each mode's cubic: (s^3 + alpha s^2 + (b s + c^2) mu) u = -(c^2 + b s) flux_0
    params = MgtParams(alpha=2.0, b=1.0, c=1.0)
    basis = build_basis(DomainSpec(kind, 64), 4)
    data, exact = exact_dirichlet_case(basis, params, s)
    w, wt, wtt = exact(0.0)
    u = (wt - w * s.real) / s.imag + 1j * w
    mu = basis.eigenvalues
    cubic = s**3 + params.alpha * s**2 + (params.b * s + params.c**2) * mu
    np.testing.assert_allclose(cubic * u, -(params.c**2 + params.b * s) * basis.boundary_flux[0],
                               rtol=1e-13, atol=1e-13)
    for field, ref in zip((data.w0, data.w1, data.w2), (w, wt, wtt)):
        np.testing.assert_allclose(field.total_coeffs(), ref, rtol=1e-14, atol=1e-14)
    assert data.compatible_position and data.compatible_velocity and data.f is None
    np.testing.assert_allclose(exact(np.array([0.3]))[2][0],
                               (u * s**2 * np.exp(0.3 * s)).imag, rtol=1e-14, atol=1e-14)


def test_exact_dirichlet_case_rejects_a_resonant_rate():
    # at a root of mode 2's cubic the coefficient of that mode is unbounded
    params = MgtParams(alpha=2.0, b=1.0, c=1.0)
    mu = BASIS.eigenvalues[1]
    roots = np.roots([1.0, params.alpha, params.b * mu, params.c**2 * mu])
    root = complex(roots[np.argmax(roots.imag)])
    with pytest.raises(ValueError, match="root of a mode's cubic"):
        exact_dirichlet_case(BASIS, params, root)
    exact_dirichlet_case(BASIS, params, root + 0.01)
