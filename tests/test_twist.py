"""Twist profiles: Hamiltonians, Calabi, Hofer bound, census, truncation."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from echlab.twist import (
    FubiniCheckError,
    MonotonicityError,
    PlateauError,
    Segment,
    TwistProfile,
    calabi,
    constant_profile,
    disk_area_level,
    hofer_norm_bound,
    level_action,
    linear_profile,
    periodic_census,
    power_profile,
    profile_from_samples,
    truncate_profile,
    zero_profile,
    _hamiltonian_integral,
)

TWO_PI = 2 * math.pi


def test_hamiltonian_closed_forms():
    assert zero_profile().hamiltonian(0.3) == 0.0
    c = 2.7
    f = constant_profile(c)
    for r in (0.0, 0.25, 0.5, 1.0):
        assert abs(f.hamiltonian(r) - c * (1 - r * r) / 2) < 1e-12
    f3 = power_profile(-3)
    for r in (0.1, 0.5, 0.9):
        assert abs(f3.hamiltonian(r) - (1 / r - 1)) < 1e-12
    assert math.isinf(f3.hamiltonian(0.0))


def test_calabi_examples():
    assert calabi(zero_profile()) == 0.0
    assert abs(calabi(constant_profile(3.0)) - 1.0) < 1e-12
    assert math.isinf(calabi(power_profile(-3)))


def test_calabi_fubini_self_check():
    f = linear_profile(4.0, support_end=0.9)
    value = calabi(f, self_check_tol=1e-9)
    other, _ = quad(f.hamiltonian, 0, 1)
    assert abs(other - value) <= 1e-9 * abs(value)


# the 4-sample profile on which adaptive quadrature without breakpoints
# missed the closed form by 4e-6 relative
REPRO_SAMPLES = ([0.0, 0.1388, 0.6175, 1.0], [8.714, 2.095, 1.267, 0.0177])


def _oracle_profiles():
    yield linear_profile(4.0, support_end=0.9)
    yield linear_profile(2.2)
    yield constant_profile(3.0)
    yield constant_profile(1.5, support_end=0.6)
    yield profile_from_samples(*REPRO_SAMPLES)
    yield profile_from_samples([0.0, 0.3, 0.6, 0.85, 1.0], [5.9, 4.1, 1.7, 0.0, 0.0])
    yield power_profile(-1)
    yield power_profile(-2)
    for i in (1, 2, 3, 5, 7, 10, 20, 50, 100, 200, 333, 500, 999, 1000):
        yield truncate_profile(power_profile(-3), i)


def test_hamiltonian_integral_matches_quad_oracle():
    # scipy's adaptive quadrature, told the breakpoints and run to 1e-13, is
    # the independent oracle for the per-segment tanh-sinh sum
    for f in _oracle_profiles():
        breakpoints = [seg.lo for seg in f.segments[1:]]
        oracle, _ = quad(f.hamiltonian, 0.0, 1.0, points=breakpoints or None,
                         epsabs=0.0, epsrel=1e-13, limit=500)
        got = _hamiltonian_integral(f)
        assert abs(got - oracle) <= 1e-11 * abs(oracle), f.name
        assert calabi(f) == f.calabi_closed_form()


def test_fubini_self_check_catches_a_perturbed_closed_form(monkeypatch):
    closed_form = TwistProfile.calabi_closed_form
    monkeypatch.setattr(TwistProfile, "calabi_closed_form", lambda f: closed_form(f) * (1 + 1e-8))
    for f in _oracle_profiles():
        with pytest.raises(FubiniCheckError, match="Fubini self-check failed"):
            calabi(f)
        assert calabi(f, self_check_tol=None) == closed_form(f) * (1 + 1e-8)


@st.composite
def sampled_profiles(draw):
    """Monotone sampled profiles with 3 to 15 samples spanning [0, 1]."""
    n = draw(st.integers(3, 15))
    inner = draw(st.lists(st.integers(1, 9999), min_size=n - 2, max_size=n - 2, unique=True))
    values = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    return [0.0] + sorted(k / 10000 for k in inner) + [1.0], sorted(values, reverse=True)


@settings(max_examples=60, deadline=None)
@given(sampled_profiles())
@example(REPRO_SAMPLES)
@example(([0.0, 0.7429, 0.743, 1.0], [6.329687602035006, 6.329687602035006, 0.0, 0.0]))
def test_calabi_self_check_holds_on_sampled_profiles(samples):
    f = profile_from_samples(*samples)
    assert calabi(f) == f.calabi_closed_form()


def test_hofer_norm_bound():
    assert hofer_norm_bound(zero_profile()) == 0.0
    assert abs(hofer_norm_bound(constant_profile(2.0)) - 1.0) < 1e-12
    assert math.isinf(hofer_norm_bound(power_profile(-3)))


def test_monotonicity_certificate():
    for build, message in (
        (lambda: profile_from_samples([0.0, 0.5, 1.0], [1.0, 2.0, 0.0]), "profile increases near r="),
        # 1 + 1e-6 s - s^2 / 2 rises by about 5e-13 near 0, inside the sample
        # test's slack, so only the slope check refuses it
        (lambda: TwistProfile([Segment(0.0, 1.0, ((1.0, 0), (1e-6, 1), (-0.5, 2)))]),
         r"positive slope on segment \[0.0, 1.0\]"),
    ):
        with pytest.raises(MonotonicityError, match=message):
            build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: constant_profile(-1.0), id="constant_profile(-1.0)"),
    pytest.param(lambda: constant_profile(math.nan, support_end=0.9), id="constant_profile(nan)"),
    pytest.param(lambda: constant_profile(-1.0, support_end=0.5), id="constant_profile(-1.0, support_end=0.5)"),
    pytest.param(lambda: linear_profile(-2.0), id="linear_profile(-2.0)"),
    pytest.param(lambda: linear_profile(-2.0, support_end=0.9), id="linear_profile(-2.0, support_end=0.9)"),
    pytest.param(lambda: power_profile(-3, coefficient=-1.0), id="power_profile(-3, coefficient=-1.0)"),
    pytest.param(lambda: power_profile(2), id="power_profile(2)"),
    pytest.param(lambda: linear_profile(2.0, support_end=0.9).scaled(-1.0), id="scaled(-1.0)"),
    pytest.param(lambda: profile_from_samples([0.0, 0.5, 1.0], [1.0, 2.0, 0.0]), id="profile_from_samples"),
    pytest.param(lambda: TwistProfile([Segment(0.0, 1.0, ((0.0, 0), (1.0, 1)))]), id="TwistProfile"),
    pytest.param(lambda: TwistProfile.from_json({"type": "piecewise", "segments": [
        {"lo": 0.0, "hi": 0.9, "terms": [[-2.0, 0], [2.0 / 0.9, 1]]},
        {"lo": 0.9, "hi": 1.0, "terms": [[0.0, 0]]}]}), id="from_json"),
])
def test_every_constructor_certifies(build):
    # zero_profile takes no twist, and truncate_profile keeps a certified
    # profile non-increasing; every other way in must refuse a negative,
    # increasing or undefined (NaN) twist
    with pytest.raises(MonotonicityError):
        build()


def test_certificate_allows_rounding_where_a_steep_segment_reaches_zero():
    # intercept + slope * r rounds to about -1e-10 and -7e-12 at the zero sample
    for r, f in (([0.0, 0.30880888163698306, 1.0], [741255.017416256, 0.0, 0.0]),
                 ([0.0, 0.7429, 0.743, 1.0], [6.329687602035006, 6.329687602035006, 0.0, 0.0])):
        profile = profile_from_samples(r, f)
        assert calabi(profile) == profile.calabi_closed_form()
    with pytest.raises(MonotonicityError, match="negative twist angle"):
        profile_from_samples([0.0, 0.5, 1.0], [1.0, 0.5, -1e-9])


def test_census_linear_profile():
    # rotation falls linearly from 1.5 turns at the center to 0 at the boundary
    f = linear_profile(TWO_PI * 1.5)
    circles = periodic_census(f, 2)
    levels = {(c.p, c.q) for c in circles}
    assert levels == {(1, 1), (1, 2)}
    for c in circles:
        # closed-form inverse of the linear profile as the oracle
        assert abs(c.radius - (1 - (c.p / c.q) / 1.5)) < 1e-9
    assert periodic_census(f, 1) and all(c.q == 1 for c in periodic_census(f, 1))


def test_census_empty_for_zero_profile():
    assert periodic_census(zero_profile(), 5) == []


def test_census_plateau_rejected():
    f = constant_profile(TWO_PI * 0.5, support_end=0.7)  # plateau exactly at 1/2 turn
    with pytest.raises(PlateauError):
        periodic_census(f, 2)


def test_census_divergent_center_rejected():
    with pytest.raises(ValueError):
        periodic_census(power_profile(-3), 3)


@pytest.mark.parametrize("d", [0, -2])
def test_census_degree_below_1_rejected(d):
    # no degree below 1 has levels, so an empty census would be vacuous, not a result
    for f in (linear_profile(TWO_PI * 1.5, support_end=0.9), power_profile(-3)):
        with pytest.raises(ValueError, match="^degree must be >= 1$"):
            periodic_census(f, d)


def test_level_action_against_flow_quadrature():
    # independent oracle: q * H(r) by time integration plus p * swept area
    f = linear_profile(TWO_PI * 1.2, support_end=0.95)
    for circle in periodic_census(f, 3):
        h_term = circle.q * f.hamiltonian(circle.radius)
        area, _ = quad(lambda s: s, circle.radius, 1.0)
        oracle = h_term + circle.p * TWO_PI * area
        assert abs(level_action(f, circle.p, circle.q, circle.radius) - oracle) < 1e-9
        assert abs(TWO_PI * disk_area_level(circle.radius) - TWO_PI * area) < 1e-12


def test_truncation_pointwise_monotone():
    f = power_profile(-3)
    for i in (1, 2, 5, 9):
        fi, fj = truncate_profile(f, i), truncate_profile(f, i + 1)
        for r in (0.001, 0.01, 0.2, 0.7, 1.0):
            assert fi(r) <= fj(r) + 1e-12
            assert fj(r) <= f(r) + 1e-12
            if r >= 1.0 / i:
                assert fi(r) == f(r)


def test_truncated_calabi_closed_form():
    f = power_profile(-3)
    for i in (2, 5, 10, 20):
        got = calabi(truncate_profile(f, i))
        assert abs(got - (math.log(i) + 1.0 / 3.0)) < 1e-9


def test_profile_json_roundtrip():
    f = linear_profile(3.3, support_end=0.85)
    g = TwistProfile.from_json(json.loads(json.dumps(f.to_json())))
    for r in (0.1, 0.4, 0.8, 1.0):
        assert abs(f(r) - g(r)) < 1e-15
    s = profile_from_samples([0.0, 0.4, 0.8, 1.0], [2.0, 1.0, 0.0, 0.0])
    doc = {"type": "samples", "r": [0.0, 0.4, 0.8, 1.0], "f": [2.0, 1.0, 0.0, 0.0]}
    s2 = TwistProfile.from_json(doc)
    for r in (0.2, 0.6, 0.9):
        assert abs(s(r) - s2(r)) < 1e-15
    assert s.support_flag


def test_support_flag():
    assert not constant_profile(1.0).support_flag
    assert constant_profile(1.0, support_end=0.9).support_flag
    assert zero_profile().support_flag is False or zero_profile()(1.0) == 0.0
    assert linear_profile(2.0, support_end=0.9).support_flag
