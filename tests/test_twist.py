"""Twist profiles: Hamiltonians, Calabi, Hofer bound, census, truncation."""

import json
import math

import pytest
from scipy.integrate import quad

from echlab.twist import (
    PlateauError,
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
    assert math.isinf(f3.hamiltonian_at_center())


def test_calabi_examples():
    assert calabi(zero_profile()) == 0.0
    assert abs(calabi(constant_profile(3.0)) - 1.0) < 1e-12
    assert math.isinf(calabi(power_profile(-3)))


def test_calabi_fubini_self_check():
    f = linear_profile(4.0, support_end=0.9)
    value = calabi(f, self_check_tol=1e-9)
    other, _ = quad(f.hamiltonian, 0, 1)
    assert abs(other - value) <= 1e-9 * abs(value)


def test_calabi_additivity():
    f = linear_profile(3.0, support_end=0.8)
    g = constant_profile(1.5, support_end=0.6)
    assert abs(calabi(f + g) - calabi(f) - calabi(g)) < 1e-12


def test_hofer_norm_bound():
    assert hofer_norm_bound(zero_profile()) == 0.0
    assert abs(hofer_norm_bound(constant_profile(2.0)) - 1.0) < 1e-12
    assert math.isinf(hofer_norm_bound(power_profile(-3)))


def test_monotonicity_certificate():
    with pytest.raises(Exception):
        profile_from_samples([0.0, 0.5, 1.0], [1.0, 2.0, 0.0])


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
