"""Rotation numbers, Conley-Zehnder indices, and partition constructions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echlab.orbits import ELLIPTIC, NEGATIVE_HYPERBOLIC, POSITIVE_HYPERBOLIC, OrbitSet, SimpleOrbit
from echlab.rotations import (
    REAL_GUARD,
    DegenerateRotationError,
    Rotation,
    cz_index,
    partition_negative,
    partition_positive,
    partition_properties,
)

from oracles import hull_partition, hyperbolic_expectation, staircase_partition


def test_cz_examples():
    assert cz_index(Fraction(3, 10), 1) == 1
    assert cz_index(0, 5) == 0
    assert cz_index(Fraction(2, 3), 3) == 4


def test_cz_degenerate_real_rotation_raises():
    with pytest.raises(DegenerateRotationError):
        cz_index(Rotation.real(0.5000000000000001), 2)


def test_real_lane_guard_is_one_threshold():
    # theta about 1e-13 from an integer or a half-integer puts its multiples
    # inside the 1e-12 guard, about 1e-9 away puts them outside; every
    # consumer of the guard must draw the line in the same place
    for base in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)):
        for offset in (1e-13, -1e-13, 1e-9, -1e-9):
            rot = Rotation.real(float(base) + offset)
            inside = abs(offset) < REAL_GUARD
            assert rot.is_integral() == (inside and base.denominator == 1)
            assert rot.is_half_integral() == (inside and base.denominator == 2)
            kind = ELLIPTIC
            if inside:
                kind = POSITIVE_HYPERBOLIC if base.denominator == 1 else NEGATIVE_HYPERBOLIC
            orbit = SimpleOrbit("g", Fraction(1), rot, kind)
            for m in range(1, 6):
                # degenerate: k * theta sits on an integer, for k = m or some k <= m
                top = inside and (m * base).denominator == 1
                covers = inside and any((k * base).denominator == 1 for k in range(1, m + 1))
                if top:
                    with pytest.raises(DegenerateRotationError):
                        cz_index(rot, m)
                else:
                    x = m * rot.value
                    assert cz_index(rot, m) == math.floor(x) + math.ceil(x)
                for call in (lambda: partition_positive(rot, m), lambda: partition_negative(rot, m),
                             lambda: OrbitSet([(orbit, m)])):
                    if covers:
                        with pytest.raises(DegenerateRotationError):
                            call()
                    else:
                        call()
                if m < 2:
                    continue
                if rot.is_integral():
                    with pytest.raises(ValueError):
                        partition_properties(rot, m)
                elif covers:
                    with pytest.raises(DegenerateRotationError):
                        partition_properties(rot, m)
                else:
                    rep = partition_properties(rot, m)
                    assert rep["reversal_applicable"] and rep["bound_applicable"]


def test_cz_negative_rotation():
    assert cz_index(Fraction(-3, 10), 1) == -1
    assert cz_index(Fraction(-1, 2), 4) == -4


@pytest.mark.parametrize(
    "theta,m,expected",
    [
        (Fraction(1, 5), 4, (1, 1, 1, 1)),  # below 1/m: all simple ends
        (Fraction(1, 7), 1, (1,)),
        (Fraction(7, 10), 2, (2,)),
        (Fraction(1, 2), 5, (2, 2, 1)),
        (Fraction(1, 2), 4, (2, 2)),
        (0, 4, (1, 1, 1, 1)),
    ],
)
def test_partition_positive_examples(theta, m, expected):
    assert partition_positive(theta, m) == expected


@pytest.mark.parametrize(
    "theta,m,expected",
    [
        (0, 4, (1, 1, 1, 1)),       # positive hyperbolic: simple ends
        (Fraction(1, 2), 4, (2, 2)),  # negative hyperbolic, even multiplicity
        (Fraction(1, 2), 5, (2, 2, 1)),
        (Fraction(1, 5), 4, (4,)),
        (Fraction(7, 10), 2, (1, 1)),
    ],
)
def test_partition_negative_examples(theta, m, expected):
    assert partition_negative(theta, m) == expected


def test_parts_sum_to_multiplicity():
    for v in range(1, 13):
        for u in range(0, 2 * v + 1):
            theta = Fraction(u, v)
            for m in range(1, 25):
                assert sum(partition_positive(theta, m)) == m
                assert sum(partition_negative(theta, m)) == m


def test_small_elliptic_rotation_gives_simple_positive_ends():
    # 0 < theta < 1/m forces m parts of size one
    for m in range(1, 15):
        theta = Fraction(1, m + 1)
        assert partition_positive(theta, m) == (1,) * m


def test_hyperbolic_patterns_match_expectation():
    for m in range(1, 12):
        for theta in (0, 1, 2):
            expected = hyperbolic_expectation(theta, m)
            assert partition_positive(theta, m) == expected
            assert partition_negative(theta, m) == expected
        for theta in (Fraction(1, 2), Fraction(3, 2)):
            expected = hyperbolic_expectation(theta, m)
            assert partition_positive(theta, m) == expected
            assert partition_negative(theta, m) == expected


def test_hull_agrees_with_staircase_oracle_rationals():
    for v in range(1, 13):
        for u in range(1, 2 * v + 1):
            theta = Fraction(u, v)
            for m in range(1, 21):
                for positive in (True, False):
                    build = partition_positive if positive else partition_negative
                    assert build(theta, m) == staircase_partition(theta, m, positive)


def test_hull_agrees_with_staircase_oracle_irrationals():
    rng = random.Random(11)
    for _ in range(200):
        theta = Rotation.real(rng.uniform(0.01, 2.99))
        m = rng.randint(1, 30)
        for positive in (True, False):
            build = partition_positive if positive else partition_negative
            assert build(theta, m) == staircase_partition(theta, m, positive)


def _outcome(build, theta, m, *args):
    """A partition, or the message of the DegenerateRotationError it raises."""
    try:
        return build(theta, m, *args)
    except DegenerateRotationError as exc:
        return str(exc)


def _assert_matches_oracles(theta, m):
    for positive, build in ((True, partition_positive), (False, partition_negative)):
        got = _outcome(build, theta, m)
        assert got == _outcome(hull_partition, theta, m, positive), (theta, m, positive)
        if m <= 120:
            assert got == _outcome(staircase_partition, theta, m, positive), (theta, m, positive)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1000), st.integers(-4000, 4000), st.integers(1, 500))
def test_best_approximation_partitions_match_oracles_rationals(q, p, m):
    _assert_matches_oracles(Fraction(p, q), m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1000), st.integers(-4000, 4000), st.integers(1, 500), st.integers(1, 500),
       st.floats(0.25, 4.0), st.sampled_from((1, -1)))
def test_best_approximation_partitions_match_oracles_near_the_guard(q, p, m, k, scale, sign):
    # theta = p/q + delta, with delta * x about REAL_GUARD at a cover x = k*q,
    # so the guard fires for some draws and just misses for others
    x = q * max(1, min(k, m // q))
    theta = Rotation.real(p / q + sign * scale * REAL_GUARD / x)
    _assert_matches_oracles(theta, m)


def test_partition_properties_examples():
    rep = partition_properties(Fraction(1, 5), 4)
    assert rep["all_pass"]
    assert rep["p_plus"] == (1, 1, 1, 1) and rep["p_minus"] == (4,)
    rep = partition_properties(Fraction(7, 10), 2)
    assert rep["disjoint"] and rep["one_in_exactly_one"]
    rep = partition_properties(Rotation.real(1 / math.sqrt(2)), 10)
    assert rep["all_pass"]


def test_partition_properties_scope():
    # past a degenerate cover the reversal items are out of scope
    rep = partition_properties(Fraction(1, 3), 5)
    assert rep["reversal_applicable"] is False and rep["all_pass"]
    # half-integral rotations always follow the hyperbolic pattern instead
    rep = partition_properties(Fraction(1, 2), 4)
    assert rep["reversal_applicable"] is False
    with pytest.raises(ValueError):
        partition_properties(2, 4)
    # a multiplicity below a construction's stated range is refused
    for call in (lambda: cz_index(Fraction(1, 3), 0), lambda: partition_negative(Fraction(1, 3), 0),
                 lambda: partition_properties(Fraction(1, 3), 1)):
        with pytest.raises(ValueError, match="got"):
            call()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 200), st.integers(2, 60), st.integers(2, 25))
def test_reversal_properties_rational(u, v, m):
    theta = Fraction(u, v)
    if theta.denominator == 1:
        return
    assert partition_properties(theta, m)["all_pass"]


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 3.99), st.integers(2, 40))
def test_reversal_properties_real(x, m):
    rot = Rotation.real(x)
    if rot.is_integral():
        return
    try:
        assert partition_properties(rot, m)["all_pass"]
    except DegenerateRotationError:
        pass  # near-integral cover in the float lane: explicit refusal by design


def test_cz_parity_and_growth_bound():
    for v in range(1, 13):
        for u in range(0, 2 * v + 1):
            theta = Fraction(u, v)
            for m in range(1, 51):
                idx = cz_index(theta, m)
                assert (idx % 2 != 0) == (m * u % v != 0)
                assert abs(idx / (2 * m) - u / v) <= 1 / m + 1e-12
