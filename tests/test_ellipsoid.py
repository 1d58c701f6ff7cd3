"""Ellipsoid Reeb flow, orbit census, spectrum, volume, and return map."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from echlab.cli import RunConfig, run
from echlab.ellipsoid import (
    SPECTRUM_CAP,
    Ellipsoid,
    ResourceCapError,
    _gauss_legendre,
    gss_return_map,
    simple_orbit_census,
    spectrum_values,
    volume,
    volume_quadrature,
    weyl_table,
)
from oracles import heap_spectrum_values, pointwise_volume_quadrature

SQRT2 = math.sqrt(2)
TWO_PI = 2 * math.pi


def test_rationality_detection():
    assert Ellipsoid(Fraction(1), Fraction(2)).is_rational
    assert Ellipsoid(1.0, 2.0).is_rational
    assert not Ellipsoid(1.0, SQRT2).is_rational
    assert not Ellipsoid(1.0, 1 / SQRT2).is_rational
    assert Ellipsoid(1.5, 4.5).ratio_rational == Fraction(1, 3)
    # the tolerance is in ulps of the ratio: a tiny ratio is not the rational 0, and a
    # small ratio that is rational is still found
    assert Ellipsoid(1e-20, 1.0).ratio_rational is None
    assert Ellipsoid(1.0, 7.0).ratio_rational == Fraction(1, 7)
    assert Ellipsoid(1e-3, 1.0).ratio_rational == Fraction(1, 1000)
    assert Ellipsoid(3e-6, 1.0).ratio_rational == Fraction(3, 1000000)
    assert Ellipsoid(0.1, 0.3).ratio_rational == Fraction(1, 3)
    # exact inputs give the exact ratio, and are stored as floats like float inputs
    e = Ellipsoid(Fraction(1, 10**20), 3)
    assert e.ratio_rational == Fraction(1, 3 * 10**20) and (type(e.a), type(e.b)) == (float, float)


def test_parameters_must_be_positive_and_finite():
    for a, b in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (0.0, 1.0), (-1.0, 2.0)):
        with pytest.raises(ValueError, match="ellipsoid parameters must be positive and finite"):
            Ellipsoid(a, b)
    # finite parameters whose float ratio overflows, underflows to 0 or cannot be formed, in both lanes
    for a, b in ((1e300, 1e-300), (1e-300, 1e300), (1e-200, 1e200), (10**400, 1.0), (1.0, 10**400),
                 (Fraction(1, 10**400), Fraction(2)), (Fraction(10**400), Fraction(2)),
                 (Fraction(1), Fraction(10**400))):
        with pytest.raises(ValueError, match="aspect ratio a/b lies outside the float range"):
            Ellipsoid(a, b)
    # ratio_rational is derived from a and b, so it takes no part in equality or hashing
    assert Ellipsoid(1.0, 2.0) == Ellipsoid(1.0, 2.0) and hash(Ellipsoid(1.0, 2.0)) == hash(Ellipsoid(1.0, 2.0))


def test_irrational_ratios_near_a_convergent_stay_irrational():
    # convergents with q <= 1e6 come within 1e-14 relative of these ratios, but not within 4 ulps
    assert Ellipsoid(2.0, 0.03 * math.e).ratio_rational is None  # not 19515661/795736
    assert Ellipsoid(math.pi, 0.01 * math.sqrt(3)).ratio_rational is None  # not 101108069/557438
    rng = random.Random(20261019)
    flagged = 0
    for _ in range(2000):
        a = rng.uniform(0.05, 20)
        flagged += Ellipsoid(a, a * 10 ** rng.uniform(-2, 2)).is_rational
    assert flagged <= 20


def test_rationality_gate_is_symmetric_and_scale_free():
    # numerator and denominator are both bounded, so a large generic ratio is
    # not a rational with a long numerator, and E(a, b) and E(b, a) agree
    assert Ellipsoid(1000 * math.pi, 1.0).ratio_rational is None  # not 2062062878/656375
    assert Ellipsoid(1e200, SQRT2).ratio_rational is None
    assert Ellipsoid(1000.0, 7.0).ratio_rational == Fraction(1000, 7)
    assert Ellipsoid(7.0, 1000.0).ratio_rational == Fraction(7, 1000)
    assert Ellipsoid(2e6, 1.0).ratio_rational is None  # numerator above 1e6: pass 2000000/1 for the exact lane
    rng = random.Random(20261020)
    for exponent in range(-6, 201, 2):
        s = 10.0**exponent
        flagged = sum(Ellipsoid(rng.uniform(s, 2 * s), 1.0).is_rational for _ in range(200))
        assert flagged <= 2, s  # at most 1%
    for _ in range(2000):
        a, b = rng.uniform(0.05, 20), rng.uniform(0.05, 20) * 10 ** rng.uniform(-3, 3)
        assert Ellipsoid(a, b).is_rational == Ellipsoid(b, a).is_rational, (a, b)


def test_census_irrational_two_orbits():
    e = Ellipsoid(1.0, SQRT2)
    census = simple_orbit_census(e, 10.0)
    assert [c["label"] for c in census] == ["gamma1", "gamma2"]
    assert census[0]["action"] == 1.0 and abs(census[1]["action"] - SQRT2) < 1e-15
    assert abs(census[0]["rotation"] - 1 / SQRT2) < 1e-15


def test_census_threshold():
    assert simple_orbit_census(Ellipsoid(1.0, 1.0), 0.5) == []


def test_census_rational_families():
    e = Ellipsoid(Fraction(1), Fraction(2))
    census = simple_orbit_census(e, 4.0)
    families = [c for c in census if c["type"] == "torus-family"]
    assert [c["action"] for c in families] == [2.0, 4.0]
    assert all(c["degenerate"] for c in census)


def test_census_monotone_in_bound():
    e = Ellipsoid(1.0, SQRT2)
    small = {c["label"] for c in simple_orbit_census(e, 1.2)}
    large = {c["label"] for c in simple_orbit_census(e, 7.0)}
    assert small <= large


def test_spectrum_first_entries():
    e = Ellipsoid(1.0, SQRT2)
    values = spectrum_values(e, L=3.0)
    got = [round(v, 12) for v, _, _ in values[:5]]
    expected = [0.0, 1.0, SQRT2, 2.0, 1 + SQRT2]
    assert got == [round(v, 12) for v in expected]
    assert values[0] == (0.0, 0, 0)
    assert all(abs(v - (m + n * SQRT2)) < 1e-12 for v, m, n in values)
    # the spectrum command indexes the rows: c_k sits in grading 2k
    rows = run(RunConfig("ellipsoid.spectrum", {"a": 1.0, "b": SQRT2, "L": 3.0})).tables["spectrum"].rows
    assert [tuple(r) for r in rows] == [(k, v, 2 * k, m, n) for k, (v, m, n) in enumerate(values)]


def test_spectrum_matches_grid_oracle():
    e = Ellipsoid(1.0, SQRT2)
    values = [v for v, _, _ in spectrum_values(e, L=6.0)]
    grid = sorted(m + n * SQRT2 for m in range(8) for n in range(6) if m + n * SQRT2 <= 6.0)
    assert len(values) == len(grid)
    assert np.allclose(values, grid)


def test_spectrum_formal_mode_duplicates():
    e = Ellipsoid(Fraction(1), Fraction(4))
    with pytest.raises(ValueError):
        spectrum_values(e, L=4.0)
    values = spectrum_values(e, L=4.0, formal=True)
    assert [v for v, _, _ in values] == [0.0, 1.0, 2.0, 3.0, 4.0, 4.0]


def test_spectral_invariant_examples():
    # c_k is the last of the first k + 1 values
    assert spectrum_values(Ellipsoid(1.0, SQRT2), count=1) == [(0.0, 0, 0)]
    assert spectrum_values(Ellipsoid(1.0, SQRT2), count=4)[3] == (2.0, 2, 0)
    # round case: triangular-number counting oracle
    e = Ellipsoid(Fraction(1), Fraction(1))
    for k in range(40):
        v = 0
        while (v + 1) * (v + 2) // 2 < k + 1:
            v += 1
        assert spectrum_values(e, count=k + 1, formal=True)[k][0] == v


def test_spectrum_count_falls_short_only_past_the_float_range():
    # sqrt(2ab count) + a + b always holds count values; here it is cut at the largest float
    with pytest.raises(OverflowError, match="spectrum values overflow a float"):
        spectrum_values(Ellipsoid(1e307, 1e307), count=1000, formal=True)


def test_spectrum_scaling_law():
    e1, e2 = Ellipsoid(1.0, SQRT2), Ellipsoid(3.0, 3 * SQRT2)
    v1 = [v for v, _, _ in spectrum_values(e1, count=50)]
    v2 = [v for v, _, _ in spectrum_values(e2, count=50)]
    assert np.allclose(np.array(v1) * 3, v2)


def test_spectrum_monotone_in_parameters():
    base = [v for v, _, _ in spectrum_values(Ellipsoid(1.0, SQRT2), count=60)]
    bigger = [v for v, _, _ in spectrum_values(Ellipsoid(1.1, SQRT2), count=60)]
    assert all(b >= a - 1e-12 for a, b in zip(base, bigger))


def test_weyl_table_structure():
    e = Ellipsoid(1.0, SQRT2)
    table = weyl_table(e, 2000)
    assert table["volume"] == SQRT2
    ks = [r["k"] for r in table["rows"]]
    assert ks[0] == 1 and ks[-1] == 2000
    assert table["rows"][0]["c_k"] == 1.0  # c_1 = min(a, b)
    assert table["final_decade_max_deviation"] < 0.2


def test_weyl_deviation_decreases_over_decades():
    for b in (SQRT2, (1 + math.sqrt(5)) / 2):
        e = Ellipsoid(1.0, b)
        devs = [weyl_table(e, kmax)["final_decade_max_deviation"] for kmax in (1000, 10000, 100000)]
        assert devs[0] > devs[1] > devs[2]


def test_volume_and_quadrature_oracle():
    for a, b in [(1.0, 1.0), (1.0, SQRT2), (2.0, 3.0)]:
        v = volume(Ellipsoid(a, b))
        assert v == a * b
        q = volume_quadrature(Ellipsoid(a, b))
        assert abs(q - v) <= 1e-6 * v


def test_return_map():
    e = Ellipsoid(1.0, 2.0)
    (r, ang), t = gss_return_map(e, (0.5, 0.0))
    assert t == 1.0 and r == 0.5 and abs(ang - math.pi) < 1e-12
    e = Ellipsoid(1.0, 1.0)
    (r, ang), t = gss_return_map(e, (0.25, 1.0))
    assert abs(ang - 1.0) < 1e-12 and t == 1.0
    with pytest.raises(ValueError):
        gss_return_map(e, (1.0, 0.0))


def test_return_map_periodicity_rational():
    # ratio p/q: every section point is q-periodic
    e = Ellipsoid(2.0, 3.0)  # a/b = 2/3
    pt = (0.3, 0.123)
    cur = pt
    for _ in range(3):
        (r, ang), _ = gss_return_map(e, cur)
        cur = (r, ang)
    assert abs(cur[0] - pt[0]) < 1e-12
    assert abs((cur[1] - pt[1]) % TWO_PI) < 1e-9 or abs((cur[1] - pt[1]) % TWO_PI - TWO_PI) < 1e-9


def test_product_of_periods():
    for a, b in [(1.0, SQRT2), (1.0, (1 + math.sqrt(5)) / 2), (3.0, math.pi)]:
        # criterion 3's node counts; the quadrature is a plain float
        quad = volume_quadrature(Ellipsoid(a, b), n_mu=160, n_angle=8)
        assert type(quad) is float and abs(quad - a * b) <= 1e-14 * (a * b)


def test_weyl_formal_round_sphere_limit():
    table = weyl_table(Ellipsoid(Fraction(1), Fraction(1)), 4000, formal=True)
    assert abs(table["rows"][-1]["ratio"] - 1.0) < 0.05


def test_spectrum_resource_cap():
    e = Ellipsoid(1.0, SQRT2)
    with pytest.raises(ResourceCapError):
        spectrum_values(e, count=2000, cap=100)
    # count mode: cap entries are allowed, one more is refused before any enumeration
    assert len(spectrum_values(e, count=100, cap=100)) == 100
    with pytest.raises(ResourceCapError):
        spectrum_values(e, count=101, cap=100)
    # L mode: a bound with exactly cap entries passes, one entry over raises
    n = len(spectrum_values(e, L=6.0))
    assert spectrum_values(e, L=6.0, cap=n) == spectrum_values(e, L=6.0)
    with pytest.raises(ResourceCapError):
        spectrum_values(e, L=6.0, cap=n - 1)


def test_weyl_table_over_the_cap_fails_fast():
    t0 = time.perf_counter()
    with pytest.raises(ResourceCapError):
        weyl_table(Ellipsoid(1.0, SQRT2), SPECTRUM_CAP)  # needs SPECTRUM_CAP + 1 entries
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("bound, match", [
    pytest.param({"L": math.nan}, "action bound must be finite, got nan", id="nan"),
    pytest.param({"L": math.inf}, "action bound must be finite, got inf", id="inf"),
    pytest.param({"L": -math.inf}, "action bound must be finite, got -inf", id="-inf"),
    # a count that is not an integer >= 1 is refused by value, before any enumeration
    pytest.param({"count": -3}, r"count must be an integer >= 1, got -3$", id="count=-3"),
    pytest.param({"count": 0}, r"count must be an integer >= 1, got 0$", id="count=0"),
    pytest.param({"count": 2.5}, r"count must be an integer >= 1, got 2\.5$", id="count=2.5"),
])
def test_spectrum_rejects_non_finite_bound(bound, match):
    with pytest.raises(ValueError, match=match):
        spectrum_values(Ellipsoid(1.0, SQRT2), **bound)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 20.0), st.floats(-2.0, 2.0), st.integers(1, 5000), st.floats(0.0, 1.0))
def test_spectrum_matches_heap_oracle(a, log_ratio, count, frac):
    # irrational aspect ratios from 1/100 to 100; the L bound keeps at most ~5000 entries
    b = a * 10.0**log_ratio
    e = Ellipsoid(a, b)
    assume(not e.is_rational)
    assert spectrum_values(e, count=count) == heap_spectrum_values(a, b, count=count)
    L = frac * math.sqrt(2.0 * a * b * 5000)
    assert spectrum_values(e, L=L) == heap_spectrum_values(a, b, L=L)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5000), st.floats(0.0, 60.0))
def test_formal_spectrum_matches_heap_oracle(p, q, count, L):
    # rational ratios: coinciding values order by (m, n)
    e = Ellipsoid(Fraction(p), Fraction(q))
    assert spectrum_values(e, count=count, formal=True) == heap_spectrum_values(p, q, count=count)
    assert spectrum_values(e, L=L, formal=True) == heap_spectrum_values(p, q, L=L)


@pytest.mark.parametrize("n_mu, n_angle", [(160, 8), (200, 16)])
def test_volume_quadrature_matches_pointwise_oracle(n_mu, n_angle):
    # criterion 3's ten samples, then the round and a rational ellipsoid
    rng = random.Random(7)
    samples = [(1.0, SQRT2), (1.0, (1 + math.sqrt(5)) / 2), (3.0, math.pi)]
    while len(samples) < 10:
        samples.append((rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5)))
    for a, b in samples + [(1.0, 1.0), (2.0, 3.0)]:
        assert volume_quadrature(Ellipsoid(a, b), n_mu, n_angle) == pointwise_volume_quadrature(a, b, n_mu, n_angle)


def test_gauss_legendre_rule_is_shared_and_immutable():
    nodes, weights = _gauss_legendre(8)
    assert _gauss_legendre(8)[0] is nodes
    assert type(nodes) is tuple and type(weights) is tuple


@pytest.mark.parametrize("n", [1, 2, 8, 160, 200])
def test_gauss_legendre_matches_numpy(n):
    # numpy's leggauss is the oracle; the end weights lose digits in 1 - x^2
    nodes, weights = _gauss_legendre(n)
    np_nodes, np_weights = np.polynomial.legendre.leggauss(n)
    assert max(abs(x - y) for x, y in zip(nodes, np_nodes)) <= 1e-15
    assert max(abs(w - v) / v for w, v in zip(weights, np_weights)) <= 1e-10
    assert abs(sum(weights) - 2.0) <= 1e-14
