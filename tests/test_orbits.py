"""Orbit sets, curve indices, scores, towers, and their wire formats."""

import dataclasses
import gc
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echlab.orbits import (
    ELLIPTIC,
    NEGATIVE_HYPERBOLIC,
    POSITIVE_HYPERBOLIC,
    Cover,
    CurveData,
    CurveEnds,
    OrbitSet,
    SimpleOrbit,
    StructuralError,
    Tower,
    curve_from_json,
    curve_score,
    curve_to_json,
    ech_index_from_j0,
    forced_topology,
    is_ech_generator,
    k_invariant,
    orbit_set_from_json,
    orbit_set_to_json,
    orbit_to_json,
    total_score,
    tower_audit,
    tower_from_json,
    tower_to_json,
)
from echlab.rotations import DegenerateRotationError, Rotation
from echlab.sampling import POOL_SIZE, random_tower


def orb(label, action, num, den=1, kind=ELLIPTIC):
    return SimpleOrbit(label, Fraction(action), Rotation.rational(num, den), kind)


GAMMA_A = orb("a", 5, 1, 5)
GAMMA_B = orb("b", 2, 7, 10)
HYP = orb("h", 3, 1, 1, POSITIVE_HYPERBOLIC)
NEG_HYP = orb("nh", 4, 1, 2, NEGATIVE_HYPERBOLIC)


def test_orbit_kind_consistency():
    with pytest.raises(StructuralError):
        SimpleOrbit("bad", Fraction(1), Rotation.rational(2), ELLIPTIC)
    with pytest.raises(StructuralError):
        SimpleOrbit("bad", Fraction(1), Rotation.rational(1, 3), POSITIVE_HYPERBOLIC)
    for action in (Fraction(-1), 0, math.nan, math.inf, -math.inf):
        with pytest.raises(StructuralError, match="orbit bad action must be positive and finite"):
            SimpleOrbit("bad", action, Rotation.rational(1, 3), ELLIPTIC)


def test_orbit_set_action_examples():
    assert OrbitSet().action == 0
    assert OrbitSet([(GAMMA_A, 2)]).action == 10
    g1 = SimpleOrbit("g1", 1.0, Rotation.real(1 / math.sqrt(2)), ELLIPTIC)
    g2 = SimpleOrbit("g2", math.sqrt(2), Rotation.real(math.sqrt(2)), ELLIPTIC)
    assert abs(OrbitSet([(g1, 3), (g2, 1)]).action - (3 + math.sqrt(2))) < 1e-12


def test_generator_rule():
    assert is_ech_generator(OrbitSet([(GAMMA_A, 7)]))
    assert not is_ech_generator(OrbitSet([(HYP, 2)]))
    assert is_ech_generator(OrbitSet())


def test_cz_top_examples():
    assert OrbitSet().cz_top == 0
    assert OrbitSet([(GAMMA_A, 4)]).cz_top == 1
    assert OrbitSet([(GAMMA_A, 4), (GAMMA_B, 2)]).cz_top == 4


def cylinder(alpha_orbit, beta_orbit, alpha_mult=1, beta_mult=1, c0=False, genus=0, c_tau=0):
    return CurveData(
        genus,
        (CurveEnds(alpha_orbit.label, (1,), c0),),
        (CurveEnds(beta_orbit.label, (1,), c0),),
        OrbitSet([(alpha_orbit, alpha_mult)]),
        OrbitSet([(beta_orbit, beta_mult)]),
        c_tau,
    )


def test_j0_examples():
    assert cylinder(GAMMA_A, GAMMA_B).j0 == 0
    assert cylinder(GAMMA_A, GAMMA_B, genus=1).j0 == 2
    assert cylinder(GAMMA_A, GAMMA_B, alpha_mult=3, beta_mult=2, c0=True).j0 == 2


def test_j0_invariance_under_relabeling_and_order():
    g1, g2 = orb("x1", 7, 2, 7), orb("x2", 6, 3, 7)
    c = CurveData(
        1,
        (CurveEnds("x1", (2, 1), True), CurveEnds("x2", (1,), False)),
        (CurveEnds("b", (1,), False),),
        OrbitSet([(g1, 4), (g2, 1)]),
        OrbitSet([(GAMMA_B, 1)]),
    )
    c_perm = CurveData(
        1,
        (CurveEnds("x2", (1,), False), CurveEnds("x1", (1, 2), True)),
        (CurveEnds("b", (1,), False),),
        OrbitSet([(g2, 1), (g1, 4)]),
        OrbitSet([(GAMMA_B, 1)]),
    )
    assert c.j0 == c_perm.j0


def test_curve_invariants_enforced():
    with pytest.raises(StructuralError):
        CurveData(
            0,
            (CurveEnds("a", (3,), False),),  # deficit 1 but c0 absent
            (),
            OrbitSet([(GAMMA_A, 4)]),
            OrbitSet(),
        )
    with pytest.raises(StructuralError):
        CurveData(
            0,
            (CurveEnds("a", (5,), False),),  # exceeds multiplicity
            (),
            OrbitSet([(GAMMA_A, 4)]),
            OrbitSet(),
        )


def test_curve_action_sign_and_type_in_both_lanes():
    # a float action is read as its exact binary value, so every curve action is a Fraction
    fa = SimpleOrbit("fa", 2.3, Rotation.rational(1, 5), ELLIPTIC)
    fb = SimpleOrbit("fb", 4.1, Rotation.rational(1, 5), ELLIPTIC)
    for lo, hi, want in ((GAMMA_B, GAMMA_A, Fraction(3)),
                         (fa, fb, Fraction(4.1) - Fraction(2.3)),
                         (GAMMA_B, fb, Fraction(4.1) - 2)):
        assert type(cylinder(hi, lo).action) is Fraction and cylinder(hi, lo).action == want > 0
        assert type(cylinder(hi, hi).action) is Fraction and cylinder(hi, hi).action == 0
        message = f"curve action must be nonnegative, got {lo.action - hi.action}$"
        with pytest.raises(StructuralError, match=message):
            cylinder(lo, hi)


def test_ech_index_examples():
    c = cylinder(GAMMA_A, orb("b2", 1, 1, 5))
    assert ech_index_from_j0(c) == c.j0 == 0  # equal cz_top, c_tau = 0
    c2 = CurveData(0, (CurveEnds("a", (1, 1, 1, 1), False),), (), OrbitSet([(GAMMA_A, 4)]), OrbitSet())
    assert (c2.j0, ech_index_from_j0(c2)) == (5, 6)
    c3 = CurveData(0, (CurveEnds("a", (1, 1, 1, 1), False),), (), OrbitSet([(GAMMA_A, 4)]), OrbitSet(), c_tau=3)
    assert (c3.j0, ech_index_from_j0(c3)) == (5, 12)


def test_forced_topology():
    assert forced_topology(2) == {(0, 2)}
    assert forced_topology(0) == set()
    assert sorted(forced_topology(4)) == [(0, 3), (1, 2)]


def test_component_classification_examples():
    assert GAMMA_A.cover(4) == Cover(cz=1, p_plus=False, p_minus=True, special=False, score=-1)
    assert GAMMA_B.cover(2) == Cover(cz=3, p_plus=True, p_minus=False, special=True, score=2)
    assert GAMMA_A.cover(1) == Cover(cz=1, p_plus=True, p_minus=True, special=False, score=0)


def test_orbit_set_score_examples():
    assert OrbitSet().score == 0
    assert OrbitSet([(GAMMA_A, 4)]).score == -1
    assert OrbitSet([(GAMMA_B, 2)]).score == 2


def test_score_additive_over_disjoint_union():
    rng = random.Random(5)
    for _ in range(30):
        u = rng.randint(1, 11)
        o1 = orb(f"s1_{u}", 2, u, 12) if u % 12 else orb("s1", 2, 1, 12)
        o2 = orb("s2", 3, 3, 7)
        m1, m2 = rng.randint(1, 6), rng.randint(1, 6)
        both = OrbitSet([(o1, m1), (o2, m2)]).score
        assert both == OrbitSet([(o1, m1)]).score + OrbitSet([(o2, m2)]).score


def test_total_score_examples():
    same = OrbitSet([(GAMMA_A, 3)])
    c = CurveData(
        1,
        (CurveEnds("a", (1,), True),),
        (CurveEnds("a", (1,), True),),
        same,
        same,
    )
    # J0 = -2 + 2 + 2*2 = 4 here, so construct the J0=2 case directly instead:
    c2 = cylinder(GAMMA_A, GAMMA_B, alpha_mult=3, beta_mult=2, c0=True)
    assert c2.j0 == 2
    assert total_score(c2) == curve_score(c2) == c2.alpha.score - c2.beta.score


def test_k_invariant_examples():
    # genus-1 curve with one simple end each side: J0 = 2
    gx, gy = orb("x", 9, 1, 7), orb("y", 1, 2, 7)
    c = CurveData(1, (CurveEnds("x", (3,), False),), (CurveEnds("y", (1,), False),),
                  OrbitSet([(gx, 3)]), OrbitSet([(gy, 1)]))
    assert c.j0 == 2
    assert k_invariant(c) == -1
    # alpha mult 1, beta mult 2 with a trivial-cylinder part and genus 1: J0 = 3
    c2 = CurveData(1, (CurveEnds("x", (1,), False),), (CurveEnds("y", (1,), True),),
                   OrbitSet([(gx, 1)]), OrbitSet([(gy, 2)]))
    assert c2.j0 == 3
    assert k_invariant(c2) == 3
    same = OrbitSet()
    c3 = CurveData(1, (CurveEnds("x", (1,), False),), (CurveEnds("y", (1,), False),),
                   OrbitSet([(gx, 1)]), OrbitSet([(gy, 1)]))
    assert c3.j0 == 2 and k_invariant(c3) == 0


def test_tower_adjacency_enforced():
    a, b, c = OrbitSet([(GAMMA_A, 2)]), OrbitSet([(GAMMA_B, 1)]), OrbitSet([(orb("w", 1, 3, 7), 1)])
    cur1 = CurveData(0, (CurveEnds("a", (1,), True),), (CurveEnds("b", (1,), False),), a, b)
    cur2 = CurveData(0, (CurveEnds("w", (1,), False),), (), c, OrbitSet())
    with pytest.raises(StructuralError):
        Tower([cur1, cur2])


def test_tower_refuses_adjacent_sets_that_share_labels_but_not_orbit_records():
    # {a(5), b} -> {a(4)} then {a(5)} -> {b}: equal by label and multiplicity,
    # so a label-only comparison accepts it and the audit reads lhs 6, rhs 5
    a4 = orb("a", 4, 1, 5)
    cur1 = CurveData(0, (CurveEnds("a", (1,), False),), (CurveEnds("a", (1,), False),),
                     OrbitSet([(GAMMA_A, 1), (GAMMA_B, 1)]), OrbitSet([(a4, 1)]))
    cur2 = CurveData(0, (CurveEnds("a", (1,), False),), (CurveEnds("b", (1,), False),),
                     OrbitSet([(GAMMA_A, 1)]), OrbitSet([(GAMMA_B, 1)]))
    assert OrbitSet([(a4, 1)]) != OrbitSet([(GAMMA_A, 1)])
    with pytest.raises(StructuralError, match="tower adjacency fails between curves 0 and 1"):
        Tower([cur1, cur2])
    t = Tower([cur2])
    assert t.curves == (cur2,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.curves = ()


def test_tower_audit_exact_telescoping():
    rng = random.Random(42)
    t = random_tower(rng, 300)
    rep = tower_audit(t, Fraction(1, 4))
    assert rep["score_telescoping_ok"]
    assert rep["action_telescoping_ok"]
    assert rep["score_telescoping"]["lhs"] == rep["score_telescoping"]["rhs"]
    assert rep["high_action_within_budget"]
    assert tower_audit(t, 0.25) == rep  # a float threshold is compared at its exact value
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="action threshold must be finite"):
            tower_audit(t, threshold)


def test_tower_constant_sequence_telescopes_to_zero():
    s = OrbitSet([(GAMMA_A, 2)])
    curves = [
        CurveData(1, (CurveEnds("a", (1,), True),), (CurveEnds("a", (1,), True),), s, s)
        for _ in range(5)
    ]
    t = Tower(curves)
    rep = tower_audit(t, Fraction(1))
    assert rep["action_telescoping"]["lhs"] == 0
    assert rep["score_telescoping"]["lhs"] == rep["score_telescoping"]["rhs"]


def test_ech_index_additive_over_tower():
    rng = random.Random(9)
    t = random_tower(rng, 50)
    total = sum(ech_index_from_j0(c) for c in t.curves)
    rep = tower_audit(t, Fraction(1))
    assert rep["total_ech_index"] == total


def test_high_action_pigeonhole():
    rng = random.Random(3)
    t = random_tower(rng, 200)
    rep = tower_audit(t, Fraction(1, 10))
    assert rep["high_action_count"] <= rep["high_action_budget"]


def test_json_roundtrips():
    s = OrbitSet([(GAMMA_A, 2), (HYP, 1)])
    assert orbit_set_from_json(json.loads(json.dumps(orbit_set_to_json(s)))) == s
    c = cylinder(GAMMA_A, GAMMA_B, alpha_mult=3, beta_mult=2, c0=True)
    c2 = curve_from_json(json.loads(json.dumps(curve_to_json(c))))
    assert total_score(c2) == total_score(c)
    assert c2.j0 == c.j0 == 2
    rng = random.Random(8)
    t = random_tower(rng, 20)
    t2 = tower_from_json(json.loads(json.dumps(tower_to_json(t))))
    assert tower_audit(t2, Fraction(1, 2)) == tower_audit(t, Fraction(1, 2))


def test_orbit_sets_and_curves_are_immutable():
    s = OrbitSet([(GAMMA_A, 2), (GAMMA_B, 1)])
    assert (s.cz_top, s.score, s.k) == (2, -1, -1)
    for name in ("action", "cz_top", "score", "k"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
    with pytest.raises(AttributeError):
        s.extra = 1
    c = cylinder(GAMMA_A, GAMMA_B)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.genus = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.j0 = 7
    assert (c.action, c.j0) == (GAMMA_A.action - GAMMA_B.action, 0)


def test_degenerate_cover_raises_at_construction():
    # 3 * (1/3) is integral: the 3-fold cover is degenerate, and its indices
    # are undefined, so building the orbit set already fails
    orbit = SimpleOrbit("x", Fraction(1), Rotation.real(1 / 3), ELLIPTIC)
    with pytest.raises(DegenerateRotationError):
        OrbitSet([(orbit, 3)])


# -- oracle: the naive Fraction sums that the integer bookkeeping replaced ----

POOL_THETAS = (Fraction(1, 5), Fraction(7, 10), Fraction(2, 3), Fraction(3, 8), Fraction(4, 11))
exact_actions = st.fractions(min_value=Fraction(1, 48), max_value=60, max_denominator=48)
float_actions = st.floats(min_value=0.01, max_value=60.0)
thresholds = st.one_of(
    st.fractions(min_value=-1, max_value=40, max_denominator=48),
    st.integers(-1, 40),
    st.floats(min_value=-1.0, max_value=40.0),
)


@st.composite
def orbit_pools(draw):
    """Orbits o0..o5 with exact, float or mixed actions; each keeps its action's exact value."""
    actions = draw(st.sampled_from([exact_actions, float_actions, st.one_of(exact_actions, float_actions)]))
    pool = []
    for i in range(6):
        action = draw(actions)
        pool.append(SimpleOrbit(f"o{i}", action, Rotation.rational(draw(st.sampled_from(POOL_THETAS))), ELLIPTIC))
        assert type(pool[-1].action) is Fraction and pool[-1].action == action  # == on a float is exact
    return pool


@st.composite
def entry_lists(draw, pool):
    chosen = draw(st.lists(st.sampled_from(pool), max_size=4, unique_by=lambda o: o.label))
    return [(o, draw(st.integers(1, 5))) for o in chosen]


def naive_action(entries):
    """Reference action: the left-to-right Fraction sum in label order."""
    return sum((m * o.action for o, m in sorted(entries, key=lambda e: e[0].label)), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orbit_set_action_matches_naive_sum(data):
    entries = data.draw(entry_lists(data.draw(orbit_pools())))
    want = naive_action(entries)
    got = OrbitSet(entries).action
    assert got == want
    assert type(got) is Fraction


@st.composite
def towers(draw):
    pool = draw(orbit_pools())
    entry_sets = draw(st.lists(entry_lists(pool), min_size=2, max_size=8))
    entry_sets.sort(key=naive_action, reverse=True)
    sets = [(OrbitSet(entries), entries) for entries in entry_sets]
    curves = []
    for (alpha, _), (beta, _) in zip(sets, sets[1:]):
        sides = []
        for endpoint in (alpha, beta):
            ends = []
            for o, m in endpoint.items():
                c1 = draw(st.integers(0, m))
                if c1:
                    parts = (c1,) if draw(st.booleans()) else (1,) * c1
                    ends.append(CurveEnds(o.label, parts, c0_present=c1 < m))
            sides.append(tuple(ends))
        curves.append(CurveData(draw(st.integers(0, 2)), sides[0], sides[1], alpha, beta))
    return Tower(curves), [entries for _, entries in sets]


@settings(max_examples=150, deadline=None)
@given(towers(), st.data())
def test_tower_audit_matches_naive_sums(tower_and_entries, data):
    t, entries = tower_and_entries
    actions = [naive_action(a) - naive_action(b) for a, b in zip(entries, entries[1:])]
    lhs = sum(actions, Fraction(0))
    rhs = naive_action(entries[0]) - naive_action(entries[-1])
    # a random threshold, then one at a curve's action and just off it with a
    # denominator foreign to the tower
    at = data.draw(st.sampled_from(actions))
    for threshold in (data.draw(thresholds), at, at + Fraction(1, 97), at - Fraction(1, 97)):
        rep = tower_audit(t, threshold)
        assert rep["action_telescoping"] == {"lhs": lhs, "rhs": rhs}
        assert rep["action_telescoping_ok"] == (lhs == rhs)
        assert type(rep["action_telescoping"]["lhs"]) is Fraction
        assert rep["high_action_count"] == sum(1 for a in actions if a > threshold)
        assert rep["negative_low_action_noncylinders"] == [
            i
            for i, (c, a) in enumerate(zip(t.curves, actions))
            if a <= threshold and not c.is_cylinder() and total_score(c) < 0
        ]
    check_curve_actions(t, entries)


def check_curve_actions(t, entries):
    """Each curve's action is a Fraction, the naive sum of its alpha entries minus
    that of its beta entries, and each set's public pair is its action in lowest terms."""
    for c, upper, lower in zip(t.curves, entries, entries[1:]):
        assert type(c.action) is Fraction and c.action == naive_action(upper) - naive_action(lower)
        for s in (c.alpha, c.beta):
            num, den = s.action_ratio()
            assert den > 0 and math.gcd(num, den) == 1 and Fraction(num, den) == s.action


def test_float_lane_audits_like_the_exact_tower():
    t = random_tower(random.Random(2024), 300)
    threshold = Fraction(1, 2)
    assert all(abs(c.action - threshold) > 1e-9 for c in t.curves)  # no float rounding can flip a comparison
    exact = tower_audit(t, threshold)

    doc = json.loads(json.dumps(tower_to_json(t)))
    for o in doc["orbits"]:
        o["action"] = o["action"][0] / o["action"][1]
    floats = tower_from_json(doc)
    assert all(type(c.action) is Fraction for c in floats.curves)
    for tower in (t, floats):
        check_curve_actions(tower, [tower.top.items()] + [c.beta.items() for c in tower.curves])
    dens = {s.action_ratio()[1] for c in floats.curves for s in (c.alpha, c.beta)}
    assert all(den & (den - 1) == 0 for den in dens) and max(dens) > 1  # float actions are dyadic

    for rep in (tower_audit(floats, threshold), tower_audit(t, float(threshold))):
        assert rep["score_telescoping_ok"] and rep["action_telescoping_ok"]
        assert rep["score_telescoping"] == exact["score_telescoping"]
        assert rep["high_action_count"] == exact["high_action_count"]
        assert rep["negative_low_action_noncylinders"] == exact["negative_low_action_noncylinders"]
    assert math.isclose(tower_audit(floats, threshold)["action_telescoping"]["lhs"],
                        exact["action_telescoping"]["lhs"], rel_tol=1e-12)


def test_random_tower_shares_curve_ends():
    t = random_tower(random.Random(31415), 1000)
    ends = [e for c in t.curves for side in (c.positive_ends, c.negative_ends) for e in side]
    distinct = {id(e) for e in ends}
    # one object per distinct record: pool labels x partitions of 1..5 (18) x c0 flag
    assert len(distinct) == len(set(ends)) <= POOL_SIZE * 18 * 2 == 432
    assert len(ends) > 10 * len(distinct)
    # a one-record side is the record's shared tuple
    sides = [side for c in t.curves for side in (c.positive_ends, c.negative_ends) if len(side) == 1]
    assert len({id(side) for side in sides}) == len(set(sides)) < len(sides) // 3


def test_random_tower_shares_orbit_sets():
    t = random_tower(random.Random(31415), 1000)
    sets = [t.curves[0].alpha] + [c.beta for c in t.curves]
    # one object per distinct drawn set, which repeat across the tower
    distinct = {tuple((o.label, m) for o, m in s.items()) for s in sets}
    assert len(sets) == 1001 and len({id(s) for s in sets}) == len(distinct) == 711
    equal = [c for c in t.curves if c.alpha == c.beta]
    assert len(equal) == 290
    assert all(c.alpha is c.beta and c.action == 0 for c in equal)
    # equal but distinct sets give the curve the values a shared set gives it
    c = equal[0]
    twin = OrbitSet(c.beta.items())
    assert twin == c.beta and twin is not c.beta
    apart = CurveData(c.genus, c.positive_ends, c.negative_ends, c.alpha, twin, c.c_tau)
    assert (apart.action, apart.j0) == (c.action, c.j0)


def test_random_tower_keeps_no_fractions():
    # sets hold an integer action pair and curves derive theirs, so the only
    # Fractions a generated tower reaches are its pool's actions and rotations
    t = random_tower(random.Random(31415), 1000)
    gc.collect()  # the collector untracks some tuples; count after it, not by its history
    seen, stack, fractions, tracked = set(), [t], 0, 0
    while stack:
        o = stack.pop()
        if id(o) not in seen:
            seen.add(id(o))
            fractions += type(o) is Fraction
            tracked += gc.is_tracked(o)
            if not isinstance(o, type):  # a class reaches the whole interpreter
                stack.extend(gc.get_referents(o))
    assert fractions <= 2 * POOL_SIZE
    assert tracked <= 4000


def test_curve_ends_are_slotted_and_frozen():
    e = CurveEnds("a", (2, 1), True)
    assert not hasattr(e, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.c0_present = False
    with pytest.raises((AttributeError, TypeError)):  # Python 3.11's frozen slotted __setattr__ raises TypeError
        e.note = "x"
    assert (e.total, e.count) == (3, 2)
    same = CurveEnds("a", (2, 1), True)
    assert same == e and hash(same) == hash(e) and same is not e
    assert repr(e) == "CurveEnds(orbit_label='a', multiplicities=(2, 1), c0_present=True)"


def test_orbit_set_keeps_tuple_entries_and_packs_the_rest():
    entry = [GAMMA_A, 2]
    s = OrbitSet([entry])
    assert s.items() == ((GAMMA_A, 2),) and type(s.items()[0]) is tuple
    entry[1] = 5  # the caller's list does not alias the set
    assert s.multiplicity("a") == 2 and s.items() == ((GAMMA_A, 2),)
    pair = (GAMMA_B, 3)
    assert OrbitSet([pair, (GAMMA_A, 1)]).items()[1] is pair  # an exact tuple is shared, not copied


def test_tower_with_shared_parts_roundtrips_equal():
    t = random_tower(random.Random(31415), 300)
    doc = tower_to_json(t)
    t2 = tower_from_json(json.loads(json.dumps(doc)))
    assert t2 == t
    assert tower_to_json(t2) == doc
    assert [(c.action, c.j0) for c in t2.curves] == [(c.action, c.j0) for c in t.curves]


def test_repeated_orbit_labels_are_structural_errors():
    a1, a5 = orbit_to_json(orb("a", 1, 1, 5)), orbit_to_json(orb("a", 5, 1, 5))
    curve = {"genus": 0, "alpha": [["a", 2]], "beta": []}
    for read, doc in ((orbit_set_from_json, {"orbits": [a1, a5], "entries": [["a", 2]]}),
                      (curve_from_json, dict(curve, orbits=[a1, a5])),
                      (tower_from_json, {"orbits": [a1, a5], "curves": [curve]})):
        with pytest.raises(StructuralError, match="orbit label 'a' is listed twice"):
            read(doc)
    with pytest.raises(StructuralError, match="orbit 'a' conflicts with the tower's orbit of that label"):
        tower_from_json({"orbits": [a1], "curves": [dict(curve, orbits=[a5])]})
    t = tower_from_json({"orbits": [a1], "curves": [dict(curve, orbits=[a1])]})  # the same orbit again
    assert t.top.action == 2
