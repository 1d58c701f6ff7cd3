"""Orbit sets, curve data, topological index bookkeeping, and tower audits.

Every orbit action is an exact Fraction (a float action is read as its exact
binary value); an orbit set holds its total as a reduced integer pair and a
curve derives its action from its endpoint sets, so tower audits are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .reporting import StructuralError, is_json_int, json_array, json_field, json_record
from .rotations import (
    Rotation,
    cz_index,
    partition_negative,
    partition_positive,
)

ELLIPTIC = "elliptic"
POSITIVE_HYPERBOLIC = "positive-hyperbolic"
NEGATIVE_HYPERBOLIC = "negative-hyperbolic"
KINDS = (ELLIPTIC, POSITIVE_HYPERBOLIC, NEGATIVE_HYPERBOLIC)
FORCED_MAX_GENUS, FORCED_MAX_ENDS = 3, 6  # the bounds of forced_topology's search


class Cover(NamedTuple):
    """Conley-Zehnder index, partition classes and score term of one m-fold cover.

    p+ cover: the positive partition is the single part (m); p- likewise;
    special: m > 1 with no part of size 1 in the positive partition.  The
    cover's term in the score S is (p+) + (special) - (p-).
    """

    cz: int
    p_plus: bool
    p_minus: bool
    special: bool
    score: int


def cover_indices(theta: Rotation, m: int) -> Cover:
    """The ``Cover`` of the m-fold cover of an orbit with rotation ``theta``.

    Raises DegenerateRotationError when ``theta`` is real and k * theta sits
    on an integer, within the real lane's guard, for some k <= m.
    """
    pp = partition_positive(theta, m)
    pn = partition_negative(theta, m)
    p_plus, p_minus, special = pp == (m,), pn == (m,), m > 1 and 1 not in pp
    return Cover(cz_index(theta, m), p_plus, p_minus, special, p_plus + special - p_minus)


@dataclass(frozen=True)
class SimpleOrbit:
    """An embedded periodic orbit with action, rotation number, and type.

    The model convention ties the type to the rotation number: positive
    hyperbolic at integral theta, negative hyperbolic at half-integral theta,
    elliptic otherwise.  ``period`` is wire-format data that no index reads.
    ``cover(m)`` memoises ``cover_indices(theta, m)`` per m.
    """

    label: str
    action: Fraction
    theta: Rotation
    kind: str
    period: int = 1

    _covers: Dict[int, Cover] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructuralError(f"unknown orbit kind {self.kind!r}")
        if not 0 < self.action < math.inf:
            raise StructuralError(f"orbit {self.label} action must be positive and finite, got {self.action}")
        object.__setattr__(self, "action", Fraction(self.action))
        if self.kind == ELLIPTIC and self.theta.is_integral():
            raise StructuralError(f"elliptic orbit {self.label} has integral rotation")
        if self.kind == POSITIVE_HYPERBOLIC and not self.theta.is_integral():
            raise StructuralError(f"positive-hyperbolic orbit {self.label} needs integral rotation")
        if self.kind == NEGATIVE_HYPERBOLIC and not self.theta.is_half_integral():
            raise StructuralError(f"negative-hyperbolic orbit {self.label} needs half-integral rotation")

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind != ELLIPTIC

    def cover(self, m: int) -> Cover:
        c = self._covers.get(m)
        if c is None:
            c = self._covers[m] = cover_indices(self.theta, m)
        return c


class OrbitSet:
    """An immutable finite multiset of simple orbits with positive multiplicities.

    Entries are sorted by label, and the invariants are computed once, at
    construction, and read-only: the total action (the integer pair
    ``action_ratio()``, summed over the LCM of the entry denominators; the
    Fraction ``action`` is built on read), ``cz_top``, ``score`` and ``k``.  The indices are defined for nondegenerate
    orbits only, so a real-lane orbit with a degenerate cover raises
    DegenerateRotationError here.  Two sets are equal when their entries
    are, orbit records included.
    """

    __slots__ = ("_items", "_num", "_den", "_cz_top", "_score", "_k")

    def __init__(self, entries: Iterable[Tuple[SimpleOrbit, int]] = ()):
        by_label: Dict[str, Tuple[SimpleOrbit, int]] = {}
        for entry in entries:
            orbit, mult = entry
            if mult < 1:
                raise StructuralError(f"multiplicity must be >= 1, got {mult} at {orbit.label}")
            if orbit.label in by_label:
                raise StructuralError(f"duplicate orbit id {orbit.label!r}")
            # an exact tuple is immutable and kept, so callers can share one pair
            # across sets; anything else is packed, so it never aliases this set
            by_label[orbit.label] = entry if type(entry) is tuple else (orbit, mult)
        items = self._items = tuple(by_label[k] for k in sorted(by_label))
        # one pass: the exact action as an integer numerator over the running
        # LCM of the denominators seen, and the cover sums
        num, common = 0, 1
        cz_top = score = k = 0
        for o, m in items:
            den = o.action.denominator
            if common % den:
                lcm = math.lcm(common, den)
                num *= lcm // common
                common = lcm
            num += m * o.action.numerator * (common // den)
            cover = o.cover(m)
            cz_top += cover.cz
            score += cover.score
            k -= m > 1
        g = math.gcd(num, common)
        self._num, self._den = num // g, common // g
        self._cz_top, self._score, self._k = cz_top, score, k

    def items(self) -> Tuple[Tuple[SimpleOrbit, int], ...]:
        return self._items

    def action_ratio(self) -> Tuple[int, int]:
        """(num, den) with action = num/den in lowest terms, den > 0."""
        return self._num, self._den

    @property
    def action(self) -> Fraction:
        """Multiplicity-weighted total action; the empty set has action 0."""
        return Fraction(self._num, self._den)

    @property
    def cz_top(self) -> int:
        """Sum over entries of the Conley-Zehnder index of the m_i-fold cover."""
        return self._cz_top

    @property
    def score(self) -> int:
        """Score S = (# p+ components) + (# special components) - (# p- components)."""
        return self._score

    @property
    def k(self) -> int:
        """K(alpha) <= 0: minus the number of components with multiplicity > 1."""
        return self._k

    def multiplicity(self, label: str) -> int:
        for orbit, mult in self._items:
            if orbit.label == label:
                return mult
        return 0

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrbitSet):
            return NotImplemented
        return self._items == other._items


def is_ech_generator(alpha: OrbitSet) -> bool:
    """True iff every hyperbolic entry has multiplicity 1."""
    return all(m == 1 for o, m in alpha.items() if o.is_hyperbolic)


@dataclass(frozen=True, slots=True)
class CurveEnds:
    """Ends of the nontrivial component at one orbit, plus trivial-cylinder coverage.

    Immutable and slotted, so one record can be shared by every curve that
    has these ends (``sampling`` does so).
    """

    orbit_label: str
    multiplicities: Tuple[int, ...]
    c0_present: bool
    total: int = field(init=False, repr=False, compare=False)  # sum of the multiplicities
    count: int = field(init=False, repr=False, compare=False)  # number of ends

    def __post_init__(self):
        if not self.multiplicities:
            raise StructuralError(f"ends record at {self.orbit_label} lists no end")
        if min(self.multiplicities) < 1:
            raise StructuralError(f"end multiplicities must be positive at {self.orbit_label}")
        object.__setattr__(self, "total", sum(self.multiplicities))
        object.__setattr__(self, "count", len(self.multiplicities))


@dataclass(frozen=True, slots=True)
class CurveData:
    """Combinatorial data of one U-map curve C = C0 u C1, immutable once built.

    ``action`` (the endpoint action difference, by Stokes) is derived on
    read; ``j0``, the J0 topology index -2 + 2 g(C1) + e(C), is computed at
    construction.  e(C) sums, over every orbit where C1 has ends, twice the
    number of ends minus one when no trivial cylinder covers that orbit.

    ``positive_ends`` / ``negative_ends`` record the ends of the embedded
    component C1; at each listed orbit the deficit against the endpoint
    multiplicity is carried by trivial cylinders (C0), and ``c0_present``
    must flag exactly the orbits with a positive deficit.  Orbits of the
    endpoint sets that carry no C1 end at all are implicitly C0-only.
    """

    genus: int
    positive_ends: Tuple[CurveEnds, ...]
    negative_ends: Tuple[CurveEnds, ...]
    alpha: OrbitSet
    beta: OrbitSet
    c_tau: int = 0
    j0: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.genus < 0:
            raise StructuralError("genus must be nonnegative")
        object.__setattr__(self, "positive_ends", tuple(self.positive_ends))
        object.__setattr__(self, "negative_ends", tuple(self.negative_ends))
        self._check_side(self.positive_ends, self.alpha, "positive")
        self._check_side(self.negative_ends, self.beta, "negative")
        (an, ad), (bn, bd) = self.alpha.action_ratio(), self.beta.action_ratio()
        if an * bd < bn * ad:  # the sign of the difference, on cross products
            raise StructuralError(f"curve action must be nonnegative, got {self.action}")
        j0 = -2 + 2 * self.genus
        for side in (self.positive_ends, self.negative_ends):
            for ends in side:
                j0 += 2 * ends.count - (0 if ends.c0_present else 1)
        object.__setattr__(self, "j0", j0)

    @property
    def action(self) -> Fraction:
        return self.alpha.action - self.beta.action

    @staticmethod
    def _check_side(ends: Tuple[CurveEnds, ...], endpoint: OrbitSet, side: str):
        seen = set()
        for e in ends:
            if e.orbit_label in seen:
                raise StructuralError(f"repeated ends record at {e.orbit_label} ({side})")
            seen.add(e.orbit_label)
            total = endpoint.multiplicity(e.orbit_label)
            if total == 0:
                raise StructuralError(f"{side} ends at {e.orbit_label} missing from endpoint set")
            deficit = total - e.total
            if deficit < 0:
                raise StructuralError(
                    f"{side} end multiplicities at {e.orbit_label} exceed endpoint multiplicity"
                )
            if (deficit > 0) != e.c0_present:
                raise StructuralError(
                    f"c0_present flag at {e.orbit_label} ({side}) inconsistent with deficit {deficit}"
                )

    def is_cylinder(self) -> bool:
        """C1 a cylinder: genus 0 with exactly one positive and one negative end."""
        pos = sum(e.count for e in self.positive_ends)
        neg = sum(e.count for e in self.negative_ends)
        return self.genus == 0 and pos == 1 and neg == 1


def ech_index_from_j0(c: CurveData) -> int:
    """ECH index from the index-difference identity: I = J0 + 2 c_tau + CZ^top(alpha) - CZ^top(beta)."""
    return c.j0 + 2 * c.c_tau + c.alpha.cz_top - c.beta.cz_top


def forced_topology(j0: int):
    """Solve -2 + 2g + 2E = j0 for (genus, end count) pairs (g, E) up to the FORCED_MAX_* bounds.

    Trivial cylinders cover every C1-end orbit, so e = 2E; a curve between
    nonempty orbit sets has an end of each sign, so E >= 2.
    """
    out = set()
    for g in range(FORCED_MAX_GENUS + 1):
        for ends in range(2, FORCED_MAX_ENDS + 1):
            if -2 + 2 * g + 2 * ends == j0:
                out.add((g, ends))
    return out


def curve_score(c: CurveData) -> int:
    """S(C) = S(alpha) - S(beta)."""
    return c.alpha.score - c.beta.score


def total_score(c: CurveData) -> int:
    """T(C) = S(C) + 3 y(C) with y = J0 - 2."""
    return curve_score(c) + 3 * (c.j0 - 2)


def k_invariant(c: CurveData) -> int:
    """K(C) = K(alpha) - K(beta) + 2 y(C)."""
    return c.alpha.k - c.beta.k + 2 * (c.j0 - 2)


@dataclass(frozen=True)
class Tower:
    """An immutable chain of curves: curves[i].beta equals curves[i+1].alpha, orbit records included."""

    curves: Tuple[CurveData, ...]

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        if not self.curves:
            raise StructuralError("a tower needs at least one curve")
        for i, (upper, lower) in enumerate(zip(self.curves, self.curves[1:])):
            if upper.beta is not lower.alpha and not upper.beta == lower.alpha:
                raise StructuralError(f"tower adjacency fails between curves {i} and {i + 1}")

    def __len__(self):
        return len(self.curves)

    @property
    def top(self) -> OrbitSet:
        return self.curves[0].alpha

    @property
    def bottom(self) -> OrbitSet:
        return self.curves[-1].beta


def tower_audit(t: Tower, action_threshold) -> dict:
    """Exact telescoping and budget audit of a U-tower.

    Verifies the total-score and action telescoping identities exactly,
    reports ECH-index totals against 2N, counts high-action curves against
    the pigeonhole budget (sum of actions) / threshold, tallies the score
    census, and scans for low-action non-cylinders with negative total score
    (expected none).  ``action_threshold`` (an int, a Fraction or a finite
    float; a ValueError otherwise) is compared at its exact value.
    """
    n = len(t)
    scores = [total_score(c) for c in t.curves]
    ys = [c.j0 - 2 for c in t.curves]
    indices = [ech_index_from_j0(c) for c in t.curves]

    lhs_score = sum(scores)
    rhs_score = t.top.score - t.bottom.score + 3 * sum(ys)
    if not -math.inf < action_threshold < math.inf:
        raise ValueError(f"action threshold must be finite, got {action_threshold}")
    exact = Fraction(action_threshold)  # compared as integer numerators over one common denominator
    pairs = [(c.alpha.action_ratio(), c.beta.action_ratio()) for c in t.curves]
    common = math.lcm(exact.denominator, *(den for pair in pairs for _, den in pair))
    # a curve's key: its alpha level minus its beta level, action * common
    keys = [an * (common // ad) - bn * (common // bd) for (an, ad), (bn, bd) in pairs]
    threshold = exact.numerator * (common // exact.denominator)
    lhs_action = Fraction(sum(keys), common)
    rhs_action = t.top.action - t.bottom.action

    budget = float(lhs_action) / float(exact) if exact > 0 else math.inf
    high_action = [i for i, k in enumerate(keys) if k > threshold]

    negative_low_action = [
        i
        for i, c in enumerate(t.curves)
        if scores[i] < 0 and keys[i] <= threshold and not c.is_cylinder()
    ]

    return {
        "n": n,
        "score_telescoping_ok": lhs_score == rhs_score,
        "score_telescoping": {"lhs": lhs_score, "rhs": rhs_score},
        "action_telescoping_ok": lhs_action == rhs_action,
        "action_telescoping": {"lhs": lhs_action, "rhs": rhs_action},
        "total_ech_index": sum(indices),
        "ech_index_deviation_from_2n": sum(indices) - 2 * n,
        "high_action_count": len(high_action),
        "high_action_budget": budget,
        # count <= sum / threshold, on the exact integer keys: the float budget rounds
        "high_action_within_budget": len(high_action) * threshold <= sum(keys),
        "count_t_positive": sum(1 for s in scores if s > 0),
        "count_t0_j01": sum(1 for s, y in zip(scores, ys) if s == 0 and y == -1),
        "count_t0_j02": sum(1 for s, y in zip(scores, ys) if s == 0 and y == 0),
        "negative_low_action_noncylinders": negative_low_action,
    }


# --- JSON wire formats -----------------------------------------------------
#
# orbit: {"label": str, "action": [num, den] | float, "theta": [num, den] | float,
#         "kind": str, "period": int}; a float action reads as its exact [num, den]
# orbit set: {"orbits": [orbit...], "entries": [[label, mult]...]}
# curve: {"genus": int, "c_tau": int, "alpha": entries, "beta": entries,
#         "positive_ends": [{"orbit": label, "multiplicities": [..], "c0": bool}...],
#         "negative_ends": [...]}
# tower: {"orbits": [orbit...], "curves": [curve...]}; see tower_to_json for what a written one shares


def _orbit_set(d: dict, key: str, pool: Dict[str, SimpleOrbit]) -> OrbitSet:
    """The orbit set of d[key], a JSON array of [label, multiplicity] pairs over the orbits of ``pool``."""
    entries = []
    for e in json_array(d, key):
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and is_json_int(e[1])):
            raise StructuralError(f"{key} entry must be a [label, multiplicity] pair, got {e!r}")
        if e[0] not in pool:
            raise StructuralError(f"unknown orbit label {e[0]!r}")
        entries.append((pool[e[0]], e[1]))
    return OrbitSet(entries)


def _num_from_json(v, key: str):
    """A [numerator, denominator] pair of integers as a Fraction, a finite number as a float."""
    if not isinstance(v, list):
        return json_field(v, key, float)
    if not (len(v) == 2 and is_json_int(v[0]) and is_json_int(v[1])):
        raise StructuralError(f"fraction must be a [numerator, denominator] pair of integers, got {v!r}")
    if v[1] == 0:
        raise StructuralError(f"zero denominator in {v!r}")
    return Fraction(v[0], v[1])


def orbit_to_json(o: SimpleOrbit) -> dict:
    theta = [o.theta.value.numerator, o.theta.value.denominator] if o.theta.exact else float(o.theta.value)
    return {
        "label": o.label,
        "action": [o.action.numerator, o.action.denominator],
        "theta": theta,
        "kind": o.kind,
        "period": o.period,
    }


def orbit_from_json(d: dict) -> SimpleOrbit:
    d = json_record(d, "orbit record")
    return SimpleOrbit(
        label=json_field(d["label"], "label", str),
        action=_num_from_json(d["action"], "action"),
        theta=Rotation.coerce(_num_from_json(d["theta"], "theta")),
        kind=d["kind"],
        period=json_field(d.get("period", 1), "period", int),
    )


def _orbits_to_json(entries: Iterable[Tuple[SimpleOrbit, int]]) -> list:
    """The ``orbits`` list of a document, one record per label, sorted; two different orbits
    under one label raise StructuralError, as one record cannot describe both."""
    labels: Dict[str, SimpleOrbit] = {}
    for o, _ in entries:
        if labels.setdefault(o.label, o) is not o and labels[o.label] != o:
            raise StructuralError(f"orbit label {o.label!r} names two different orbits")
    return [orbit_to_json(labels[k]) for k in sorted(labels)]


def orbit_set_to_json(alpha: OrbitSet) -> dict:
    return {"orbits": _orbits_to_json(alpha.items()), "entries": [[o.label, m] for o, m in alpha.items()]}


def _orbit_pool(orbits: list, tower: Optional[Dict[str, SimpleOrbit]] = None) -> Dict[str, SimpleOrbit]:
    """The orbit records of one ``orbits`` list by label, over a tower's pool when given.

    A label listed twice in the list, or an orbit that differs from the
    tower's orbit of its label, is a StructuralError.
    """
    own: Dict[str, SimpleOrbit] = {}
    for o in map(orbit_from_json, orbits):
        if o.label in own:
            raise StructuralError(f"orbit label {o.label!r} is listed twice")
        if tower and tower.get(o.label, o) != o:
            raise StructuralError(f"orbit {o.label!r} conflicts with the tower's orbit of that label")
        own[o.label] = o
    return {**own, **tower} if tower else own


def orbit_set_from_json(d: dict) -> OrbitSet:
    d = json_record(d, "orbit-set document")
    return _orbit_set(d, "entries", _orbit_pool(json_array(d, "orbits")))


def _curve_body(c: CurveData, sets: dict, ends: dict) -> dict:
    """A curve record without its orbit list, which a tower document holds once for all curves.

    The memos ``sets`` (id of an orbit set -> (set, entries list); holding the
    set keeps its id unique) and ``ends`` (CurveEnds -> ends dict) give each
    distinct set or record one JSON value.
    """
    body = {"genus": c.genus, "c_tau": c.c_tau}
    # memo.get(k) or memo.setdefault(k, value): one hash on a hit, and the value is built only on a miss
    for key, s in (("alpha", c.alpha), ("beta", c.beta)):
        body[key] = (sets.get(id(s)) or sets.setdefault(id(s), (s, [[o.label, m] for o, m in s.items()])))[1]
    for key, side in (("positive_ends", c.positive_ends), ("negative_ends", c.negative_ends)):
        body[key] = [ends.get(e) or ends.setdefault(e, {"orbit": e.orbit_label, "multiplicities": list(e.multiplicities),
                                                        "c0": e.c0_present}) for e in side]
    return body


def curve_to_json(c: CurveData) -> dict:
    return {"orbits": _orbits_to_json(c.alpha.items() + c.beta.items()), **_curve_body(c, {}, {})}


def curve_from_json(d: dict, pool: Optional[Dict[str, SimpleOrbit]] = None) -> CurveData:
    d = json_record(d, "curve record")
    own = json_array(d, "orbits", optional=True)
    local = _orbit_pool(own, pool) if own else pool or {}

    def ends(key):
        records = [json_record(e, "ends record") for e in json_array(d, key, optional=True)]
        return tuple(CurveEnds(json_field(e["orbit"], "orbit", str),
                               tuple(json_field(m, "multiplicities", int) for m in json_array(e, "multiplicities")),
                               json_field(e["c0"], "c0", bool)) for e in records)

    return CurveData(
        genus=json_field(d["genus"], "genus", int),
        positive_ends=ends("positive_ends"),
        negative_ends=ends("negative_ends"),
        alpha=_orbit_set(d, "alpha", local),
        beta=_orbit_set(d, "beta", local),
        c_tau=json_field(d.get("c_tau", 0), "c_tau", int),
    )


def tower_to_json(t: Tower) -> dict:
    """The tower document, sharing what the tower shares: one entries list per
    orbit set object and one ends dict per distinct CurveEnds value, in memos
    local to the call.  ``json.dumps`` writes the bytes of unshared values;
    ``copy.deepcopy`` a document before editing it in place.
    """
    sets, ends = {}, {}
    curves = [_curve_body(c, sets, ends) for c in t.curves]
    return {"orbits": _orbits_to_json(p for s, _ in sets.values() for p in s.items()), "curves": curves}


def tower_from_json(d: dict) -> Tower:
    d = json_record(d, "tower document")
    pool = _orbit_pool(json_array(d, "orbits"))
    return Tower([curve_from_json(c, pool) for c in json_array(d, "curves")])
