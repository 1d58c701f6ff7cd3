"""Orbit sets, curve data, topological index bookkeeping, and tower audits.

Every orbit action is an exact Fraction (a float action is read as its exact
binary value), so the telescoping identities in tower audits hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

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


class StructuralError(ValueError):
    """Malformed orbit-set / curve / tower data."""


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
    elliptic otherwise.  ``period`` is the orbit's period count used by the
    mapping-torus degree; it defaults to 1 and is ignored in the abstract
    setting.  ``cover(m)`` memoises ``cover_indices(theta, m)`` per m.
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
    construction, and read-only: the total ``action`` (one Fraction over the
    LCM of the entry denominators, as every action is exact), ``cz_top``, the
    score ``score`` and ``k``.  The indices are defined for nondegenerate
    orbits only, so a real-lane orbit with a degenerate cover raises
    DegenerateRotationError here.
    """

    __slots__ = ("_items", "_action", "_cz_top", "_score", "_k")

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
        self._action = Fraction(num, common)
        self._cz_top, self._score, self._k = cz_top, score, k

    def items(self) -> Tuple[Tuple[SimpleOrbit, int], ...]:
        return self._items

    @property
    def action(self) -> Fraction:
        """Multiplicity-weighted total action; the empty set has action 0."""
        return self._action

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
        return [(o.label, m) for o, m in self._items] == [(o.label, m) for o, m in other._items]

    def degree(self, mapping_torus: bool = False) -> int:
        """Sum of multiplicities, weighted by orbit periods in the mapping-torus setting."""
        if mapping_torus:
            return sum(o.period * m for o, m in self._items)
        return sum(m for _, m in self._items)


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


_ZERO = Fraction(0)  # the action of every zero-action curve, shared


@dataclass(frozen=True, slots=True)
class CurveData:
    """Combinatorial data of one U-map curve C = C0 u C1, immutable once built.

    ``action`` (the endpoint action difference, by Stokes) and ``j0``, the
    J0 topology index -2 + 2 g(C1) + e(C), are computed at construction.
    e(C) sums, over every orbit where C1 has ends, twice the number of ends
    minus one when no trivial cylinder covers that orbit.

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
    action: Fraction = field(init=False, repr=False, compare=False)
    j0: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.genus < 0:
            raise StructuralError("genus must be nonnegative")
        object.__setattr__(self, "positive_ends", tuple(self.positive_ends))
        object.__setattr__(self, "negative_ends", tuple(self.negative_ends))
        self._check_side(self.positive_ends, self.alpha, "positive")
        self._check_side(self.negative_ends, self.beta, "negative")
        # a generated tower shares a set drawn twice, so its curve skips the subtraction
        act = _ZERO if self.alpha is self.beta else self.alpha.action - self.beta.action
        if act.numerator < 0:  # the sign, without Fraction's ordering
            raise StructuralError(f"curve action must be nonnegative, got {act}")
        object.__setattr__(self, "action", act if act.numerator else _ZERO)
        j0 = -2 + 2 * self.genus
        for ends in self.positive_ends + self.negative_ends:
            j0 += 2 * ends.count - (0 if ends.c0_present else 1)
        object.__setattr__(self, "j0", j0)

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


def forced_topology(j0: int, full_coverage: bool, max_genus: int = 3, max_ends: int = 6):
    """Solve -2 + 2g + e = j0 for small (genus, end count) data.

    With full trivial-cylinder coverage, e = 2E and the solutions are pairs
    (g, E); a curve between nonempty orbit sets needs at least one end of
    each sign, so E >= 2.  Without full coverage the number A of C1-end
    orbits lacking C0 enters as e = 2E - A, and triples (g, E, A) are
    returned.
    """
    out = set()
    for g in range(0, max_genus + 1):
        for ends in range(2, max_ends + 1):
            if full_coverage:
                if -2 + 2 * g + 2 * ends == j0:
                    out.add((g, ends))
            else:
                for absent in range(0, ends + 1):
                    if -2 + 2 * g + 2 * ends - absent == j0:
                        out.add((g, ends, absent))
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


@dataclass
class Tower:
    """A chained sequence of curves: curves[i].beta equals curves[i+1].alpha."""

    curves: List[CurveData]

    def __post_init__(self):
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
    actions = [c.action for c in t.curves]
    indices = [ech_index_from_j0(c) for c in t.curves]

    lhs_score = sum(scores)
    rhs_score = t.top.score - t.bottom.score + 3 * sum(ys)
    if not -math.inf < action_threshold < math.inf:
        raise ValueError(f"action threshold must be finite, got {action_threshold}")
    exact = Fraction(action_threshold)  # compared as integer numerators over one common denominator
    common = math.lcm(exact.denominator, *(a.denominator for a in actions))
    keys = [a.numerator * (common // a.denominator) for a in actions]
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
        "high_action_within_budget": len(high_action) <= budget,
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
# tower: {"orbits": [orbit...], "curves": [curve...]} with per-curve entries lists.


class _Record(dict):
    """A JSON object read as a ``what``: reading a field it lacks is a StructuralError."""

    def __init__(self, d: dict, what: str):
        super().__init__(d)
        self.what = what

    def __missing__(self, key):
        raise StructuralError(f"{self.what} has no {key!r} field")


def _record(d, what: str) -> _Record:
    """d as a _Record when it is a JSON object; a StructuralError otherwise."""
    if not isinstance(d, dict):
        raise StructuralError(f"{what} must be a JSON object, got {type(d).__name__}")
    return _Record(d, what)


def _array(d: _Record, key: str, optional: bool = False) -> list:
    """d[key] when it is a JSON array (absent and optional: empty); a StructuralError otherwise."""
    v = d.get(key, []) if optional else d[key]
    if not isinstance(v, list):
        raise StructuralError(f"{key} must be a JSON array, got {type(v).__name__}")
    return v


def _is_int(v) -> bool:
    """Whether v is a JSON integer (true and false are not)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(v, key: str) -> int:
    """v, the value of field ``key``, when it is a JSON integer; a StructuralError otherwise."""
    if not _is_int(v):
        raise StructuralError(f"{key} must be an integer, got {v!r}")
    return v


def _number(v, key: str) -> float:
    """v, the value of field ``key``, as a float when it is a finite JSON number; a StructuralError
    otherwise, or an OverflowError for an integer beyond the float range."""
    if not ((_is_int(v) or isinstance(v, float)) and math.isfinite(v)):
        raise StructuralError(f"{key} must be a finite number, got {v!r}")
    return float(v)


def _string(v, key: str) -> str:
    """v, the value of field ``key``, when it is a JSON string; a StructuralError otherwise."""
    if not isinstance(v, str):
        raise StructuralError(f"{key} must be a string, got {v!r}")
    return v


def _boolean(v, key: str) -> bool:
    """v, the value of field ``key``, when it is a JSON boolean; a StructuralError otherwise."""
    if not isinstance(v, bool):
        raise StructuralError(f"{key} must be a boolean, got {v!r}")
    return v


def _orbit_set(d: _Record, key: str, pool: Dict[str, SimpleOrbit]) -> OrbitSet:
    """The orbit set of d[key], a JSON array of [label, multiplicity] pairs over the orbits of ``pool``."""
    entries = []
    for e in _array(d, key):
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and _is_int(e[1])):
            raise StructuralError(f"{key} entry must be a [label, multiplicity] pair, got {e!r}")
        if e[0] not in pool:
            raise StructuralError(f"unknown orbit label {e[0]!r}")
        entries.append((pool[e[0]], e[1]))
    return OrbitSet(entries)


def _fraction_from_json(v: list) -> Fraction:
    if not (len(v) == 2 and _is_int(v[0]) and _is_int(v[1])):
        raise StructuralError(f"fraction must be a [numerator, denominator] pair of integers, got {v!r}")
    if v[1] == 0:
        raise StructuralError(f"zero denominator in {v!r}")
    return Fraction(v[0], v[1])


def _num_from_json(v, key: str):
    """A [numerator, denominator] pair as a Fraction, a finite number as a float."""
    if isinstance(v, list):
        return _fraction_from_json(v)
    return _number(v, key)


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
    d = _record(d, "orbit record")
    return SimpleOrbit(
        label=_string(d["label"], "label"),
        action=_num_from_json(d["action"], "action"),
        theta=Rotation.coerce(_num_from_json(d["theta"], "theta")),
        kind=d["kind"],
        period=_integer(d.get("period", 1), "period"),
    )


def orbit_set_to_json(alpha: OrbitSet) -> dict:
    return {
        "orbits": [orbit_to_json(o) for o, _ in alpha.items()],
        "entries": [[o.label, m] for o, m in alpha.items()],
    }


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
    d = _record(d, "orbit-set document")
    return _orbit_set(d, "entries", _orbit_pool(_array(d, "orbits")))


def _ends_to_json(side: Tuple[CurveEnds, ...]) -> list:
    return [{"orbit": e.orbit_label, "multiplicities": list(e.multiplicities), "c0": e.c0_present}
            for e in side]


def _curve_body(c: CurveData) -> dict:
    """A curve record without its orbit list, which a tower document holds once for all curves."""
    return {
        "genus": c.genus,
        "c_tau": c.c_tau,
        "alpha": [[o.label, m] for o, m in c.alpha.items()],
        "beta": [[o.label, m] for o, m in c.beta.items()],
        "positive_ends": _ends_to_json(c.positive_ends),
        "negative_ends": _ends_to_json(c.negative_ends),
    }


def curve_to_json(c: CurveData) -> dict:
    labels = {o.label: o for o, _ in c.alpha.items() + c.beta.items()}
    return {"orbits": [orbit_to_json(labels[k]) for k in sorted(labels)], **_curve_body(c)}


def curve_from_json(d: dict, pool: Optional[Dict[str, SimpleOrbit]] = None) -> CurveData:
    d = _record(d, "curve record")
    own = _array(d, "orbits", optional=True)
    local = _orbit_pool(own, pool) if own else pool or {}

    def ends(key):
        records = [_record(e, "ends record") for e in _array(d, key, optional=True)]
        return tuple(CurveEnds(_string(e["orbit"], "orbit"),
                               tuple(_integer(m, "multiplicities") for m in _array(e, "multiplicities")),
                               _boolean(e["c0"], "c0")) for e in records)

    return CurveData(
        genus=_integer(d["genus"], "genus"),
        positive_ends=ends("positive_ends"),
        negative_ends=ends("negative_ends"),
        alpha=_orbit_set(d, "alpha", local),
        beta=_orbit_set(d, "beta", local),
        c_tau=_integer(d.get("c_tau", 0), "c_tau"),
    )


def tower_to_json(t: Tower) -> dict:
    labels = {o.label: o for c in t.curves for o, _ in c.alpha.items() + c.beta.items()}
    return {"orbits": [orbit_to_json(labels[k]) for k in sorted(labels)],
            "curves": [_curve_body(c) for c in t.curves]}


def tower_from_json(d: dict) -> Tower:
    d = _record(d, "tower document")
    pool = _orbit_pool(_array(d, "orbits"))
    return Tower([curve_from_json(c, pool) for c in _array(d, "curves")])
