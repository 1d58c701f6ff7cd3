"""Rotation numbers, Conley-Zehnder indices, and lattice-path partitions.

Rotation numbers are dimensionless (one full turn = 1).  Exact rationals and
floating-point reals never mix silently: every value carries its
representation tag.  The index and partition constructions are stated for
nondegenerate orbits, so the floating lane has one guard, ``_near_integer``
with the fixed threshold ``REAL_GUARD`` = 1e-12: a real multiple m*theta that
close to an integer is degenerate, and floor/ceil refuse it with
DegenerateRotationError.  The partitions apply the same test to every cover
k <= m in one loop, ``_check_covers``.  Exact rationals need no guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

REAL_GUARD = 1e-12

Number = Union[int, float, Fraction]


class DegenerateRotationError(ValueError):
    """A real rotation number sits within the guard of an integrality wall."""


def _near_integer(x: float) -> bool:
    """The real lane's nondegeneracy guard: x within REAL_GUARD of an integer."""
    return abs(x - round(x)) <= REAL_GUARD


def _degenerate(m: int, x: float) -> DegenerateRotationError:
    return DegenerateRotationError(f"degenerate rotation at multiplicity {m}: m*theta = {x!r} is within "
                                   f"{REAL_GUARD} of an integer; pass an exact rational p/q")


@dataclass(frozen=True)
class Rotation:
    """A rotation number, tagged exact-rational or floating-real.

    ``value`` is a Fraction when ``exact`` and a float otherwise.  The number
    is stored as-is (not reduced mod 1): Conley-Zehnder indices depend on the
    full rotation, partitions only on its fractional part.
    """

    value: Union[Fraction, float]
    exact: bool

    @staticmethod
    def rational(num: Union[int, Fraction], den: int = 1) -> "Rotation":
        return Rotation(Fraction(num, den), True)

    @staticmethod
    def real(x: float) -> "Rotation":
        return Rotation(float(x), False)

    @staticmethod
    def coerce(theta: Union["Rotation", Number]) -> "Rotation":
        if isinstance(theta, Rotation):
            return theta
        if isinstance(theta, (int, Fraction)):
            return Rotation.rational(theta)
        return Rotation.real(theta)

    def scaled_floor(self, m: int) -> int:
        """floor(m * theta), guarded against near-integral m*theta in the real lane."""
        if self.exact:
            return self.value.numerator * m // self.value.denominator
        x = self.value * m
        if _near_integer(x):
            raise _degenerate(m, x)
        return math.floor(x)

    def scaled_ceil(self, m: int) -> int:
        if self.exact:
            return -(-self.value.numerator * m // self.value.denominator)
        return self.scaled_floor(m) + 1

    def ratio(self) -> tuple:
        """(p, q) with theta = p/q exactly, q > 0: a real's float as its binary ratio."""
        if self.exact:
            return self.value.numerator, self.value.denominator
        return self.value.as_integer_ratio()

    def is_integral(self) -> bool:
        if self.exact:
            return self.value.denominator == 1
        return _near_integer(self.value)

    def is_half_integral(self) -> bool:
        """theta in Z + 1/2."""
        if self.exact:
            return self.value.denominator == 2
        return _near_integer(self.value - 0.5)


def cz_index(theta, m: int) -> int:
    """Conley-Zehnder index of the m-fold cover: floor(m*theta) + ceil(m*theta).

    Exact for rational theta.  For real theta, m*theta within REAL_GUARD of
    an integer is a degenerate cover, and its index is undefined: the call
    raises DegenerateRotationError.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    rot = Rotation.coerce(theta)
    return rot.scaled_floor(m) + rot.scaled_ceil(m)


def _lower_denominator(a: int, b: int, n: int) -> int:
    """Denominator of the largest fraction <= a/b (0 <= a < b) with denominator <= n.

    Stern-Brocot descent by runs between Farey neighbours lo = p0/q0 <= a/b < hi = p1/q1;
    it stops when lo is a/b or the mediant's denominator passes n.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    while q0 + q1 <= n:
        below = a * q0 - b * p0  # b*q0*(a/b - lo)
        if not below:
            break
        above = b * p1 - a * q1  # b*q1*(hi - a/b), > 0
        k = below // above
        if k:
            k = min(k, (n - q0) // q1)
            p0, q0 = p0 + k * p1, q0 + k * q1
        else:
            k = min((above - 1) // below, (n - q1) // q0)
            p1, q1 = p1 + k * p0, q1 + k * q0
    return q0


def _greedy_parts(a: int, b: int, m: int) -> tuple:
    """Parts of the maximal concave lattice path under y = (a/b)x over width m, largest first:
    each next denominator is at most the width left, m mod d < d, so the parts never rise."""
    parts: list = []
    while m:
        d = _lower_denominator(a, b, m)
        parts += [d] * (m // d)
        m %= d
    return tuple(parts)


def _check_covers(theta: float, m: int) -> None:
    """Raise for the least cover k <= m with ``_near_integer(theta * k)``, inlined:
    t*k is |theta*k| exactly, and for f = t*k % 1.0 its distance to Z is min(f, 1 - f)."""
    t = -theta if theta < 0 else theta
    for k in range(1, m + 1):
        f = t * k % 1.0
        if f <= REAL_GUARD or 1.0 - f <= REAL_GUARD:
            raise _degenerate(k, theta * k)


@lru_cache(maxsize=65536)
def _partitions(rot: Rotation, m: int) -> tuple:
    """(p+, p-) for (theta, m), both from theta's exact ratio p/q."""
    if not rot.exact:
        _check_covers(rot.value, m)
    p, q = rot.ratio()
    return _greedy_parts(p % q, q, m), _greedy_parts(-p % q, q, m)


def partition_positive(theta, m: int) -> tuple:
    """Positive partition p+_theta(m), a tuple of ints largest first: horizontal
    displacements of the maximal concave lattice path below y = theta*x from
    (0,0) to (m, floor(m*theta)).

    Every lattice point on the hull boundary counts as a vertex, so collinear
    steps yield equal parts.  Greedy over the best lower approximations of
    {theta}: with d the denominator of the largest fraction <= {theta} whose
    denominator is <= the width w left, emit w // d parts d and keep w mod d.
    The vertex (d, floor(d*theta)) has the least residual over x <= w, so
    floor((d+x)*theta) = floor(d*theta) + floor(x*theta) and the rest of the
    path is the same path, translated.  A real theta uses its float's exact
    binary ratio once every cover k <= m passes the real-lane guard.  The
    monotone-chain and staircase constructions live on as test oracles.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    return _partitions(Rotation.coerce(theta), m)[0]


def partition_negative(theta, m: int) -> tuple:
    """Negative partition p-_theta(m): horizontal displacements of the lower
    convex-hull boundary of lattice points on or above y = theta*x, from (0,0)
    to (m, ceil(m*theta)).  As ceil(x*theta) = -floor(-x*theta), this is
    p+_{-theta}(m), built from the best lower approximations of {-theta}.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    return _partitions(Rotation.coerce(theta), m)[1]


def partition_properties(theta, m: int) -> dict:
    """Evaluate the three reversal-lemma items for (theta, m), m >= 2, theta not integral.

    (i)   p+ and p- share no part value,
    (ii)  1 lies in exactly one of p+, p-,
    (iii) |p+| + |p-| <= 3 only if m*{theta} < 2 or m*(1 - {theta}) < 2.

    The reversal items (i), (ii) belong to the nondegenerate elliptic
    regime: they apply only when every cover up to m has non-integral
    rotation (rational u/v in lowest terms: m < v; half-integral rotations
    never qualify and follow the hyperbolic-case pattern instead).  The
    count bound (iii) needs only the m-fold cover nondegenerate.  Items
    outside their regime are reported None and skipped by ``all_pass``; a
    failed applicable item indicates a bug in the partition construction,
    never in the input.
    """
    if m < 2:
        raise ValueError(f"properties are stated for m >= 2, got {m}")
    rot = Rotation.coerce(theta)
    if rot.is_integral():
        raise ValueError("integral rotation: handled by the hyperbolic-case clauses instead")
    pp = partition_positive(rot, m)
    pn = partition_negative(rot, m)
    p, q = rot.ratio()
    a = p % q  # {theta} = a/q
    if rot.exact:
        covers_nondegenerate = m < q
        top_nondegenerate = m * a % q != 0
    else:
        # the partitions passed the real-lane guard at every cover k <= m
        covers_nondegenerate = top_nondegenerate = True
    item1 = not set(pp) & set(pn) if covers_nondegenerate else None
    item2 = ((1 in pp) != (1 in pn)) if covers_nondegenerate else None
    small = m * a < 2 * q or m * (q - a) < 2 * q
    item3 = (len(pp) + len(pn) > 3 or small) if top_nondegenerate else None
    return {
        "p_plus": pp,
        "p_minus": pn,
        "reversal_applicable": covers_nondegenerate,
        "bound_applicable": top_nondegenerate,
        "disjoint": item1,
        "one_in_exactly_one": item2,
        "count_bound": item3,
        "all_pass": all(v is not False for v in (item1, item2, item3)),
    }
