"""Rotation numbers, Conley-Zehnder indices, and lattice-path partitions.

Rotation numbers are dimensionless (one full turn = 1).  Exact rationals and
floating-point reals never mix silently: every value carries its
representation tag.  The index and partition constructions are stated for
nondegenerate orbits, so the floating lane has one guard, ``_near_integer``
with the fixed threshold ``REAL_GUARD`` = 1e-12: a real multiple m*theta that
close to an integer is degenerate, and floor/ceil refuse it with
DegenerateRotationError.  Exact rationals need no guard.
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

    def __float__(self) -> float:
        return float(self.value)

    def scaled_floor(self, m: int) -> int:
        """floor(m * theta), guarded against near-integral m*theta in the real lane."""
        if self.exact:
            return self.value.numerator * m // self.value.denominator
        x = self.value * m
        if _near_integer(x):
            raise DegenerateRotationError(
                f"degenerate rotation at multiplicity {m}: m*theta = {x!r} is within "
                f"{REAL_GUARD} of an integer; pass an exact rational p/q"
            )
        return math.floor(x)

    def scaled_ceil(self, m: int) -> int:
        if self.exact:
            return -(-self.value.numerator * m // self.value.denominator)
        return self.scaled_floor(m) + 1

    def is_integral(self) -> bool:
        if self.exact:
            return self.value.denominator == 1
        return _near_integer(self.value)

    def is_half_integral(self) -> bool:
        """theta in Z + 1/2."""
        if self.exact:
            return self.value.denominator == 2
        return _near_integer(self.value - 0.5)

    def fractional_part(self) -> Union[Fraction, float]:
        """{theta} in [0, 1), consistent for negative theta."""
        return self.value - math.floor(self.value)


@dataclass(frozen=True)
class Partition:
    """A multiset of positive integers, canonically sorted descending."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))
        if any(p < 1 for p in self.parts):
            raise ValueError(f"partition parts must be positive: {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __contains__(self, k: int) -> bool:
        return k in self.parts

    def as_multiset(self) -> dict:
        out: dict = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def disjoint_from(self, other: "Partition") -> bool:
        return not (set(self.parts) & set(other.parts))


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


def _column_heights(rot: Rotation, m: int, upper: bool) -> list:
    """Heights floor(x*theta) (upper path) or ceil(x*theta) (lower path), x = 0..m."""
    if upper:
        return [0] + [rot.scaled_floor(x) for x in range(1, m + 1)]
    return [0] + [rot.scaled_ceil(x) for x in range(1, m + 1)]


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_path(points: list, upper: bool) -> list:
    """Monotone-chain upper (concave) or lower (convex) boundary through sorted points."""
    hull: list = []
    for p in points:
        while len(hull) >= 2:
            c = _cross(hull[-2], hull[-1], p)
            if (upper and c >= 0) or (not upper and c <= 0):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _parts_from_vertices(vertices: list) -> list:
    """Horizontal displacements, splitting each hull edge at its interior lattice points."""
    parts = []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        dx, dy = x1 - x0, y1 - y0
        g = math.gcd(dx, abs(dy))
        parts.extend([dx // g] * g)
    return parts


@lru_cache(maxsize=65536)
def _partition_cached(rot: Rotation, m: int, upper: bool) -> Partition:
    heights = _column_heights(rot, m, upper=upper)
    pts = [(x, h) for x, h in enumerate(heights)]
    verts = _hull_path(pts, upper=upper)
    return Partition(tuple(_parts_from_vertices(verts)))


def partition_positive(theta, m: int) -> Partition:
    """Positive partition p+_theta(m): horizontal displacements of the maximal
    concave lattice path below y = theta*x from (0,0) to (m, floor(m*theta)).

    Every lattice point on the hull boundary counts as a vertex, so collinear
    unit steps yield parts of size 1.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    return _partition_cached(Rotation.coerce(theta), m, True)


def partition_negative(theta, m: int) -> Partition:
    """Negative partition p-_theta(m): horizontal displacements of the lower
    convex-hull boundary of lattice points on or above y = theta*x, from (0,0)
    to (m, ceil(m*theta))."""
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    return _partition_cached(Rotation.coerce(theta), m, False)


def staircase_partition(theta, m: int, positive: bool = True) -> Partition:
    """Independent O(m^2) greedy-staircase oracle for p+/p-.

    From each reached lattice point, take the step of maximal (positive case,
    staying below the line) or minimal (negative case, staying above) slope;
    ties resolve to the shortest step, which records collinear lattice points
    as vertices.  Used only to cross-check the convex-hull construction.
    """
    rot = Rotation.coerce(theta)
    heights = _column_heights(rot, m, upper=positive)
    parts = []
    x, y = 0, 0
    while x < m:
        best = None  # (dy, dx) slope comparison via cross-multiplication
        for nx in range(x + 1, m + 1):
            dx, dy = nx - x, heights[nx] - y
            if best is None:
                best = (dx, dy)
                continue
            bdx, bdy = best
            c = dy * bdx - bdy * dx
            if positive:
                take = c > 0 or (c == 0 and dx < bdx)
            else:
                take = c < 0 or (c == 0 and dx < bdx)
            if take:
                best = (dx, dy)
        dx, dy = best
        parts.append(dx)
        x, y = x + dx, y + dy
    return Partition(tuple(parts))


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
    frac = rot.fractional_part()
    if rot.exact:
        covers_nondegenerate = m < rot.value.denominator
        top_nondegenerate = (rot.value * m).denominator > 1
    else:
        # the partitions passed the real-lane guard at every cover k <= m
        covers_nondegenerate = top_nondegenerate = True
    item1 = pp.disjoint_from(pn) if covers_nondegenerate else None
    item2 = ((1 in pp) != (1 in pn)) if covers_nondegenerate else None
    if top_nondegenerate:
        small = (m * frac < 2) or (m * (1 - frac) < 2)
        item3 = (len(pp) + len(pn) > 3) or small
    else:
        item3 = None
    verdicts = [v for v in (item1, item2, item3) if v is not None]
    return {
        "theta": rot,
        "m": m,
        "p_plus": pp,
        "p_minus": pn,
        "reversal_applicable": covers_nondegenerate,
        "bound_applicable": top_nondegenerate,
        "disjoint": item1,
        "one_in_exactly_one": item2,
        "count_bound": item3,
        "all_pass": all(verdicts),
    }


def hyperbolic_expectation(theta, m: int) -> Partition:
    """Expected partition at integral / half-integral rotation (either sign of end).

    Integral theta: m parts of size 1.  Half-integral theta: m/2 twos when m
    is even, else floor(m/2) twos and a single one.
    """
    rot = Rotation.coerce(theta)
    if rot.is_integral():
        return Partition((1,) * m)
    if rot.is_half_integral():
        if m % 2 == 0:
            return Partition((2,) * (m // 2))
        return Partition((2,) * (m // 2) + (1,))
    raise ValueError("expected integral or half-integral rotation")
