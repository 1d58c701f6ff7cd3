"""Reeb orbits on ellipsoid boundaries and their action spectra.

The flow on the boundary of E(a,b) is linear in the two angle coordinates,
so everything here is closed-form: no numerical integration enters except in
the volume cross-check, which deliberately recomputes the contact volume by
quadrature of the pulled-back volume form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import List, Optional, Tuple, Union

TWO_PI = 2.0 * math.pi
CENSUS_CAP = 100_000  # torus families one census may list
SPECTRUM_CAP = 10**7  # default bound on the entries one spectrum may list


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its entry cap."""


def _detect_rational(x: float) -> Optional[Fraction]:
    """Return Fraction(p, q) when the float x encodes a rational with
    numerator and denominator at most 1e6, else None.

    x encodes p/q when the float nearest p/q lies within 4 ulps of x, the
    rounding error of a quotient of two short decimals.  The gate is no
    wider because convergents with q <= 1e6 come within 1e-14 relative of
    about one generic irrational in thirteen.
    """
    k = 1 if x <= 1 else -1  # probe whichever of x and 1/x is at most 1, so both are judged alike
    cand = (Fraction(x) ** k).limit_denominator(10**6)
    # a nonzero x is never the rational 0
    if cand and abs(float(cand**k) - x) <= 4 * math.ulp(x):
        return cand**k
    return None


@dataclass(frozen=True)
class Ellipsoid:
    """Parameters (a, b) of E(a,b); actions of the two core orbits.

    The aspect ratio a/b is probed for rationality at construction: exact
    int or Fraction inputs are tested exactly, and floats are treated as
    irrational unless within 4 ulps of a rational whose numerator and
    denominator are at most 1e6.  a and b are then stored as floats; a
    parameter or a ratio a/b with no positive finite float is refused.
    """

    a: Union[float, Fraction]
    b: Union[float, Fraction]
    ratio_rational: Optional[Fraction] = field(init=False, compare=False)

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError("ellipsoid parameters must be positive and finite")
        try:
            a, b = float(self.a), float(self.b)
        except OverflowError:  # an exact parameter beyond the float range
            a = b = math.nan
        x = a / b if b else math.nan
        if not (0.0 < a < math.inf and 0.0 < x < math.inf):
            raise ValueError("ellipsoid aspect ratio a/b lies outside the float range")
        if isinstance(self.a, (int, Fraction)) and isinstance(self.b, (int, Fraction)):
            ratio = Fraction(self.a) / Fraction(self.b)
        else:
            ratio = _detect_rational(x)
        for name, value in (("a", a), ("b", b), ("ratio_rational", ratio)):
            object.__setattr__(self, name, value)

    @property
    def is_rational(self) -> bool:
        return self.ratio_rational is not None


def simple_orbit_census(e: Ellipsoid, L: float) -> List[dict]:
    """Simple orbits (and degenerate torus families) with action <= L.

    Irrational aspect ratio: exactly the two core circles, with model
    rotation numbers a/b and b/a.  Rational ratio p/q in lowest terms: the
    core circles plus one Morse-Bott torus family per common period m*q*a,
    at most CENSUS_CAP of them.
    """
    if L <= 0:
        raise ValueError("action bound must be positive")
    a, b = e.a, e.b
    out: List[dict] = []
    for label, action, other in (("gamma1", a, b), ("gamma2", b, a)):
        if action <= L:
            out.append({"label": label, "type": "core-circle", "action": action, "rotation": action / other,
                        "kind": "elliptic", "degenerate": e.is_rational})
    ratio = e.ratio_rational
    if ratio is not None:
        p, q = ratio.numerator, ratio.denominator
        period = q * a  # = p * b up to rounding; exact when inputs are exact
        if L > CENSUS_CAP * period:
            raise ResourceCapError(f"census would list more than {CENSUS_CAP} torus families")
        m = 1
        while m * period <= L:
            out.append(
                {
                    "label": f"torus{m}",
                    "type": "torus-family",
                    "action": m * period,
                    "windings": (m * q, m * p),
                    "degenerate": True,
                }
            )
            m += 1
    return out


def spectrum_values(
    e: Ellipsoid,
    L: Optional[float] = None,
    count: Optional[int] = None,
    formal: bool = False,
    cap: int = SPECTRUM_CAP,
) -> List[Tuple[float, int, int]]:
    """Sorted values m*a + n*b with (m, n) witnesses, from row sums.

    Provide a finite action bound L or an entry count of at most ``cap``.  Row n
    starts at b plus the value of (0, n-1) and adds a repeatedly (a heap's float
    sums); rows cut at the bound are pooled and sorted.  A count's bound is
    sqrt(2ab count) + a + b: the unit squares at the lattice points with
    m*a + n*b <= L cover the triangle a*x + b*y <= L, x, y >= 0, of area
    L^2 / (2ab), so it holds count values.  Row n keeps count - n entries,
    as m + n tuples precede (m, n).  Coinciding values of a rational aspect
    ratio are rejected unless ``formal`` is set.
    """
    if (L is None) == (count is None):
        raise ValueError("provide exactly one of L or count")
    if L is not None and not math.isfinite(L):
        raise ValueError(f"action bound must be finite, got {L}")
    if count is not None and count > cap:
        raise ResourceCapError(f"spectrum entry cap {cap} exceeded")
    if e.is_rational and not formal:
        raise ValueError("rational aspect ratio: the spectrum has coinciding values; "
                         "pass formal=True for the formal lattice spectrum")
    a, b = e.a, e.b
    big = math.nextafter(math.inf, 0.0)  # a count's bound stays finite, so rows end before overflow
    bound = L * (1 + 1e-15) if count is None else min(math.sqrt(2.0 * count * a) * math.sqrt(b) + a + b, big)
    out, v0, n = [], 0.0, 0
    while v0 <= bound and (count is None or n < count):
        width = cap + 1 - len(out) if count is None else count - n  # at most one past the cap
        row = list(accumulate(repeat(a, int(min(width - 1, (bound - v0) / a + 1))), initial=v0))
        while len(row) < width and row[-1] <= bound:
            row.append(row[-1] + a)
        out += zip(row, range(bisect_right(row, bound)), repeat(n))
        if count is None and len(out) > cap:
            raise ResourceCapError(f"spectrum entry cap {cap} exceeded")
        v0, n = v0 + b, n + 1
    if count is not None and len(out) < count:  # only a bound cut at the largest float falls short
        raise OverflowError("spectrum values overflow a float")
    out.sort()
    if count is not None:
        del out[count:]
    return out


def weyl_table(e: Ellipsoid, kmax: int, formal: bool = False) -> dict:
    """Convergence of c_k^2 / (2k) to the contact volume a*b.

    Rows are a geometric subsample of k up to kmax; the summary records the
    running maximum deviation over the final decade [kmax/10, kmax].
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    cs = [x[0] for x in spectrum_values(e, count=kmax + 1, formal=formal)]
    v = volume(e)
    ratio = [c * c / (2.0 * k) for k, c in enumerate(cs[1:], 1)]
    dev = [abs(r - v) for r in ratio]
    rows = [
        {"k": k, "c_k": cs[k], "ratio": ratio[k - 1], "deviation": dev[k - 1]}
        for k in sorted({2**j for j in range(kmax.bit_length())} | {kmax})
    ]
    return {
        "volume": v,
        "rows": rows,
        "final_decade_max_deviation": max(dev[max(1, kmax // 10) - 1 :]),
    }


def volume(e: Ellipsoid) -> float:
    """Contact volume of the boundary: the closed form a*b."""
    return e.a * e.b


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Each node is a root of the Legendre polynomial P_n, found by Newton's
    method from the guess -cos(pi (i - 1/4) / (n + 1/2)); P_n and P_(n-1) come
    from the three-term recurrence, and the weight is 2 / ((1 - x^2) P_n'(x)^2).
    Cached per n, as tuples so that no caller can change the shared rule.
    """
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = -math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def volume_quadrature(e: Ellipsoid, n_mu: int = 200, n_angle: int = 16) -> float:
    """Contact volume recomputed by quadrature of the pulled-back volume form.

    Parameterizes the boundary by (mu, theta1, theta2), evaluates the 3-form
    lambda ^ d(lambda) on the coordinate frame from the ambient embedding, and
    integrates with Gauss-Legendre in mu and trapezoids in the angles.  Never
    consults the closed form.
    """
    a, b = e.a, e.b
    trig = [(math.cos(t), math.sin(t)) for t in (TWO_PI * j / n_angle for j in range(n_angle))]
    total = 0.0
    for x, w in zip(*_gauss_legendre(n_mu)):
        mu, w = 0.5 * (x + 1.0), 0.5 * w
        r1 = math.sqrt(a * mu / math.pi) if mu > 0 else 0.0
        r2 = math.sqrt(b * (1 - mu) / math.pi) if mu < 1 else 0.0
        dr1 = a / (2 * math.pi * r1) if r1 > 0 else 0.0
        dr2 = -b / (2 * math.pi * r2) if r2 > 0 else 0.0
        # embedding p = (x1, y1, x2, y2), d_mu = (u1, v1, u2, v2), d_t1 = (e1, f1, 0, 0), d_t2 = (0, 0, e2, f2)
        second = [(r2 * c2, r2 * s2, dr2 * c2, dr2 * s2, -r2 * s2, r2 * c2) for c2, s2 in trig]
        acc = 0.0
        for c1, s1 in trig:
            x1, y1, u1, v1, e1, f1 = r1 * c1, r1 * s1, dr1 * c1, dr1 * s1, -r1 * s1, r1 * c1
            for x2, y2, u2, v2, e2, f2 in second:
                # lam(p, dm) dlam(d1, d2) - lam(p, d1) dlam(dm, d2) + lam(p, d2) dlam(dm, d1),
                # where dlam(d1, d2) = 0 and the zero components of d1 and d2 drop out
                acc += (0.5 * (x2 * f2 - y2 * e2) * (u1 * f1 - v1 * e1)
                        - 0.5 * (x1 * f1 - y1 * e1) * (u2 * f2 - v2 * e2))
        total += w * acc * (TWO_PI / n_angle) ** 2
    return abs(total)


def gss_return_map(e: Ellipsoid, point: Tuple[float, float]) -> Tuple[Tuple[float, float], float]:
    """First-return map on the disk section spanning gamma2 at theta1 = 0.

    The return time is exactly a; the induced map rotates the section angle
    by 2*pi*a/b, reduced mod 2*pi, and preserves the radius fraction.
    """
    radius, angle = point
    if not (0.0 <= radius < 1.0):
        raise ValueError("point on binding orbit" if radius >= 1.0 else "radius fraction must be in [0, 1)")
    rotation = TWO_PI * e.a / e.b
    if rotation == math.inf:
        raise ValueError("return-map rotation 2*pi*a/b overflows the float range")
    return (radius, (angle + math.fmod(rotation, TWO_PI)) % TWO_PI), e.a
