"""Monotone radial twist maps: profiles, Calabi invariant, Hofer bound, census.

A profile is the twist angle f(r) >= 0 (radians) as a non-increasing function
of the radius, represented piecewise by Laurent polynomials so that all the
radial integrals are closed-form.  Sampled profiles are converted to
piecewise-linear segments at construction.  Every profile, from whichever
constructor, is certified non-increasing and nonnegative when it is built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .reporting import StructuralError, is_json_int, json_array, json_field, json_record

TWO_PI = 2.0 * math.pi

# Calibration constants for the combinatorial model, recorded in every run
# manifest.  The winding ("p") term of the level action is the symplectic
# area between the periodic circle and the boundary, p_area_scale * E(r) with
# E(r) = (1 - r^2)/2; the quadrature oracle fixes p_area_scale = 2*pi, and
# the chain complex's action coefficients read it from here.  The spectral
# invariant uses the radial staircase rule (see pfh module).
CALIBRATION = {
    "p_area_scale": TWO_PI,
    "reference_action": 0.0,
    "spectral_rule": "radial-staircase",
}

_LEVEL_TOL = 1e-12  # bisection and plateau tolerance of the level solver
_CERTIFY_SAMPLES = 64  # sample points per segment in the monotonicity certificate


def plain_sum(values) -> float:
    """The values added in order from 0, as sum() did before Python 3.12 compensated float sums."""
    total = 0
    for v in values:
        total += v
    return total


def _tanh_sinh_rule(step: float, t_max: float) -> Tuple[Tuple[float, float], ...]:
    """The tanh-sinh rule on [0, 1] as (gap, weight) pairs, each used at both ends.

    x(t) = 1 / (1 + exp(-pi sinh t)) maps the line onto (0, 1), and the
    trapezoid rule in t with nodes t = k * step, |t| <= t_max, converges
    doubly exponentially, also for a log singularity at an end or a pole just
    beyond one.  A node is stored as its gap 1 - x(|t|) to the nearer end, so
    nodes next to an end keep full precision; the centre node, met by both
    ends, carries half its weight.
    """
    rule = [(0.5, step * math.pi / 8)]
    for k in range(1, int(t_max / step) + 1):
        t = k * step
        gap = 1.0 / (1.0 + math.exp(math.pi * math.sinh(t)))
        rule.append((gap, step * math.pi * math.cosh(t) * gap * (1.0 - gap)))
    return tuple(rule)


# 225 nodes per segment; the last gap is ~3e-23.  On sampled profiles and on
# s^-3 truncated as deep as r = 1e-8 (a pole 1e-8 beyond a segment's end) the
# rule matches the closed form to 1e-13 relative, against the check's 1e-9.
_TANH_SINH = _tanh_sinh_rule(1.0 / 32.0, 3.5)


class PlateauError(ValueError):
    """The profile is constant at a requested rotation level."""


class MonotonicityError(ValueError):
    """The profile fails its non-increasing certificate."""


class FubiniCheckError(ArithmeticError):
    """The closed-form Calabi invariant disagrees with the integral of H."""


@dataclass(frozen=True)
class Segment:
    """f(s) = sum of coef * s**expo on [lo, hi]."""

    lo: float
    hi: float
    terms: Tuple[Tuple[float, int], ...]

    def value(self, s: float) -> float:
        # plain_sum inline: this is on the census's bisection path
        v = 0
        for c, k in self.terms:
            v += c * s**k
        return v

    def derivative(self, s: float) -> float:
        return plain_sum(c * k * s ** (k - 1) for c, k in self.terms if k != 0)

    def is_constant(self) -> bool:
        return all(c == 0 or k == 0 for c, k in self.terms)

    def integral_weighted(self, x: float, y: float, weight: int) -> float:
        """Integral of s**weight * f(s) over [x, y] (closed form, log-aware)."""
        total = 0.0
        for c, k in self.terms:
            kk = k + weight
            if kk == -1:
                total += c * (math.log(y) - math.log(x))
            else:
                total += c * (y ** (kk + 1) - x ** (kk + 1)) / (kk + 1)
        return total

    def diverges_at_zero(self, weight: int) -> bool:
        """Whether the integral of s**weight * f from 0 diverges on a segment touching 0."""
        return any(c != 0 and k + weight <= -1 for c, k in self.terms)


class TwistProfile:
    """Non-increasing twist-angle profile with a monotonicity certificate.

    ``support_flag`` is true exactly when the profile vanishes on a
    neighborhood of r = 1, which is required by the chain-complex export.
    """

    def __init__(self, segments: Sequence[Segment], name: str = "profile"):
        segs = sorted(segments, key=lambda s: s.lo)
        if not segs or abs(segs[0].lo) > 1e-15 or abs(segs[-1].hi - 1.0) > 1e-15:
            raise ValueError("segments must cover (0, 1]")
        for a, b in zip(segs, segs[1:]):
            if abs(a.hi - b.lo) > 1e-12:
                raise ValueError("segments must be contiguous")
        self.segments = tuple(segs)
        self.name = name
        self._los = [s.lo for s in self.segments]
        self._certify_monotone()

    # -- certification and basic queries ------------------------------------

    def _certify_monotone(self):
        prev_val = math.inf
        for seg in self.segments:
            lo = max(seg.lo, 1e-9)
            for j in range(_CERTIFY_SAMPLES + 1):
                s = lo + (seg.hi - lo) * j / _CERTIFY_SAMPLES
                v = seg.value(s)
                # the terms round at ~1e-16 of their size, so where a steep
                # segment reaches 0 its value can come out slightly negative;
                # the scale of that rounding is summed only for a value below 0,
                # and a NaN value fails both tests
                if not v >= 0.0 and not v >= -1e-12 * max(1.0, plain_sum(abs(c) * s**k for c, k in seg.terms)):
                    raise MonotonicityError(f"negative twist angle {v} at r={s}")
                if v > prev_val + 1e-9 * max(1.0, abs(prev_val)):
                    raise MonotonicityError(f"profile increases near r={s}")
                prev_val = v
            d_lo = seg.derivative(max(seg.lo, 1e-9))
            d_hi = seg.derivative(seg.hi)
            if max(d_lo, d_hi) > 1e-9 * max(1.0, abs(seg.value(seg.hi))):
                raise MonotonicityError(f"positive slope on segment [{seg.lo}, {seg.hi}]")

    def _segment_at(self, r: float) -> Segment:
        i = bisect_right(self._los, r) - 1
        i = min(max(i, 0), len(self.segments) - 1)
        return self.segments[i]

    def __call__(self, r: float) -> float:
        if not (0.0 < r <= 1.0):
            raise ValueError("radius must lie in (0, 1]")
        return self._segment_at(r).value(r)

    def value_at_center(self) -> float:
        """sup f = f(0+); may be math.inf."""
        first = self.segments[0]
        if first.diverges_at_zero(0):
            return math.inf
        return plain_sum(c for c, k in first.terms if k == 0 and c != 0)

    @property
    def support_flag(self) -> bool:
        last = self.segments[-1]
        return last.is_constant() and last.value(last.hi) == 0.0 and last.lo < 1.0

    # -- integrals -----------------------------------------------------------

    def _moment(self, r: float, weight: int) -> float:
        """Integral of s**weight * f(s) over [r, 1]; from r <= 0 it is +inf when divergent."""
        if r <= 0.0:
            if self.segments[0].diverges_at_zero(weight):
                return math.inf
            r = 0.0
        total = 0.0
        for seg in self.segments:
            lo, hi = max(seg.lo, r), seg.hi
            if hi > lo:
                total += seg.integral_weighted(lo, hi, weight)
        return total

    def hamiltonian(self, r: float) -> float:
        """H(r) = integral of s f(s) ds over [r, 1]; the generating Hamiltonian."""
        return 0.0 if r >= 1.0 else self._moment(r, 1)

    def calabi_closed_form(self) -> float:
        """Cal = integral of s^2 f(s) ds over [0, 1]; +inf when divergent."""
        return self._moment(0.0, 2)

    # -- transforms -----------------------------------------------------------

    def scaled(self, factor: float) -> "TwistProfile":
        segs = [Segment(s.lo, s.hi, tuple((c * factor, k) for c, k in s.terms)) for s in self.segments]
        return TwistProfile(segs, name=f"{factor}*{self.name}")

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "type": "piecewise",
            "name": self.name,
            "segments": [
                {"lo": s.lo, "hi": s.hi, "terms": [[c, k] for c, k in s.terms]}
                for s in self.segments
            ],
        }

    @staticmethod
    def from_json(d: dict) -> "TwistProfile":
        """The profile of a JSON document; a malformed one raises StructuralError."""
        d = json_record(d, "profile document")
        if d.get("type") == "samples":
            r, f = ([json_field(x, key, float) for x in json_array(d, key)] for key in ("r", "f"))
            return profile_from_samples(r, f, name=d.get("name", "samples"))
        segs = []
        for s in json_array(d, "segments"):
            s = json_record(s, "segment record")
            terms = json_array(s, "terms")
            for t in terms:
                if not (isinstance(t, list) and len(t) == 2 and is_json_int(t[1])):
                    raise StructuralError(f"terms entry must be a [coefficient, integer exponent] pair, got {t!r}")
            segs.append(Segment(json_field(s["lo"], "lo", float), json_field(s["hi"], "hi", float),
                                tuple((json_field(c, "coefficient", float), k) for c, k in terms)))
        return TwistProfile(segs, name=d.get("name", "profile"))


# -- constructors -------------------------------------------------------------


def zero_profile() -> TwistProfile:
    return TwistProfile([Segment(0.0, 1.0, ((0.0, 0),))], name="zero")


def constant_profile(c: float, support_end: float = 1.0, name: Optional[str] = None) -> TwistProfile:
    """f = c on (0, support_end], dropping to 0 beyond (compactly supported if < 1)."""
    if support_end >= 1.0:
        segs = [Segment(0.0, 1.0, ((float(c), 0),))]
    else:
        segs = [Segment(0.0, support_end, ((float(c), 0),)), Segment(support_end, 1.0, ((0.0, 0),))]
    return TwistProfile(segs, name=name or f"const{c}")


def linear_profile(height: float, support_end: float = 1.0, name: Optional[str] = None) -> TwistProfile:
    """f decreasing linearly from ``height`` at r = 0 to 0 at ``support_end``."""
    slope = -height / support_end
    segs = [Segment(0.0, support_end, ((float(height), 0), (slope, 1)))]
    if support_end < 1.0:
        segs.append(Segment(support_end, 1.0, ((0.0, 0),)))
    return TwistProfile(segs, name=name or f"linear{height}")


def power_profile(exponent: int = -3, coefficient: float = 1.0, name: Optional[str] = None) -> TwistProfile:
    """f(s) = coefficient * s**exponent (exponent < 0 blows up at the center)."""
    return TwistProfile([Segment(0.0, 1.0, ((float(coefficient), exponent),))], name=name or f"s^{exponent}")


def profile_from_samples(r: Sequence[float], f: Sequence[float], name: str = "samples") -> TwistProfile:
    """Piecewise-linear profile through sample points (certified monotone)."""
    if len(r) != len(f) or len(r) < 2:
        raise ValueError("need matching r/f arrays with at least two samples")
    pts = sorted(zip((float(x) for x in r), (float(y) for y in f)))
    if abs(pts[0][0]) > 1e-12 or abs(pts[-1][0] - 1.0) > 1e-12:
        raise ValueError("samples must span [0, 1]")
    segs = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= x0:
            raise ValueError("duplicate sample radius")
        slope = (y1 - y0) / (x1 - x0)
        segs.append(Segment(x0, x1, ((y0 - slope * x0, 0), (slope, 1))))
    return TwistProfile(segs, name=name)


# -- derived objects -----------------------------------------------------------


def calabi(f: TwistProfile, self_check_tol: Optional[float] = 1e-9) -> float:
    """Calabi invariant of the twist: the double radial integral of s f(s).

    Computed in closed form as the single integral of s^2 f(s).  When that is
    finite and a tolerance is given, it is cross-checked against the other
    integration order, the integral of the Hamiltonian H over [0, 1], to that
    relative accuracy (plus 1e-12 absolute); a mismatch raises
    FubiniCheckError.  The integral of H is the tanh-sinh rule on each
    profile segment, where H is smooth up to a log singularity at r = 0, with
    all node terms added by math.fsum.
    """
    value = f.calabi_closed_form()
    if self_check_tol is not None and math.isfinite(value):
        other = _hamiltonian_integral(f)
        scale = max(abs(value), 1e-30)
        if abs(other - value) > self_check_tol * scale + 1e-12:
            raise FubiniCheckError(
                f"Fubini self-check failed: {value} (s^2 f) vs {other} (H quadrature)"
            )
    return value


def _hamiltonian_integral(f: TwistProfile) -> float:
    """Integral of H over [0, 1]: the tanh-sinh rule on each segment."""
    terms = []
    for seg in f.segments:
        width = seg.hi - seg.lo
        for gap, weight in _TANH_SINH:
            for r in (seg.lo + width * gap, seg.hi - width * gap):
                terms.append(width * weight * f.hamiltonian(r))
    return math.fsum(terms)


def hofer_norm_bound(f: TwistProfile) -> float:
    """Oscillation of the generating Hamiltonian: H(0) - H(1) = H(0); +inf when divergent."""
    return f.hamiltonian(0.0)


@dataclass(frozen=True)
class PeriodicCircle:
    """A circle of q-periodic points winding p times, with its Morse-Bott pair."""

    p: int
    q: int
    radius: float
    action: float
    labels: Tuple[str, ...] = ("e", "h")


def disk_area_level(r: float) -> float:
    """E(r) = (1 - r^2)/2: the normalized area between radius r and the boundary."""
    return 0.5 * (1.0 - r * r)


def level_action(f: TwistProfile, p: int, q: int, radius: float) -> float:
    """Action of the level-(p/q) circle: q H(r) + p * (area term).

    The area term is CALIBRATION["p_area_scale"] * E(r); the calibrated
    scale (2*pi, i.e. the honest symplectic area p * pi * (1 - r^2)) is
    recorded in the run manifest.  Both Morse-Bott partners receive the
    same action.
    """
    return q * f.hamiltonian(radius) + p * CALIBRATION["p_area_scale"] * disk_area_level(radius)


def _solve_level(f: TwistProfile, target: float) -> Optional[float]:
    """Radius with f(r) = target (f non-increasing), or None when unattained.

    Raises PlateauError when the level is met by a constant segment.
    """
    for seg in f.segments:
        lo = max(seg.lo, 1e-15)
        v_lo, v_hi = seg.value(lo), seg.value(seg.hi)
        if seg.is_constant():
            if abs(v_hi - target) <= _LEVEL_TOL * max(1.0, abs(target)):
                raise PlateauError(
                    f"profile is constant at level {target} on [{seg.lo}, {seg.hi}]"
                )
            continue
        if v_hi - _LEVEL_TOL <= target <= v_lo + _LEVEL_TOL:
            a, b = lo, seg.hi
            for _ in range(200):
                mid = 0.5 * (a + b)
                if seg.value(mid) >= target:
                    a = mid
                else:
                    b = mid
                if b - a <= _LEVEL_TOL:
                    break
            return 0.5 * (a + b)
    return None


def periodic_census(f: TwistProfile, d: int) -> List[PeriodicCircle]:
    """All level circles f(r) = 2 pi p/q with q <= d, solved by bisection.

    Requires d >= 1 and a finite rotation at the center (truncate divergent
    profiles first).  Plateaus at a requested rational level raise
    PlateauError with the offending interval.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    top = f.value_at_center()
    if math.isinf(top):
        raise ValueError("unbounded twist at the center; truncate the profile first")
    out: List[PeriodicCircle] = []
    # the center value is attained only when the profile plateaus there;
    # otherwise it is an unattained supremum and sits outside the range
    top_attained = f.segments[0].is_constant()
    slack = _LEVEL_TOL * max(1.0, top)
    cutoff = top + slack if top_attained else top - slack
    for q in range(1, d + 1):
        p = 1
        while TWO_PI * p / q < cutoff:
            if math.gcd(p, q) == 1:
                r = _solve_level(f, TWO_PI * p / q)
                if r is not None:
                    out.append(PeriodicCircle(p, q, r, level_action(f, p, q, r)))
            p += 1
    # distinct reduced p/q with q <= d differ by at least 1/d^2, more than the float spacing
    # at any slope below 2^52 / d^2, and rounding is monotone: the float order is the exact one
    out.sort(key=lambda c: c.p / c.q, reverse=True)
    return out


def truncate_profile(f: TwistProfile, i: int) -> TwistProfile:
    """Plateau the profile at its value at r = 1/i on (0, 1/i]."""
    if i < 1:
        raise ValueError("truncation index must be >= 1")
    cut = 1.0 / i
    segs: List[Segment] = [Segment(0.0, cut, ((f(cut), 0),))]
    for seg in f.segments:
        lo, hi = max(seg.lo, cut), seg.hi
        if hi > lo + 1e-15:
            segs.append(Segment(lo, hi, seg.terms))
    return TwistProfile(segs, name=f"{f.name}|trunc{i}")
