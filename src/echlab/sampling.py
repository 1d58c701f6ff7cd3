"""Seeded generators for orbit pools, towers, and the low-action score scan.

Everything here is driven by a caller-supplied random.Random so that sweeps
are reproducible bit-for-bit; orbit actions are exact Fractions so the
telescoping audits check with zero tolerance.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .orbits import (
    ELLIPTIC,
    NEGATIVE_HYPERBOLIC,
    POSITIVE_HYPERBOLIC,
    CurveData,
    CurveEnds,
    OrbitSet,
    SimpleOrbit,
    Tower,
    cover_indices,
)
from .rotations import Rotation, cz_index, partition_negative, partition_positive


_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12, 24)  # keep telescoping sums in machine ints
POOL_SIZE = 12  # orbits per pool
POOL_MAX_DEN = 12  # largest rotation denominator of an elliptic pool orbit
SET_MAX_ORBITS = 4  # distinct orbits per random orbit set
SET_MAX_MULT = 5  # largest multiplicity of an elliptic entry


def orbit_pool(rng: random.Random) -> List[SimpleOrbit]:
    """A pool of POOL_SIZE distinct orbits with exact rational actions and rotations."""
    pool: List[SimpleOrbit] = []
    for i in range(POOL_SIZE):
        choice = rng.random()
        if choice < 0.70:
            den = rng.randint(2, POOL_MAX_DEN)
            num = rng.randint(1, 3 * den)
            if num % den == 0:
                num += 1
            kind = ELLIPTIC
            theta = Rotation.rational(num, den)
            if theta.is_half_integral():
                kind = NEGATIVE_HYPERBOLIC
        elif choice < 0.85:
            theta = Rotation.rational(rng.randint(0, 3))
            kind = POSITIVE_HYPERBOLIC
        else:
            theta = Rotation.rational(2 * rng.randint(0, 2) + 1, 2)
            kind = NEGATIVE_HYPERBOLIC
        action = Fraction(rng.randint(1, 4000), _DENOMINATORS[rng.randrange(len(_DENOMINATORS))])
        pool.append(SimpleOrbit(f"orb{i}", action, theta, kind, period=rng.randint(1, 4)))
    return pool


Entries = Tuple[Tuple[SimpleOrbit, int], ...]


def pool_entries(pool: Sequence[SimpleOrbit]) -> List[Entries]:
    """Per pool orbit, its admissible (orbit, mult) entries in order of mult:
    mult 1 alone for a hyperbolic orbit, 1 to SET_MAX_MULT for an elliptic one."""
    return [((o, 1),) if o.is_hyperbolic else tuple((o, m) for m in range(1, SET_MAX_MULT + 1))
            for o in pool]


def _draw_entries(rng: random.Random, entries: Sequence[Entries]) -> List[Tuple[SimpleOrbit, int]]:
    """The ``pool_entries`` pairs of one random admissible generator, in draw order."""
    chosen = rng.sample(range(len(entries)), 1 + rng.randrange(SET_MAX_ORBITS))
    return [by_mult[0] if by_mult[0][0].is_hyperbolic else by_mult[rng.randrange(SET_MAX_MULT)]
            for by_mult in (entries[i] for i in chosen)]


def random_orbit_set(rng: random.Random, entries: Sequence[Entries]) -> OrbitSet:
    """A random admissible generator over a pool's ``pool_entries``: hyperbolic
    entries stay at multiplicity 1.  The sets share the entry pairs."""
    return OrbitSet(_draw_entries(rng, entries))


@lru_cache(maxsize=64)
def _splits(n: int) -> tuple:
    """All partitions of n: the possible unordered end-multiplicity patterns."""
    if n == 0:
        return ((),)
    out = set()
    for first in range(1, n + 1):
        for rest in _splits(n - first):
            out.add(tuple(sorted((first,) + rest, reverse=True)))
    return tuple(sorted(out))


# one record per (pool label, partition of 1..SET_MAX_MULT, c0 flag): 12 * 18 * 2
@lru_cache(maxsize=POOL_SIZE * 18 * 2)
def _shared_ends(label: str, parts: Tuple[int, ...], c0_present: bool) -> Tuple[CurveEnds]:
    """The one-record side of this record, checked once and shared by every curve that has it."""
    return (CurveEnds(label, parts, c0_present),)


def _random_ends(
    rng: random.Random, endpoint: OrbitSet
) -> Tuple[CurveEnds, ...]:
    """Random consistent ends data: at each orbit, split off a trivial-cylinder part."""
    side = ()  # () + t is t, so a one-record side is the shared tuple itself
    for orbit, mult in endpoint.items():
        c1 = rng.randrange(mult + 1)
        if c1:  # else the orbit is fully covered by trivial cylinders
            options = _splits(c1)
            side += _shared_ends(orbit.label, options[rng.randrange(len(options))], c1 < mult)
    return side


def random_tower(rng: random.Random, n: int) -> Tower:
    """A structurally valid tower of n curves with exact Fraction actions.

    Its draws are single-argument ``randrange`` calls, one call layer short
    of ``randint``: randint(a, b) draws a + randrange(b - a + 1), so the
    stream is the one ``randint`` gave.  A set drawn twice is built once and
    shared; ``n`` must be an integer >= 1, checked before the first draw.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    pool = orbit_pool(rng)
    entries = pool_entries(pool)
    built = {}  # one OrbitSet per distinct draw, keyed on the ids of its shared pool pairs
    sets = []
    for _ in range(n + 1):
        picked = _draw_entries(rng, entries)
        key = frozenset(map(id, picked))
        if key not in built:
            built[key] = OrbitSet(picked)
        sets.append(built[key])
    # sort on the exact integers action * L, with L the LCM of the pool's denominators
    common = math.lcm(*(o.action.denominator for o in pool))
    sets.sort(key=lambda s: s.action.numerator * (common // s.action.denominator), reverse=True)
    curves = []
    for top, bottom in zip(sets, sets[1:]):
        curves.append(
            CurveData(
                genus=rng.randrange(3),
                positive_ends=_random_ends(rng, top),
                negative_ends=_random_ends(rng, bottom),
                alpha=top,
                beta=bottom,
                c_tau=rng.randrange(5) - 2,
            )
        )
    return Tower(curves)


# -- the low-action non-cylinder family ----------------------------------------


def _end_options(theta: Rotation, mult: int, positive: bool) -> List[Tuple[Tuple[int, ...], int]]:
    """Admissible (C1 end multiplicities, C0 multiplicity) splits at one orbit.

    The whole-curve partition condition fixes the end pattern of the total
    multiplicity; a trivial-cylinder part of multiplicity m0 is admissible
    exactly when its own pattern embeds into the total one, and the embedded
    component C1 carries the complementary ends.
    """
    build = partition_positive if positive else partition_negative
    total = build(theta, mult)
    counts = Counter(total)
    options: List[Tuple[Tuple[int, ...], int]] = [(total, 0)]
    for m0 in range(1, mult):
        inner = Counter(build(theta, m0))
        if inner <= counts:  # the rest keeps the total's descending order
            options.append((tuple((counts - inner).elements()), m0))
    return options


def threshold_multiplicity(theta: Rotation, m: int) -> bool:
    """The high-multiplicity regime forced at the ends of low-action curves.

    Covers must be nondegenerate (m * theta never integral up to m), and the
    fractional distances m{theta}, m(1-{theta}) both reach 2, which by the
    partition-reversal bound guarantees at least four ends in play at the
    orbit.  Hyperbolic rotation numbers never qualify.
    """
    if theta.is_integral() or theta.is_half_integral():
        return False
    p, q = theta.ratio()
    if theta.exact and m >= q:
        return False
    a = p % q  # {theta} = a/q
    return m * a >= 2 * q and m * (q - a) >= 2 * q


def _side_configs(theta_list: Sequence[Rotation], max_mult: int, max_orbits: int, positive: bool):
    """Every side configuration, in scan order, with its summed side terms.

    Yields (x, y, t, number of ends, options): for k = 1 to ``max_orbits``,
    each k distinct rotation indices in ``combinations`` order, and at those
    rotations each product of their end options.  An option adds
    (e + cz, n + cze, s + 3e) on the positive side and (e - cz, n - cze, 3e - s)
    on the negative, in the notation of ``score_falsification_scan``.
    """
    sign = 1 if positive else -1
    per_theta = []
    for idx, theta in enumerate(theta_list):
        opts = []
        for m in range(2, max_mult + 1):
            if not threshold_multiplicity(theta, m):
                continue
            cover = cover_indices(theta, m)
            for ends, m0 in _end_options(theta, m, positive):
                n = len(ends)
                e = 2 * n - (0 if m0 > 0 else 1)
                cz_ends = sum(cz_index(theta, k) for k in ends)
                opts.append((e + sign * cover.cz, n + sign * cz_ends, 3 * e + sign * cover.score, n,
                             (idx, m, ends, m0)))
        per_theta.append(opts)
    for k in range(1, min(max_orbits, len(theta_list)) + 1):
        for indices in combinations(range(len(theta_list)), k):
            side = [(0, 0, 0, 0, [])]
            for i in indices:  # the product of the options, the last rotation's varying fastest
                side = [(x + dx, y + dy, t + dt, n + dn, cfg + [opt])
                        for x, y, t, n, cfg in side for dx, dy, dt, dn, opt in per_theta[i]]
            yield from side


def score_falsification_scan(
    thetas: Optional[Sequence[Rotation]] = None,
    max_mult: int = 12,
    max_orbits_per_side: int = 2,
    genus_range: Sequence[int] = (0, 1, 2),
    require_u_indices: bool = True,
) -> dict:
    """Search the bounded admissible family for negative total scores.

    Returns the census of scanned curves and any violating instances (the
    expected outcome is none; universality is not claimed).  A side holds at
    most ``max_orbits_per_side`` orbits at distinct rotations, an integer >= 1.

    The scan is a join over side groups, not a loop over every (positive,
    negative, genus) triple: both index constraints and the total score split
    into a positive-side plus a negative-side term.  For a side configuration
    write s for its covers' score sum, cz for their CZ sum, n for its number
    of ends, cze for the CZ sum over its ends and e for the sum of
    2 * ends - [no C0 part] over its orbits; a suffix a / b marks the
    positive / negative side.  With U indices required, a positive
    configuration's group key is (ea + cza, na + czea, na == 1) and a negative
    one's is (eb - czb, nb - czeb, nb == 1); a pair is admissible at genus g
    when both first and both second components sum to 4 - 2g.  Without them
    the key is the n == 1 flag alone.  In both modes the genus-0 pair of
    single-end sides (a cylinder) is excluded.  The partial scores are
    tp = sa + 3ea and tn = 3eb - sb, and T = tp + tn + 6g - 12, so each group
    keeps its size and least partial score.  Violating instances are listed
    only when the least T is negative, from the group pairs whose least T is;
    they come in scan order (positive configuration, negative configuration,
    genus).
    """
    if thetas is None:
        thetas = [
            Rotation.rational(1, 5),
            Rotation.rational(7, 10),
            Rotation.rational(2, 3),
            Rotation.rational(3, 8),
            Rotation.rational(4, 11),
            Rotation.rational(9, 13),
        ]
    if not isinstance(max_orbits_per_side, int) or max_orbits_per_side < 1:
        raise ValueError(f"max_orbits_per_side must be an integer >= 1, got {max_orbits_per_side!r}")
    theta_list = list(thetas)

    def key(x, y, n):
        return (x, y, n == 1) if require_u_indices else (n == 1,)

    def partners(kp, genus):
        """The negative-side keys that join kp at this genus."""
        flags = (False,) if genus == 0 and kp[-1] else (False, True)
        if not require_u_indices:
            return [(flag,) for flag in flags]
        target = 4 - 2 * genus
        return [(target - kp[0], target - kp[1], flag) for flag in flags]

    def side_groups(positive: bool) -> dict:
        groups = {}  # key -> [configurations, least partial score]
        for x, y, t, n, _ in _side_configs(theta_list, max_mult, max_orbits_per_side, positive):
            group = groups.setdefault(key(x, y, n), [0, t])
            group[0] += 1
            group[1] = min(group[1], t)
        return groups

    pos_groups = side_groups(True)
    neg_groups = side_groups(False)
    scanned = 0
    min_score = math.inf
    for kp, (cp, tp) in pos_groups.items():
        for genus in genus_range:
            for kn in partners(kp, genus):
                if kn in neg_groups:
                    cn, tn = neg_groups[kn]
                    scanned += cp * cn
                    min_score = min(min_score, tp + tn + 6 * genus - 12)

    violations = 0
    listed: List[dict] = []
    if min_score < 0:
        neg_members = {}  # key -> [(scan position, partial score, configuration)]
        for i, (x, y, t, n, cfg) in enumerate(_side_configs(theta_list, max_mult, max_orbits_per_side, False)):
            neg_members.setdefault(key(x, y, n), []).append((i, t, cfg))
        for x, y, tp, n, pcfg in _side_configs(theta_list, max_mult, max_orbits_per_side, True):
            kp = key(x, y, n)
            hits = []
            for gi, genus in enumerate(genus_range):
                offset = tp + 6 * genus - 12
                for kn in partners(kp, genus):
                    if kn not in neg_members or offset + neg_groups[kn][1] >= 0:
                        continue
                    hits.extend((i, gi, genus, ncfg, offset + tn)
                                for i, tn, ncfg in neg_members[kn] if offset + tn < 0)
            violations += len(hits)
            if len(listed) < 10:
                hits.sort(key=lambda h: h[:2])
                listed.extend({"genus": genus, "positive": pcfg, "negative": ncfg, "T": t}
                              for _, _, genus, ncfg, t in hits[:10 - len(listed)])
    return {
        "scanned": scanned,
        "violations": violations,
        "violating_curves": listed,
        "min_total_score": min_score if scanned else None,
    }
