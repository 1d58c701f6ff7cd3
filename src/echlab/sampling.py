"""Seeded generators for orbit pools, towers, and the low-action score scan.

Everything here is driven by a caller-supplied random.Random so that sweeps
are reproducible bit-for-bit; orbit actions are exact Fractions so the
telescoping audits check with zero tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
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
from .rotations import Partition, Rotation, cz_index, partition_negative, partition_positive


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


def random_orbit_set(rng: random.Random, pool: Sequence[SimpleOrbit]) -> OrbitSet:
    """A random admissible generator: hyperbolic entries stay at multiplicity 1."""
    chosen = rng.sample(range(len(pool)), rng.randint(1, SET_MAX_ORBITS))
    entries = []
    for i in chosen:
        orbit = pool[i]
        mult = 1 if orbit.is_hyperbolic else rng.randint(1, SET_MAX_MULT)
        entries.append((orbit, mult))
    return OrbitSet(entries)


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


def _random_ends(
    rng: random.Random, endpoint: OrbitSet
) -> Tuple[CurveEnds, ...]:
    """Random consistent ends data: at each orbit, split off a trivial-cylinder part."""
    out = []
    for orbit, mult in endpoint.items():
        c1 = rng.randint(0, mult)
        if c1 == 0:
            continue  # orbit fully covered by trivial cylinders
        options = _splits(c1)
        parts = options[rng.randrange(len(options))]
        out.append(CurveEnds(orbit.label, parts, c0_present=c1 < mult))
    return tuple(out)


def random_tower(rng: random.Random, n: int) -> Tower:
    """A structurally valid tower of n curves with exact Fraction actions."""
    pool = orbit_pool(rng)
    sets = [random_orbit_set(rng, pool) for _ in range(n + 1)]
    # sort on the exact integers action * L, with L the LCM of the pool's denominators
    common = math.lcm(*(o.action.denominator for o in pool))
    sets.sort(key=lambda s: s.action.numerator * (common // s.action.denominator), reverse=True)
    curves = []
    for top, bottom in zip(sets, sets[1:]):
        curves.append(
            CurveData(
                genus=rng.randint(0, 2),
                positive_ends=_random_ends(rng, top),
                negative_ends=_random_ends(rng, bottom),
                alpha=top,
                beta=bottom,
                c_tau=rng.randint(-2, 2),
            )
        )
    return Tower(curves)


# -- the low-action non-cylinder family ----------------------------------------


def _multiset_difference(larger: Partition, smaller: Partition) -> Optional[Tuple[int, ...]]:
    """larger minus smaller as multisets, or None when smaller is no sub-multiset."""
    counts = larger.as_multiset()
    for part in smaller:
        if counts.get(part, 0) == 0:
            return None
        counts[part] -= 1
    out: List[int] = []
    for part, c in counts.items():
        out.extend([part] * c)
    return tuple(sorted(out, reverse=True))


def _end_options(theta: Rotation, mult: int, positive: bool) -> List[Tuple[Tuple[int, ...], int]]:
    """Admissible (C1 end multiplicities, C0 multiplicity) splits at one orbit.

    The whole-curve partition condition fixes the end pattern of the total
    multiplicity; a trivial-cylinder part of multiplicity m0 is admissible
    exactly when its own pattern embeds into the total one, and the embedded
    component C1 carries the complementary ends.
    """
    build = partition_positive if positive else partition_negative
    total = build(theta, mult)
    options: List[Tuple[Tuple[int, ...], int]] = [(tuple(total.parts), 0)]
    for m0 in range(1, mult):
        inner = build(theta, m0)
        rest = _multiset_difference(total, inner)
        if rest is not None and rest:
            options.append((rest, m0))
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
    if theta.exact and m >= theta.value.denominator:
        return False
    fr = theta.fractional_part()
    return m * fr >= 2 and m * (1 - fr) >= 2


def score_falsification_scan(
    thetas: Optional[Sequence[Rotation]] = None,
    max_mult: int = 12,
    max_orbits_per_side: int = 2,
    genus_range: Sequence[int] = (0, 1, 2),
    require_u_indices: bool = True,
) -> dict:
    """Search the bounded admissible family for negative total scores.

    Returns the census of scanned curves and any violating instances (the
    expected outcome is none; universality is not claimed).
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
    theta_list = list(thetas)
    covers = {}  # (theta index, m) -> Cover of the m-fold cover

    def side_summaries(positive: bool):
        per_theta = []
        for idx, theta in enumerate(theta_list):
            opts = []
            for m in range(2, max_mult + 1):
                if not threshold_multiplicity(theta, m):
                    continue
                covers[idx, m] = cover_indices(theta, m)
                for ends, m0 in _end_options(theta, m, positive):
                    opts.append((idx, m, ends, m0))
            per_theta.append(opts)
        configs = [[o] for opts in per_theta for o in opts]
        if max_orbits_per_side >= 2:
            for i1, i2 in combinations_with_replacement(range(len(theta_list)), 2):
                if i1 == i2:
                    continue
                for o1 in per_theta[i1]:
                    for o2 in per_theta[i2]:
                        configs.append([o1, o2])
        out = []
        for cfg in configs:
            s = e = ends = cz = cz_ends = 0
            for idx, m, end_mults, m0 in cfg:
                cover = covers[idx, m]
                s += cover.score
                e += 2 * len(end_mults) - (0 if m0 > 0 else 1)
                ends += len(end_mults)
                cz += cover.cz
                cz_ends += sum(cz_index(theta_list[idx], k) for k in end_mults)
            out.append((s, e, ends, cz, cz_ends, cfg))
        return out

    pos_side = side_summaries(True)
    neg_side = side_summaries(False)
    scanned = 0
    violations = []
    min_score = math.inf
    for sa, ea, na, cza, czea, pcfg in pos_side:
        for sb, eb, nb, czb, czeb, ncfg in neg_side:
            for genus in genus_range:
                if genus == 0 and na == 1 and nb == 1:
                    continue
                j0 = -2 + 2 * genus + ea + eb
                if require_u_indices:
                    if j0 + cza - czb != 2:
                        continue
                    if -(2 - 2 * genus - (na + nb)) + czea - czeb != 2:
                        continue
                scanned += 1
                t = sa - sb + 3 * (j0 - 2)
                min_score = min(min_score, t)
                if t < 0:
                    violations.append({"genus": genus, "positive": pcfg, "negative": ncfg, "T": t})
    return {
        "scanned": scanned,
        "violations": len(violations),
        "violating_curves": violations[:10],
        "min_total_score": min_score if scanned else None,
    }
