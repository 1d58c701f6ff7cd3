"""Lattice-path chain complex for monotone twists and its spectral invariants.

Generators of degree d are concave lattice paths whose edges lie on the
rational rotation levels of the profile, padded by the action-zero
boundary-reference orbit, with at most one hyperbolic label per level.  The
differential rounds one corner per term, enumerating the relabelings of the
affected edges with total hyperbolic count one less.  The filtration uses
the anchored action m * (2 pi p E(r) - q H(r)) per edge, which equals
m q * integral_0^slope 2 pi E(r(tau)) d tau and therefore strictly decreases
under rounding whenever the twist angle is non-increasing.

The hot paths are exact integer code.  A level is named by its position in
the slope-descending census; an edge is a shared int tuple (level_id, mult,
h), and a generator is the flat tuple of its edges, the reference edge last.
The enumeration makes one call per generator and yields its grading, action
and path key, the sum of (2 mult + h) << (w level_id) over its edges.  Each
corner shape (edge, next edge) has fixed key deltas, so a boundary term is
one integer addition and one index lookup.  Homology comes from a
filtration-order reduction over GF(2) with clearing, on set columns, one
grading at a time.

The spectral invariant c_d is the calibrated radial staircase value
sum_{k=1..d} H(k/(d+1)); the run manifest records the calibration constants.
Nothing computes c_d from the complex or identifies it with the
distinguished homology class: the complex is only validated, and its
chain-level structure (d^2 = 0, action filtration, grading drop, rank
pattern) is what the validation suite pins down.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .twist import (CALIBRATION, TwistProfile, calabi, disk_area_level, hofer_norm_bound, periodic_census,
                    plain_sum, truncate_profile, zero_profile)

VALIDATE_MAX_DEGREE = 8  # spectral_invariant_cd validates the complex by default up to here
GENERATOR_CAP = 200_000  # default bound on the generators one complex may enumerate


class CalibrationError(RuntimeError):
    """The rank pattern of the complex fails the model convention."""


class ComplexSizeError(RuntimeError):
    """Generator enumeration would exceed the configured cap."""


Edge = Tuple[int, int, int]  # (level_id, mult, h)


def _hull_path(points: list, upper: bool) -> list:
    """Monotone-chain upper (concave) or lower (convex) boundary through sorted points."""
    hull: list = []
    for p in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            c = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            if (c < 0) if upper else (c > 0):
                break
            hull.pop()
        hull.append(p)
    return hull


@lru_cache(maxsize=65536)
def _round_corner(pa: int, qa: int, pb: int, qb: int) -> Tuple[Tuple[int, int, int], ...]:
    """Edges (p, q, mult) of the maximal concave lattice path strictly below the corner
    between the primitive steps (qa, pa) and (qb, pb), or the degree wall (0, 0)."""
    # column maxima under the two old steps from (0, 0) through the corner (qa, pa), the corner excluded
    pts = [(x, (pa * x) // qa) for x in range(qa)] + [(qa, pa - 1)]
    pts += [(qa + x, pa + (pb * x) // qb) for x in range(1, qb + 1)]
    hull = _hull_path(pts, upper=True)
    steps = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    return tuple((dy // g, dx // g, g) for dx, dy in steps for g in (math.gcd(dx, dy),))


class TwistComplex:
    """The filtered chain complex of one (profile, degree) instance.

    Level ids index ``levels`` (slope descending); the slope-0 reference edge
    has id ``len(levels)``.  A generator is a tuple of shared edges by id, the
    reference edge last when its width is positive.  The enumeration fills
    ``gradings`` and ``actions``; the boundary and reduction are made on first use.
    """

    def __init__(self, profile: TwistProfile, degree: int, generator_cap: int = GENERATOR_CAP):
        if not isinstance(degree, int) or not isinstance(generator_cap, int):
            raise ValueError(f"degree and generator cap must be integers, got {degree!r} and {generator_cap!r}")
        if generator_cap < 1:
            raise ValueError(f"generator cap must be >= 1, got {generator_cap}")
        self.profile = profile
        self.degree = degree
        self.levels = periodic_census(profile, degree)  # sorted slope descending
        self.ref_id = len(self.levels)
        self._p = [c.p for c in self.levels] + [0]
        self._q = [c.q for c in self.levels] + [1]
        self._id_of = {(p, q): i for i, (p, q) in enumerate(zip(self._p, self._q))}
        H, scale = profile.hamiltonian, CALIBRATION["p_area_scale"]
        self._coef = [scale * c.p * disk_area_level(c.radius) - c.q * H(c.radius) for c in self.levels]
        self._w = (2 * degree + 3).bit_length()  # key bits per level: 2 mult + h <= 2 d + 1
        self.generators, self.gradings, self.actions, self._keys = self._enumerate(generator_cap)
        self._boundaries: Optional[List[Tuple[int, ...]]] = None
        self._essential: Optional[List[int]] = None

    # -- enumeration -----------------------------------------------------------

    def _enumerate(self, cap: int) -> Tuple[List[Tuple[Edge, ...]], List[int], List[float], List[int]]:
        """Every generator, depth first, with its grading, action and path key.

        Each call emits one generator, its edges so far and a reference edge of
        the width left, then extends it by each edge on a later level that fits,
        levels in descending id order.  The grading is 2 (L - (d+1)) - h + d, L the
        lattice points in 0 <= y <= path(x), 0 <= x <= degree.  The action sums
        the anchored m * (2 pi p E(r) - q H(r)) over the level edges in order.
        """
        gens: List[Tuple[Edge, ...]] = []
        gradings: List[int] = []
        actions: List[float] = []
        keys: List[int] = []
        p, q, coef, d, w = self._p, self._q, self._coef, self.degree, self._w
        ref_shift = w * self.ref_id + 1  # the reference edge's 2 ref, in its own slot
        # level ids whose primitive step fits in each width, descending
        fits = [[j for j in range(self.ref_id - 1, -1, -1) if q[j] <= b] for b in range(d + 1)]
        # one shared edge, in a 1-tuple, per level, multiplicity and label, and per reference width
        edge = [[None] + [(((j, m, 0),), ((j, m, 1),)) for m in range(1, d // q[j] + 1)] for j in range(self.ref_id)]
        ref_edge = [()] + [((self.ref_id, b, 0),) for b in range(1, d + 1)]

        def visit(i: int, budget: int, edges: tuple, key: int, count: int, y: int, hs: int, action: float):
            if len(gens) == cap:
                raise ComplexSizeError(f"generator cap {cap} exceeded (at least {cap + 1} generators); "
                                       "lower the degree or cap the census")
            gens.append(edges + ref_edge[budget])
            keys.append(key + (budget << ref_shift))
            # the reference filler: budget + 1 columns of y + 1 points
            gradings.append(2 * (count + (budget + 1) * (y + 1) - (d + 1)) - hs + d)
            actions.append(action)
            for j in fits[budget]:
                if j < i:
                    break
                pj, qj, shift = p[j], q[j], w * j
                for m in range(1, budget // qj + 1):
                    # columns x = 0..mq-1 under m primitive steps (q, p) from height y:
                    # sum of y + 1 + floor(p x / q), with sum_{r<q} floor(p r / q) =
                    # (p-1)(q-1)/2 for coprime p, q
                    points = count + m * qj * (y + 1) + pj * qj * m * (m - 1) // 2 + m * (pj - 1) * (qj - 1) // 2
                    edge_action = action + m * coef[j]
                    for h in (0, 1):
                        visit(j + 1, budget - m * qj, edges + edge[j][m][h], key + ((2 * m + h) << shift),
                              points, y + m * pj, hs + h, edge_action)

        visit(0, d, (), 0, 0, 0, 0, 0.0)
        return gens, gradings, actions, keys

    # -- differential ---------------------------------------------------------------

    def _corner_hull(self, a: int, b: Optional[int]) -> Optional[Tuple[Edge, ...]]:
        """Edges rounding the corner between one primitive step of level ``a`` and one of
        level ``b`` (``None``: the degree wall), labels stripped; None when the rounding
        descends or leaves the census.  A rounded level not strictly between ``a`` and
        ``b`` would alias a neighbour's key slot: it raises CalibrationError.
        """
        pb, qb = (0, 0) if b is None else (self._p[b], self._q[b])
        zone = []
        for p, q, g in _round_corner(self._p[a], self._q[a], pb, qb):
            level = self._id_of.get((p, q))
            if level is None:
                return None
            if not (a < level and (b is None or level < b)):
                raise CalibrationError(f"the corner between levels {a} and {b} rounds onto level {level}")
            zone.append((level, g, 0))
        return tuple(zone)

    def boundaries(self) -> List[Tuple[int, ...]]:
        """The tuple of generator indices in d(generator i), for every i, over the two-element field.

        One term per corner and per relabeling of the rounded zone with total
        h-count one less: a surviving h may sit on any zone edge but a flat
        one.  A zone's levels lie strictly between the corner's, so the path
        is a generator and its key is the generator's plus the corner shape's
        delta.  A corner that rounds off the census raises CalibrationError.

        The terms are pairwise distinct, so they are listed with no parity
        fold.  For corners k < k', a term of corner k lowers the multiplicity
        on level a_k by one (or drops the edge); a term of corner k' touches
        only levels from a_k' on.  Within one corner, the labelings put the
        surviving h on different levels.
        """
        if self._boundaries is not None:
            return self._boundaries
        index = {key: i for i, key in enumerate(self._keys)}
        w, ref_id, p, q = self._w, self.ref_id, self._p, self._q
        hulls: Dict[Tuple[int, Optional[int]], Tuple[int, List[int]]] = {}
        shapes: Dict[Tuple[Edge, Optional[Edge]], Tuple[int, ...]] = {}

        def shape_deltas(ea: Edge, eb: Optional[Edge]) -> Tuple[int, ...]:
            # key deltas of the corner's terms, one per relabeling of its rounded zone
            (a, ma, ha), (b, mb, hb) = ea, eb or (None, 0, 0)
            hull = hulls.get((a, b))
            if hull is None:
                zone = self._corner_hull(a, b)
                if zone is None:
                    outgoing = "the degree wall" if b is None else f"level {p[b]}/{q[b]}"
                    raise CalibrationError(f"the corner between level {p[a]}/{q[a]} and {outgoing} "
                                           "rounds off the census")
                hull = hulls[a, b] = (sum((2 * g) << (w * i) for i, g, _ in zone),
                                      [i for i, _, _ in zone if i != ref_id])
            # each corner edge loses one step and its h; what is left of it keeps its slot
            base = hull[0] - ((2 + ha) << (w * a)) - (0 if b is None else (2 + hb) << (w * b))
            if ha + hb == 1:  # one h left: the zone as built
                return (base,)
            # two h: the survivor on one zone edge, never the flat one
            levels = [a] * (ma > 1) + hull[1] + [b] * (mb > 1)
            return tuple(base + (1 << (w * i)) for i in levels)

        bnds: List[Tuple[int, ...]] = []
        for key, edges in zip(self._keys, self.generators):
            row: List[int] = []
            ea = edges[0]
            for eb in edges[1:] + (None,):
                if ea[2] or (eb is not None and eb[2]):
                    deltas = shapes.get((ea, eb))
                    if deltas is None:
                        deltas = shapes[ea, eb] = shape_deltas(ea, eb)
                    for delta in deltas:
                        row.append(index[key + delta])
                ea = eb
            bnds.append(tuple(row))
        self._boundaries = bnds
        self._keys = []  # the keys serve only the boundary pass
        return bnds

    # -- homology -----------------------------------------------------------------

    def _reduce(self) -> List[int]:
        """The essential columns of one filtration-order reduction over GF(2), with clearing.

        The differential lowers grading by exactly one, so the reduction runs
        one grading at a time, from the top down.  A grading's columns and
        rows sit in filtration order (action, then generator order); a column
        is the set of its rows' ranks within the grading below, its pivot the
        largest (PHAT's sparse columns).  A column that is already the pivot
        row of a column one grading up is skipped: it reduces to zero
        (Chen-Kerber, "Persistent homology computation with a twist").  A
        column that reduces to zero stays unpaired: it is essential.  They
        come grading by grading from the top, each in filtration order.
        """
        if self._essential is None:
            bnds, gradings = self.boundaries(), self.gradings
            by_grading: Dict[int, List[int]] = {}
            # a stable sort: each grading's generators by action, ties in generator order
            for gi in sorted(range(len(gradings)), key=self.actions.__getitem__):
                by_grading.setdefault(gradings[gi], []).append(gi)
            essential: List[int] = []
            cleared: Dict[int, set] = {}  # the pivots of the grading above, by rank in this one
            for g in sorted(by_grading, reverse=True):
                rank = {gi: k for k, gi in enumerate(by_grading.get(g - 1, ()))}
                pivots: Dict[int, set] = {}  # low row -> reduced column
                for k, gi in enumerate(by_grading[g]):
                    if k in cleared:
                        continue
                    col = {rank[t] for t in bnds[gi]}
                    while col:
                        low = max(col)
                        pivot = pivots.get(low)
                        if pivot is None:
                            pivots[low] = col
                            break
                        col ^= pivot
                    else:
                        essential.append(gi)
                cleared = pivots
            self._essential = essential
        return self._essential

    def homology_ranks(self) -> Dict[int, int]:
        """Rank of homology per grading, over the two-element field: its essential columns."""
        return dict(Counter(self.gradings[gi] for gi in self._reduce()))

    def validate(self, action_floor: float = 0.0) -> dict:
        """Structural checks: distinct terms, grading drop, action decrease, d^2 = 0, rank pattern.

        ``action_floor`` is the configured positivity floor every nonzero
        differential entry must clear.  All but the rank pattern are checked
        per generator, in one pass over the boundary lists.
        """
        bnds, gradings, actions = self.boundaries(), self.gradings, self.actions
        min_drop = math.inf
        for i, targets in enumerate(bnds):
            if len(set(targets)) < len(targets):
                raise CalibrationError(f"repeated boundary term at generator {self.generators[i]}")
            below, action = gradings[i] - 1, actions[i]
            square = set()  # d(d(generator i)) over GF(2)
            for t in targets:
                if gradings[t] != below:
                    raise CalibrationError(f"grading drop {gradings[i] - gradings[t]} != 1")
                drop = action - actions[t]
                if drop <= action_floor:
                    raise CalibrationError(f"differential fails to decrease action ({drop})")
                if drop < min_drop:
                    min_drop = drop
                square.symmetric_difference_update(bnds[t])
            if square:
                raise CalibrationError(f"d^2 != 0 at generator {self.generators[i]}")
        ranks = self.homology_ranks()
        bad_parity = [g for g in ranks if (g - self.degree) % 2 != 0]
        bad_rank = {g: r for g, r in ranks.items() if r != 1}
        if bad_parity or bad_rank or len(ranks) != 1:
            raise CalibrationError(
                f"rank pattern failure: wrong-parity gradings {bad_parity}, "
                f"ranks {bad_rank}, class count {len(ranks)} (expected the unique class)"
            )
        return {
            "generators": len(self.generators),
            "homology_gradings": sorted(ranks),
            "class_count": len(ranks),
            "distinguished_grading": next(iter(ranks)),
            "min_action_drop": min_drop if min_drop is not math.inf else None,
        }

    def persistence_birth_actions(self) -> Dict[int, float]:
        """Birth action of each essential class, by filtration-ordered reduction.

        Generators enter in increasing action; the reduction pairs births and
        deaths, and the first unpaired (essential) generator of each grading
        gives its homology class the filtration level at which it appears.
        """
        births: Dict[int, float] = {}
        for gi in self._reduce():
            births.setdefault(self.gradings[gi], self.actions[gi])
        return births


# -- spectral invariants --------------------------------------------------------


def radial_staircase_value(profile: TwistProfile, d: int) -> float:
    """Calibrated spectral value: sum of H at the d equispaced interior radii."""
    H = profile.hamiltonian
    return plain_sum(H(k / (d + 1.0)) for k in range(1, d + 1))


def build_complex(profile: TwistProfile, d: int, generator_cap: int = GENERATOR_CAP) -> TwistComplex:
    """Construct the filtered complex (requires a compactly supported profile)."""
    if not profile.support_flag:
        raise ValueError("complex export requires a profile vanishing near r = 1")
    return TwistComplex(profile, d, generator_cap)


def spectral_invariant_cd(profile: TwistProfile, d: int, validate: Optional[bool] = None) -> float:
    """The degree-d spectral invariant of the twist.

    Identity, monotonicity, and the Hofer-Lipschitz bound hold exactly for
    the staircase rule; the Weyl ratio c_d / d converges to the Calabi
    invariant.  When ``validate`` (default: d <= VALIDATE_MAX_DEGREE and the
    profile is complex-exportable), the chain complex is built and its rank
    pattern is checked; a pattern failure raises CalibrationError rather than
    returning a value.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if validate is None:
        validate = d <= VALIDATE_MAX_DEGREE and profile.support_flag and math.isfinite(profile.hamiltonian(0.0))
    if validate:
        build_complex(profile, d).validate()
    return radial_staircase_value(profile, d)


def axioms_report(f: TwistProfile, g: TwistProfile, dmax: int = 128, ds: Optional[Sequence[int]] = None,
                  weyl_tolerance: float = 0.10) -> dict:
    """Per-axiom verdicts for the pair (f, g) up to degree dmax.

    Identity is checked exactly on the zero profile; monotonicity applies
    when one profile dominates the other pointwise; the Hofer-Lipschitz
    margin d * ||H_f - H_g|| - |c_d(f) - c_d(g)| must be nonnegative; the
    Weyl table lists |c_d/d - Cal| per profile and flags whether it
    decreases along ds and lands within tolerance.
    """
    ds = list(ds) if ds is not None else [16, 32, 64, 128]
    ds = [d for d in ds if d <= dmax] or [dmax]

    cd_f = {d: spectral_invariant_cd(f, d, validate=False) for d in ds}
    cd_g = {d: spectral_invariant_cd(g, d, validate=False) for d in ds}

    zero = zero_profile()
    identity_ok = all(spectral_invariant_cd(zero, d, validate=False) == 0.0 for d in ds)

    # H_f and H_g at the radii j / 2048; every fourth radius is a dominance sample
    grid = [j / 2048 for j in range(2049)]
    hf, hg = [f.hamiltonian(r) for r in grid], [g.hamiltonian(r) for r in grid]
    f_le_g = all(a <= b + 1e-15 for a, b in zip(hf[::4], hg[::4]))
    g_le_f = all(b <= a + 1e-15 for a, b in zip(hf[::4], hg[::4]))
    monotone_ok = None
    if f_le_g:
        monotone_ok = all(cd_f[d] <= cd_g[d] for d in ds)
    elif g_le_f:
        monotone_ok = all(cd_g[d] <= cd_f[d] for d in ds)

    # oscillation of H_f - H_g, the one-infinity norm of the connecting Hamiltonian
    lo, hi = math.inf, -math.inf
    for a, b in zip(hf, hg):
        lo, hi = min(lo, a - b), max(hi, a - b)
    hl = hi - lo
    hl_rows = [
        {"d": d, "bound": d * hl, "difference": abs(cd_f[d] - cd_g[d]),
         "slack": d * hl - abs(cd_f[d] - cd_g[d])}
        for d in ds
    ]
    hl_ok = all(row["slack"] >= -1e-12 for row in hl_rows)

    def weyl_rows(profile, cd):
        cal = calabi(profile, self_check_tol=None)
        rows = []
        for d in ds:
            dev = abs(cd[d] / d - cal)
            rows.append({"d": d, "ratio": cd[d] / d, "calabi": cal, "deviation": dev,
                         "relative": dev / cal if cal > 0 else 0.0})
        decreasing = all(a["deviation"] >= b["deviation"] for a, b in zip(rows, rows[1:]))
        within = rows[-1]["relative"] <= weyl_tolerance if cal > 0 else True
        return rows, decreasing and within

    weyl_f, weyl_f_ok = weyl_rows(f, cd_f)
    weyl_g, weyl_g_ok = weyl_rows(g, cd_g)

    return {
        "ds": ds,
        "identity_ok": identity_ok,
        "monotonicity_applicable": monotone_ok is not None,
        "monotonicity_ok": monotone_ok,
        "hofer_lipschitz_rows": hl_rows,
        "hofer_lipschitz_ok": hl_ok,
        "weyl_f": weyl_f,
        "weyl_g": weyl_g,
        "weyl_ok": weyl_f_ok and weyl_g_ok,
        "c_d_f": cd_f,
        "c_d_g": cd_g,
    }


def infinite_twist_experiment(profile: TwistProfile, imax: int = 20, dmax: int = 32) -> dict:
    """Divergence experiment along the truncation chain of an infinite-Calabi twist.

    Produces, per truncation index i: the Calabi invariant, the Hofer-norm
    bound, and the ratios c_d / d on the degree grid 1, 2, 4, 8, 16, dmax
    (cut at dmax); checks the exact monotone chain
    c_d(f_i) <= c_d(f_{i+1}) <= c_d(f), and the bound
    c_d(f_i) <= 2 d * hofer_norm_bound(f_i) cell by cell.
    """
    if imax < 1:
        raise ValueError(f"truncation count imax must be >= 1, got {imax}")
    cal_full = calabi(profile, self_check_tol=None)
    if not math.isinf(cal_full):
        raise ValueError("experiment requires a profile with divergent Calabi invariant")
    ds = [d for d in sorted({1, 2, 4, 8, 16, dmax}) if d <= dmax]

    rows = []
    cd_table: Dict[int, Dict[int, float]] = {}
    for i in range(1, imax + 1):
        fi = truncate_profile(profile, i)
        cal_i = calabi(fi, self_check_tol=None)
        hofer_i = hofer_norm_bound(fi)
        cds = {d: spectral_invariant_cd(fi, d, validate=False) for d in ds}
        cd_table[i] = cds
        rows.append(
            {
                "i": i,
                "calabi": cal_i,
                "hofer_bound": hofer_i,
                "ratios": {d: cds[d] / d for d in ds},
                "step2_ok": all(cds[d] <= 2 * d * hofer_i + 1e-12 for d in ds),
            }
        )

    cd_full = {d: spectral_invariant_cd(profile, d, validate=False) for d in ds}
    chain_ok = all(cd_table[i][d] <= cd_table[i + 1][d] for d in ds for i in range(1, imax))
    step1_ok = all(cd_table[i][d] <= cd_full[d] for d in ds for i in range(1, imax + 1))

    cals = [row["calabi"] for row in rows]
    cal_increasing = all(a < b for a, b in zip(cals, cals[1:]))
    sup_ratios = [max(row["ratios"].values()) for row in rows]
    growth_witnessed = all(a <= b + 1e-15 for a, b in zip(sup_ratios, sup_ratios[1:])) and (
        sup_ratios[-1] > sup_ratios[0]
    )

    return {
        "rows": rows,
        "calabi_strictly_increasing": cal_increasing,
        "calabi_max": cals[-1],
        "monotone_chain_ok": chain_ok,
        "step1_ok": step1_ok,
        "step2_ok": all(row["step2_ok"] for row in rows),
        "sup_ratio_growth_witnessed": growth_witnessed,
        "conclusion": (
            f"sup_d c_d/d grows from {sup_ratios[0]:.6g} at i=1 to "
            f"{sup_ratios[-1]:.6g} at i={imax}; Calabi reaches {cals[-1]:.6g}"
        ),
    }
