"""Slow, independent constructions that the fast library paths are checked against."""

import heapq
import math

from echlab.ellipsoid import TWO_PI, ResourceCapError, _gauss_legendre
from echlab.orbits import CurveData, CurveEnds, OrbitSet, Tower, orbit_to_json
from echlab.pfh import _hull_path
from echlab.rotations import Rotation
from echlab.sampling import SET_MAX_MULT, SET_MAX_ORBITS, _splits, orbit_pool, pool_entries


def column_heights(rot: Rotation, m: int, upper: bool) -> list:
    """Heights floor(x*theta) (upper path) or ceil(x*theta) (lower path), x = 0..m."""
    if upper:
        return [0] + [rot.scaled_floor(x) for x in range(1, m + 1)]
    return [0] + [rot.scaled_ceil(x) for x in range(1, m + 1)]


def hull_partition(theta, m: int, positive: bool = True) -> tuple:
    """O(m) monotone-chain oracle for p+/p-: the hull of the column heights,
    each edge split at its interior lattice points."""
    heights = column_heights(Rotation.coerce(theta), m, upper=positive)
    verts = _hull_path(list(enumerate(heights)), upper=positive)
    parts = []
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        dx, dy = x1 - x0, y1 - y0
        g = math.gcd(dx, abs(dy))
        parts.extend([dx // g] * g)
    return tuple(sorted(parts, reverse=True))


def staircase_partition(theta, m: int, positive: bool = True) -> tuple:
    """Independent O(m^2) greedy-staircase oracle for p+/p-.

    From each reached lattice point, take the step of maximal (positive case,
    staying below the line) or minimal (negative case, staying above) slope;
    ties resolve to the shortest step, which records collinear lattice points
    as vertices.
    """
    rot = Rotation.coerce(theta)
    heights = column_heights(rot, m, upper=positive)
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
    return tuple(sorted(parts, reverse=True))


def hyperbolic_expectation(theta, m: int) -> tuple:
    """Expected partition at integral / half-integral rotation (either sign of end).

    Integral theta: m parts of size 1.  Half-integral theta: m/2 twos when m
    is even, else floor(m/2) twos and a single one.
    """
    rot = Rotation.coerce(theta)
    if rot.is_integral():
        return (1,) * m
    if rot.is_half_integral():
        if m % 2 == 0:
            return (2,) * (m // 2)
        return (2,) * (m // 2) + (1,)
    raise ValueError("expected integral or half-integral rotation")


def random_orbit_set(rng, entries) -> OrbitSet:
    """The orbit set of ``sampling._draw_entries``'s draws, as drawn with two-argument ``randint``."""
    chosen = rng.sample(range(len(entries)), rng.randint(1, SET_MAX_ORBITS))
    picked = []
    for i in chosen:
        by_mult = entries[i]
        mult = 1 if by_mult[0][0].is_hyperbolic else rng.randint(1, SET_MAX_MULT)
        picked.append(by_mult[mult - 1])
    return OrbitSet(picked)


def random_ends(rng, endpoint: OrbitSet) -> tuple:
    """``sampling._random_ends`` with ``randint`` draws and one new CurveEnds per record."""
    out = []
    for orbit, mult in endpoint.items():
        c1 = rng.randint(0, mult)
        if c1 == 0:
            continue  # orbit fully covered by trivial cylinders
        options = _splits(c1)
        parts = options[rng.randrange(len(options))]
        out.append(CurveEnds(orbit.label, parts, c1 < mult))
    return tuple(out)


def random_tower(rng, n: int) -> Tower:
    """``sampling.random_tower`` as drawn with ``randint``: the stream the generator must keep."""
    pool = orbit_pool(rng)
    entries = pool_entries(pool)
    sets = [random_orbit_set(rng, entries) for _ in range(n + 1)]
    common = math.lcm(*(o.action.denominator for o in pool))
    sets.sort(key=lambda s: s.action.numerator * (common // s.action.denominator), reverse=True)
    curves = []
    for top, bottom in zip(sets, sets[1:]):
        curves.append(
            CurveData(
                genus=rng.randint(0, 2),
                positive_ends=random_ends(rng, top),
                negative_ends=random_ends(rng, bottom),
                alpha=top,
                beta=bottom,
                c_tau=rng.randint(-2, 2),
            )
        )
    return Tower(curves)


def tower_to_json(t: Tower) -> dict:
    """``orbits.tower_to_json`` without sharing: fresh entries lists and ends dicts for every curve."""
    labels = {o.label: o for c in t.curves for o, _ in c.alpha.items() + c.beta.items()}

    def ends(side):
        return [{"orbit": e.orbit_label, "multiplicities": list(e.multiplicities), "c0": e.c0_present} for e in side]

    return {
        "orbits": [orbit_to_json(labels[k]) for k in sorted(labels)],
        "curves": [{
            "genus": c.genus,
            "c_tau": c.c_tau,
            "alpha": [[o.label, m] for o, m in c.alpha.items()],
            "beta": [[o.label, m] for o, m in c.beta.items()],
            "positive_ends": ends(c.positive_ends),
            "negative_ends": ends(c.negative_ends),
        } for c in t.curves],
    }


def heap_spectrum_values(a: float, b: float, L=None, count=None, cap: int = 10**7) -> list:
    """Bounded-heap oracle for ``ellipsoid.spectrum_values``: pop the sorted
    (m*a + n*b, m, n) tuples one at a time, pushing (m+1, n) and, from m = 0,
    (0, n+1).  Takes the float parameters and skips the argument checks."""
    out = []
    heap = [(0.0, 0, 0)]
    while heap:
        v, m, n = heapq.heappop(heap)
        if L is not None and v > L * (1 + 1e-15):
            break
        out.append((v, m, n))
        if count is not None and len(out) >= count:
            break
        if len(out) > cap:
            raise ResourceCapError(f"spectrum entry cap {cap} exceeded")
        heapq.heappush(heap, (v + a, m + 1, n))
        if m == 0:
            heapq.heappush(heap, (v + b, 0, n + 1))
    return out


def pointwise_volume_quadrature(a: float, b: float, n_mu: int, n_angle: int) -> float:
    """Oracle for ``ellipsoid.volume_quadrature``: the integrand evaluated
    point by point from the embedding's frame, lambda and d(lambda)."""

    def frame(mu, t1, t2):
        # embedding (x1, y1, x2, y2) and its partial derivatives
        r1 = math.sqrt(a * mu / math.pi) if mu > 0 else 0.0
        r2 = math.sqrt(b * (1 - mu) / math.pi) if mu < 1 else 0.0
        c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
        p = (r1 * c1, r1 * s1, r2 * c2, r2 * s2)
        dr1 = a / (2 * math.pi * r1) if r1 > 0 else 0.0
        dr2 = -b / (2 * math.pi * r2) if r2 > 0 else 0.0
        d_mu = (dr1 * c1, dr1 * s1, dr2 * c2, dr2 * s2)
        d_t1 = (-r1 * s1, r1 * c1, 0.0, 0.0)
        d_t2 = (0.0, 0.0, -r2 * s2, r2 * c2)
        return p, d_mu, d_t1, d_t2

    def lam(p, v):
        x1, y1, x2, y2 = p
        return 0.5 * (x1 * v[1] - y1 * v[0] + x2 * v[3] - y2 * v[2])

    def dlam(u, v):
        return (u[0] * v[1] - u[1] * v[0]) + (u[2] * v[3] - u[3] * v[2])

    angles = [TWO_PI * j / n_angle for j in range(n_angle)]
    total = 0.0
    for x, w in zip(*_gauss_legendre(n_mu)):
        mu, w = 0.5 * (x + 1.0), 0.5 * w
        acc = 0.0
        for t1 in angles:
            for t2 in angles:
                p, dm, d1, d2 = frame(mu, t1, t2)
                val = (
                    lam(p, dm) * dlam(d1, d2)
                    - lam(p, d1) * dlam(dm, d2)
                    + lam(p, d2) * dlam(dm, d1)
                )
                acc += val
        total += w * acc * (TWO_PI / n_angle) ** 2
    return abs(total)


def splice_boundaries(cx) -> list:
    """Oracle for ``pfh.TwistComplex.boundaries``: each term's path spliced as the
    tuple head + rounded zone + rest and looked up by its generator, with the terms
    folded by parity."""
    index = {g: i for i, g in enumerate(cx.generators)}
    ref_id, hulls = cx.ref_id, {}
    bnds = []
    for edges in cx.generators:
        counts = {}
        last = len(edges) - 1
        for corner, (a, ma, ha) in enumerate(edges):
            b, mb, hb = edges[corner + 1] if corner < last else (None, 0, 0)
            zone_h = ha + hb
            if zone_h == 0:
                continue
            if (a, b) not in hulls:
                hulls[a, b] = cx._corner_hull(a, b)
            # incoming remainder, hull edges, outgoing remainder
            zone = ((a, ma - 1, 0),) if ma > 1 else ()
            zone += hulls[a, b]
            if mb > 1:
                zone += ((b, mb - 1, 0),)
            head, rest = edges[:corner], edges[corner + 2 :]
            # one h left: the zone as built; two: the survivor on one zone edge, never a flat one
            labelings = [zone] if zone_h == 1 else [
                zone[:j] + ((i, m, 1),) + zone[j + 1 :] for j, (i, m, _) in enumerate(zone) if i != ref_id
            ]
            for labeled in labelings:
                path = head + labeled + rest
                ti = index[path]
                counts[ti] = counts.get(ti, 0) + 1
        bnds.append([ti for ti, c in counts.items() if c % 2 == 1])
    return bnds


def bitmask_essential(cx) -> list:
    """Oracle for ``pfh.TwistComplex._reduce``: the same clearing reduction with each
    column an int bitmask over the filtration positions, ordered by a tuple key."""
    bnds, gradings = cx.boundaries(), cx.gradings
    order = sorted(range(len(gradings)), key=lambda i: (cx.actions[i], gradings[i]))
    pos = [0] * len(order)
    for k, gi in enumerate(order):
        pos[gi] = k
    pivots = {}  # low row -> reduced column
    essential = []
    for gi in sorted(order, key=gradings.__getitem__, reverse=True):
        if pos[gi] in pivots:
            continue
        col = 0
        for t in bnds[gi]:
            col |= 1 << pos[t]
        while col:
            low = col.bit_length() - 1
            if low not in pivots:
                pivots[low] = col
                break
            col ^= pivots[low]
        else:
            essential.append(gi)
    return essential


def hofer_distance_bound(f, g, grid: int = 2048) -> float:
    """Oracle for the Hofer-Lipschitz bound of ``pfh.axioms_report``: the
    oscillation of H_f - H_g over the radii j / grid, with each difference
    computed point by point from the two Hamiltonians."""
    lo, hi = math.inf, -math.inf
    for j in range(grid + 1):
        r = j / grid
        dv = f.hamiltonian(r) - g.hamiltonian(r)
        lo, hi = min(lo, dv), max(hi, dv)
    return hi - lo
