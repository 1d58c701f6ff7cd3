"""Slow, independent constructions that the fast library paths are checked against."""

import math

from echlab.rotations import Partition, Rotation, _hull_path


def column_heights(rot: Rotation, m: int, upper: bool) -> list:
    """Heights floor(x*theta) (upper path) or ceil(x*theta) (lower path), x = 0..m."""
    if upper:
        return [0] + [rot.scaled_floor(x) for x in range(1, m + 1)]
    return [0] + [rot.scaled_ceil(x) for x in range(1, m + 1)]


def hull_partition(theta, m: int, positive: bool = True) -> Partition:
    """O(m) monotone-chain oracle for p+/p-: the hull of the column heights,
    each edge split at its interior lattice points."""
    heights = column_heights(Rotation.coerce(theta), m, upper=positive)
    verts = _hull_path(list(enumerate(heights)), upper=positive)
    parts = []
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        dx, dy = x1 - x0, y1 - y0
        g = math.gcd(dx, abs(dy))
        parts.extend([dx // g] * g)
    return Partition(tuple(parts))


def staircase_partition(theta, m: int, positive: bool = True) -> Partition:
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
    return Partition(tuple(parts))


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
