"""Minimal deterministic SVG line plots (no external assets, fixed formatting)."""

from __future__ import annotations

import math

from .reporting import Table

WIDTH, HEIGHT = 640, 420
MARGIN = 56
COLOR = "#1f5fa8"


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _ticks(lo: float, hi: float, log: bool) -> list:
    if log:
        lo_e, hi_e = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    if hi == lo:
        return [lo]
    step = 10 ** math.floor(math.log10((hi - lo) / 4))
    for mult in (1, 2, 5, 10):
        if (hi - lo) / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(hi):
        out.append(t)
        t += step
    return out


def emit_svg(table: Table, x: str, y: str, title: str, logy: bool = False) -> str:
    """Self-contained polyline plot of column ``y`` against column ``x`` on a log axis."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    )
    axes = (
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>\n'
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>\n'
    )

    def transform(v: float) -> float:
        return math.log10(v) if logy else v

    xi, yi = table.columns.index(x), table.columns.index(y)
    xs = [math.log10(float(r[xi])) for r in table.rows]
    ys = [transform(float(r[yi])) for r in table.rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(v: float) -> float:
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(v: float) -> float:
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    body = [
        f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>'
    ]
    for tick in _ticks(10.0**x_lo, 10.0**x_hi, True):
        tx = px(math.log10(tick))
        if MARGIN - 1 <= tx <= WIDTH - MARGIN + 1:
            body.append(
                f'<line x1="{_fmt(tx)}" y1="{HEIGHT - MARGIN}" x2="{_fmt(tx)}" '
                f'y2="{HEIGHT - MARGIN + 5}" stroke="black"/>'
                f'<text x="{_fmt(tx)}" y="{HEIGHT - MARGIN + 20}" text-anchor="middle" '
                f'font-family="monospace" font-size="11">{tick:g}</text>'
            )
    for tick in _ticks(10.0**y_lo if logy else y_lo, 10.0**y_hi if logy else y_hi, logy):
        ty = py(transform(tick))
        if MARGIN - 1 <= ty <= HEIGHT - MARGIN + 1:
            body.append(
                f'<line x1="{MARGIN - 5}" y1="{_fmt(ty)}" x2="{MARGIN}" y2="{_fmt(ty)}" stroke="black"/>'
                f'<text x="{MARGIN - 8}" y="{_fmt(ty + 4)}" text-anchor="end" '
                f'font-family="monospace" font-size="11">{tick:g}</text>'
            )
    pts = " ".join(f"{_fmt(px(xv))},{_fmt(py(yv))}" for xv, yv in zip(xs, ys))
    body.append(f'<polyline points="{pts}" fill="none" stroke="{COLOR}" stroke-width="1.5"/>')
    body.append(
        f'<text x="{WIDTH - MARGIN}" y="{MARGIN}" text-anchor="end" '
        f'font-family="monospace" font-size="12" fill="{COLOR}">{y}</text>'
    )
    return head + axes + "\n".join(body) + "\n</svg>\n"
