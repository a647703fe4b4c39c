"""Minimal native SVG line plots (no plotting dependency).

Produces deterministic SVG 1.1 documents with axes, ticks and one or more
polylines; enough for the profile figures and scaling plots of the CLI.
``svg_text`` renders a plot to text without touching the file system; the
command that asked for it writes that text with ``report.write_text``.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 860, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float):
    """About six round ticks on [lo, hi], lo < hi."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks or [lo]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def svg_text(curves, title: str, xlabel: str, ylabel: str, manifest: dict) -> str:
    """The SVG text of a polyline plot; curves is a list of (label, x, y) triples."""
    xs = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    ys = np.concatenate([np.asarray(c[2], dtype=float) for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    # every caller's x values span a range; a constant y (the zero wave) is widened
    if y_hi - y_lo <= 0:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * ph

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    meta = "; ".join(f"{k}: {v}" for k, v in sorted(manifest.items()))
    parts.append(f"<!-- {meta} -->")
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" '
                     f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 18}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH - MARGIN_R}" '
                     f'y2="{py:.1f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" font-size="12" '
                     f'text-anchor="end" font-family="sans-serif">{_fmt(t)}</text>')

    frame = (f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
             f'fill="none" stroke="black" stroke-width="1"/>')
    parts.append(frame)

    for i, (label, cx, cy) in enumerate(curves):
        color = COLORS[i % len(COLORS)]
        # sx and sy on float64 arrays round each point as on Python floats
        px, py = sx(np.asarray(cx, dtype=float)), sy(np.asarray(cy, dtype=float))
        pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.3" '
                     f'points="{pts}"/>')
        ly = MARGIN_T + 16 + 16 * i
        parts.append(f'<line x1="{WIDTH - 190}" y1="{ly - 4}" x2="{WIDTH - 160}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - 152}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{label}</text>')

    parts.append(f'<text x="{WIDTH / 2:.0f}" y="24" font-size="15" text-anchor="middle" '
                 f'font-family="sans-serif">{title}</text>')
    parts.append(f'<text x="{MARGIN_L + pw / 2:.0f}" y="{HEIGHT - 12}" font-size="13" '
                 f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + ph / 2:.0f}" font-size="13" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 18 {MARGIN_T + ph / 2:.0f})">{ylabel}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
