"""Minimal deterministic SVG line/bar plots.

Hand-rolled on purpose: the pipeline promises byte-identical output for
identical inputs, and text SVG diffs cleanly in tests.  Only the handful
of plot types the reports need are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PALETTE = ("#4063d8", "#cb3c33", "#389826", "#9558b2", "#b8860b", "#17a2b8")
WIDTH = 720          # px
PANEL_HEIGHT = 300   # px per stacked panel


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


@dataclass
class Panel:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    lines: list = field(default_factory=list)    # (xs, ys, label)
    points: list = field(default_factory=list)   # (xs, ys, label)
    bars: list = field(default_factory=list)     # (labels, values) pairs
    hlines: list = field(default_factory=list)   # (y, label)
    vspans: list = field(default_factory=list)   # (x0, x1)
    logy: bool = False

    def add_line(self, xs, ys, label=""):
        self.lines.append(([float(x) for x in xs], [float(y) for y in ys], label))

    def add_points(self, xs, ys, label=""):
        self.points.append(([float(x) for x in xs], [float(y) for y in ys], label))

    def add_hline(self, y, label=""):
        self.hlines.append((float(y), label))

    def add_vspan(self, x0, x1):
        self.vspans.append((float(x0), float(x1)))

    def add_bars(self, labels, values):
        self.bars.append(([str(l) for l in labels], [float(v) for v in values]))


def _panel_data_range(panel: Panel):
    xs_all, ys_all = [], []
    for xs, ys, _ in panel.lines + panel.points:
        xs_all.extend(xs)
        ys_all.extend(ys)
    for y, _ in panel.hlines:
        ys_all.append(y)
    if panel.bars:
        for labels, values in panel.bars:
            xs_all.extend(range(len(labels)))
            ys_all.extend(values + [0.0])
    if not xs_all:
        xs_all = [0.0, 1.0]
    if not ys_all:
        ys_all = [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.06 * (y1 - y0)
    return x0, x1, y0 - pad, y1 + pad


def render(panels) -> str:
    """Render panels stacked vertically as SVG text."""
    if isinstance(panels, Panel):
        panels = [panels]
    m_left, m_right, m_top, m_bottom = 64, 16, 34, 44
    height = PANEL_HEIGHT * len(panels)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{height}" viewBox="0 0 {WIDTH} {height}">',
           '<style>text{font-family:monospace;font-size:11px;fill:#222}'
           '.t{font-size:13px;font-weight:bold}</style>',
           f'<rect width="{WIDTH}" height="{height}" fill="#ffffff"/>']

    for pi, panel in enumerate(panels):
        oy = pi * PANEL_HEIGHT
        px0, px1 = m_left, WIDTH - m_right
        py0, py1 = oy + m_top, oy + PANEL_HEIGHT - m_bottom
        x0, x1, y0, y1 = _panel_data_range(panel)
        if panel.logy:
            y0 = max(y0, 1e-300)
            y0l, y1l = math.log10(y0), math.log10(max(y1, y0 * 10))
        sx = (px1 - px0) / (x1 - x0)

        def X(v):
            return px0 + (v - x0) * sx

        def Y(v):
            if panel.logy:
                vv = math.log10(max(v, y0))
                frac = (vv - y0l) / (y1l - y0l)
            else:
                frac = (v - y0) / (y1 - y0)
            return py1 - frac * (py1 - py0)

        out.append(f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" '
                   f'height="{py1 - py0}" fill="none" stroke="#888"/>')
        if panel.title:
            out.append(f'<text class="t" x="{px0}" y="{py0 - 10}">{panel.title}</text>')

        for xx0, xx1 in panel.vspans:
            a, b = sorted((max(x0, xx0), min(x1, xx1)))
            out.append(f'<rect x="{_fmt(X(a))}" y="{py0}" width="{_fmt(max(X(b) - X(a), 1.0))}" '
                       f'height="{py1 - py0}" fill="#ddd" opacity="0.6"/>')

        if not panel.bars:
            for t in _nice_ticks(x0, x1):
                out.append(f'<line x1="{_fmt(X(t))}" y1="{py1}" x2="{_fmt(X(t))}" '
                           f'y2="{py1 + 4}" stroke="#666"/>')
                out.append(f'<text x="{_fmt(X(t))}" y="{py1 + 16}" '
                           f'text-anchor="middle">{_tick_label(t)}</text>')
        yticks = _nice_ticks(y0, y1) if not panel.logy else \
            [10.0 ** e for e in range(math.ceil(y0l), math.floor(y1l) + 1)]
        for t in yticks:
            out.append(f'<line x1="{px0 - 4}" y1="{_fmt(Y(t))}" x2="{px0}" '
                       f'y2="{_fmt(Y(t))}" stroke="#666"/>')
            out.append(f'<text x="{px0 - 7}" y="{_fmt(Y(t) + 3.5)}" '
                       f'text-anchor="end">{_tick_label(t)}</text>')

        ci = 0
        legend = []
        for xs, ys, label in panel.lines:
            color = PALETTE[ci % len(PALETTE)]
            ci += 1
            pts = " ".join(f"{_fmt(X(a))},{_fmt(Y(b))}" for a, b in zip(xs, ys))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.4"/>')
            if label:
                legend.append((label, color))
        for xs, ys, label in panel.points:
            color = PALETTE[ci % len(PALETTE)]
            ci += 1
            for a, b in zip(xs, ys):
                out.append(f'<circle cx="{_fmt(X(a))}" cy="{_fmt(Y(b))}" r="3.2" '
                           f'fill="{color}"/>')
            if label:
                legend.append((label, color))
        for labels, values in panel.bars:
            color = PALETTE[ci % len(PALETTE)]
            ci += 1
            bw = 0.7
            for i, (lab, v) in enumerate(zip(labels, values)):
                xa, xb = X(i - bw / 2), X(i + bw / 2)
                ya, yb = sorted((Y(0.0), Y(v)))
                out.append(f'<rect x="{_fmt(xa)}" y="{_fmt(ya)}" '
                           f'width="{_fmt(xb - xa)}" height="{_fmt(yb - ya)}" '
                           f'fill="{color}" opacity="0.85"/>')
                out.append(f'<text x="{_fmt(X(i))}" y="{py1 + 16}" '
                           f'text-anchor="middle">{lab}</text>')
        for y, label in panel.hlines:
            out.append(f'<line x1="{px0}" y1="{_fmt(Y(y))}" x2="{px1}" '
                       f'y2="{_fmt(Y(y))}" stroke="#444" stroke-dasharray="5,3"/>')
            if label:
                out.append(f'<text x="{px1 - 4}" y="{_fmt(Y(y) - 4)}" '
                           f'text-anchor="end">{label}</text>')
        for li, (label, color) in enumerate(legend):
            lx, ly = px0 + 10, py0 + 14 + 14 * li
            out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
        if panel.xlabel:
            out.append(f'<text x="{(px0 + px1) // 2}" y="{py1 + 32}" '
                       f'text-anchor="middle">{panel.xlabel}</text>')
        if panel.ylabel:
            cx, cy = px0 - 48, (py0 + py1) // 2
            out.append(f'<text x="{cx}" y="{cy}" text-anchor="middle" '
                       f'transform="rotate(-90 {cx} {cy})">{panel.ylabel}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
