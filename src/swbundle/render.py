"""Self-contained SVG and fixed-width text renderers for barcodes and lifebars.

No plotting library: the SVG is assembled from rect/line/text elements with
deterministic formatting, so rendered files are byte-stable across runs.
"""

from __future__ import annotations

import sys

import numpy as np

from .bundle import INF, Barcode, Lifebar

_DIM_COLORS = ("#c0392b", "#27ae60", "#2980b9", "#8e44ad")

_WIDTH = 640
_MARGIN = 48
_ROW = 12
_TEXT_COLUMNS = 80


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _scaled(bc: Barcode, t_max):
    """The axis end right, 2% past the largest of t_max and the finite ends,
    and all bars' (birth, death) as fractions v / right: span * v may overflow."""
    ends = np.array(bc.intervals, dtype=float).reshape(-1, 3)[:, 1:]
    right = max(ends.max(initial=1e-9, where=ends != INF), t_max if t_max is not None else 0.0)
    right = min(float(right) * 1.02, sys.float_info.max)  # the margin, unless it overflows
    return right, np.minimum(ends, right) / right


def _svg(height: int, defs, body: list, axis_y: int, right: float, labels: list) -> str:
    """An SVG document: the defs, a white background, the body, an axis at
    axis_y with five ticks over [0, right] (all at its left end when right is
    0), then the labels."""
    span = _WIDTH - 2 * _MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        *defs,
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
        *body,
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_WIDTH - _MARGIN}" y2="{axis_y}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _fmt(_MARGIN + span * frac if right else _MARGIN)
        out.append(
            f'<line x1="{x}" y1="{axis_y}" x2="{x}" y2="{axis_y + 4}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{axis_y + 14}" font-size="9" text-anchor="middle" '
            f'font-family="monospace">{_fmt(right * frac)}</text>'
        )
    out += labels
    out.append("</svg>")
    return "\n".join(out) + "\n"


def barcode_svg(bc: Barcode, t_max: float | None = None) -> str:
    """Bars grouped by dimension; open intervals run to the right edge."""
    right, scaled = _scaled(bc, t_max)
    x0, x1 = (_MARGIN + (_WIDTH - 2 * _MARGIN) * scaled).T
    height = _MARGIN + _ROW * (len(bc.intervals) + 2)
    body = []
    y = _ROW
    for (d, _, e), start, end, tag in zip(bc.intervals, x0.tolist(),
                                          np.maximum(x1, x0 + 1).tolist(), (x1 + 4).tolist()):
        body.append(
            f'<line x1="{_fmt(start)}" y1="{y}" x2="{_fmt(end)}" y2="{y}" '
            f'stroke="{_DIM_COLORS[d % len(_DIM_COLORS)]}" stroke-width="6"/>'
        )
        if e == INF:
            body.append(
                f'<text x="{_fmt(tag)}" y="{y + 4}" font-size="9" '
                f'font-family="monospace">inf</text>'
            )
        y += _ROW
    legend = [
        f'<text x="{_MARGIN + 70 * i}" y="{_ROW // 2 + 2}" font-size="9" '
        f'font-family="monospace" fill="{_DIM_COLORS[d % len(_DIM_COLORS)]}">H{d}</text>'
        for i, d in enumerate(dict.fromkeys(d for (d, _, _) in bc.intervals))
    ]
    return _svg(height, (), body, y + _ROW, right, legend)


def barcode_text(bc: Barcode, t_max: float | None = None) -> str:
    """Fixed 80-column rendering, one bar per line."""
    label_w = 24
    span = _TEXT_COLUMNS - label_w - 1
    right, scaled = _scaled(bc, t_max)
    lines = []
    for (d, b, e), (c0, c1) in zip(bc.intervals, np.rint(span * scaled).astype(int).tolist()):
        death = "inf" if e == INF else _fmt(e)
        label = f"H{d} [{_fmt(b)}, {death})"[:label_w].ljust(label_w)
        c1 = max(c1, c0 + 1)
        lines.append((label + " " * c0 + "#" * (c1 - c0))[:_TEXT_COLUMNS])
    lines.append(f"axis: 0 .. {_fmt(right)}")
    return "\n".join(lines) + "\n"


def _lifebar_cut(lb: Lifebar, span: int) -> tuple:
    """The caption, and where along span the zero part ends: cut / t_max * span,
    the ratio first so that no product overflows, or all of span at a zero bound."""
    caption = "empty" if lb.empty else f"nonzero from ~{_fmt(lb.t_dagger)}"
    cut = lb.t_max if lb.empty else lb.t_dagger
    return caption, cut / lb.t_max * span if lb.t_max > 0 else span


def lifebar_svg(lb: Lifebar) -> str:
    """One bar over [0, t_max): hatched where the class is zero, solid after."""
    caption, x_cut = _lifebar_cut(lb, _WIDTH - 2 * _MARGIN)
    x_cut += _MARGIN
    defs = (
        "<defs>",
        '<pattern id="hatch" width="6" height="6" patternTransform="rotate(45)" '
        'patternUnits="userSpaceOnUse">'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#555" stroke-width="1.5"/>'
        "</pattern>",
        "</defs>",
    )
    body = [
        f'<rect x="{_MARGIN}" y="16" width="{_fmt(x_cut - _MARGIN)}" height="16" '
        f'fill="url(#hatch)" stroke="#555" stroke-width="0.5"/>',
    ]
    if not lb.empty:
        body.append(
            f'<rect x="{_fmt(x_cut)}" y="16" width="{_fmt(_WIDTH - _MARGIN - x_cut)}" '
            f'height="16" fill="#1a1a1a"/>'
        )
    label = (
        f'<text x="{_MARGIN}" y="10" font-size="10" font-family="monospace">'
        f"lifebar: {caption} (resolution {_fmt(lb.resolution)})</text>"
    )
    return _svg(72, defs, body, 48, lb.t_max, [label])


def lifebar_text(lb: Lifebar) -> str:
    """Fixed 80-column lifebar: '/' marks the zero part, '#' the nonzero part."""
    span = _TEXT_COLUMNS - 1
    caption, c = _lifebar_cut(lb, span)
    c = min(max(int(round(c)), 0), span)
    bar = "/" * c + "#" * (span - c)
    return f"{bar}\nlifebar: {caption} on [0, {_fmt(lb.t_max)}), resolution {_fmt(lb.resolution)}\n"
