"""Self-contained SVG and fixed-width text renderers for barcodes and lifebars.

No plotting library: the SVG is assembled from rect/line/text elements with
deterministic formatting, so rendered files are byte-stable across runs.
"""

from __future__ import annotations

import sys

from .bundle import INF, Barcode, Lifebar

_DIM_COLORS = ("#c0392b", "#27ae60", "#2980b9", "#8e44ad")

_WIDTH = 640
_MARGIN = 48
_ROW = 12
_TEXT_COLUMNS = 80


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _axis_tail(values, t_max):
    finite = [v for v in values if v != INF]
    right = max(finite + [t_max if t_max is not None else 0.0, 1e-9])
    return min(right * 1.02, sys.float_info.max)  # the margin, unless it overflows


def _svg(height: int, defs, body: list, axis_y: int, right: float, sx, labels: list) -> str:
    """An SVG document: the defs, a white background, the body, an axis at
    axis_y with five ticks over [0, right] placed by sx, then the labels."""
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
        v = right * frac
        x = sx(v)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{axis_y}" x2="{_fmt(x)}" y2="{axis_y + 4}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{axis_y + 14}" font-size="9" text-anchor="middle" '
            f'font-family="monospace">{_fmt(v)}</text>'
        )
    out += labels
    out.append("</svg>")
    return "\n".join(out) + "\n"


def barcode_svg(bc: Barcode, t_max: float | None = None) -> str:
    """Bars grouped by dimension; open intervals run to the right edge."""
    right = _axis_tail([x for (_, b, e) in bc.intervals for x in (b, e)], t_max)
    span = _WIDTH - 2 * _MARGIN

    def sx(v: float) -> float:
        return _MARGIN + span * (min(v, right) / right)  # v / right first: span * v may overflow

    height = _MARGIN + _ROW * (len(bc.intervals) + 2)
    body = []
    y = _ROW
    for (d, b, e) in bc.intervals:
        color = _DIM_COLORS[d % len(_DIM_COLORS)]
        x0 = sx(b)
        x1 = sx(e if e != INF else right)
        body.append(
            f'<line x1="{_fmt(x0)}" y1="{y}" x2="{_fmt(max(x1, x0 + 1))}" y2="{y}" '
            f'stroke="{color}" stroke-width="6"/>'
        )
        if e == INF:
            body.append(
                f'<text x="{_fmt(x1 + 4)}" y="{y + 4}" font-size="9" '
                f'font-family="monospace">inf</text>'
            )
        y += _ROW
    legend = [
        f'<text x="{_MARGIN + 70 * i}" y="{_ROW // 2 + 2}" font-size="9" '
        f'font-family="monospace" fill="{_DIM_COLORS[d % len(_DIM_COLORS)]}">H{d}</text>'
        for i, d in enumerate(dict.fromkeys(d for (d, _, _) in bc.intervals))
    ]
    return _svg(height, (), body, y + _ROW, right, sx, legend)


def barcode_text(bc: Barcode, t_max: float | None = None) -> str:
    """Fixed 80-column rendering, one bar per line."""
    right = _axis_tail([x for (_, b, e) in bc.intervals for x in (b, e)], t_max)
    label_w = 24
    span = _TEXT_COLUMNS - label_w - 1
    lines = []
    for (d, b, e) in bc.intervals:
        death = "inf" if e == INF else _fmt(e)
        label = f"H{d} [{_fmt(b)}, {death})"[:label_w].ljust(label_w)
        c0 = int(round(span * (min(b, right) / right)))
        c1 = int(round(span * (min(e if e != INF else right, right) / right)))
        c1 = max(c1, c0 + 1)
        bar = " " * c0 + "#" * (c1 - c0)
        lines.append((label + bar)[:_TEXT_COLUMNS])
    lines.append(f"axis: 0 .. {_fmt(right)}")
    return "\n".join(lines) + "\n"


def lifebar_svg(lb: Lifebar) -> str:
    """One bar over [0, t_max): hatched where the class is zero, solid after."""
    span = _WIDTH - 2 * _MARGIN
    height = 72

    def sx(v: float) -> float:
        return _MARGIN + span * v / lb.t_max if lb.t_max > 0 else _MARGIN

    cut = lb.t_max if lb.empty else lb.t_dagger
    # at a zero bound the zero part fills the bar, as lifebar_text draws it
    x_cut = sx(cut) if lb.t_max > 0 else _WIDTH - _MARGIN
    defs = (
        "<defs>",
        '<pattern id="hatch" width="6" height="6" patternTransform="rotate(45)" '
        'patternUnits="userSpaceOnUse">'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#555" stroke-width="1.5"/>'
        "</pattern>",
        "</defs>",
    )
    body = [
        f'<rect x="{_fmt(sx(0.0))}" y="16" width="{_fmt(x_cut - sx(0.0))}" height="16" '
        f'fill="url(#hatch)" stroke="#555" stroke-width="0.5"/>',
    ]
    if not lb.empty:
        body.append(
            f'<rect x="{_fmt(x_cut)}" y="16" width="{_fmt(sx(lb.t_max) - x_cut)}" '
            f'height="16" fill="#1a1a1a"/>'
        )
    caption = "empty" if lb.empty else f"nonzero from ~{_fmt(lb.t_dagger)}"
    label = (
        f'<text x="{_MARGIN}" y="10" font-size="10" font-family="monospace">'
        f"lifebar: {caption} (resolution {_fmt(lb.resolution)})</text>"
    )
    return _svg(height, defs, body, 48, lb.t_max, sx, [label])


def lifebar_text(lb: Lifebar) -> str:
    """Fixed 80-column lifebar: '/' marks the zero part, '#' the nonzero part."""
    span = _TEXT_COLUMNS - 1
    cut = lb.t_max if lb.empty else lb.t_dagger
    c = int(round(span * cut / lb.t_max)) if lb.t_max > 0 else span
    c = min(max(c, 0), span)
    bar = "/" * c + "#" * (span - c)
    caption = "empty" if lb.empty else f"nonzero from ~{_fmt(lb.t_dagger)}"
    return f"{bar}\nlifebar: {caption} on [0, {_fmt(lb.t_max)}), resolution {_fmt(lb.resolution)}\n"
