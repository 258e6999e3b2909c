"""Minimal hand-emitted SVG line charts.

One stacked panel per series, each with its own vertical scale, sharing the
horizontal axis. No rendering dependency; output is deterministic text so
repeated runs with the same data are byte-identical.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

_WIDTH = 720
_PANEL_HEIGHT = 150
_PANEL_GAP = 34
_MARGIN_LEFT = 78
_MARGIN_RIGHT = 24
_MARGIN_TOP = 46
_MARGIN_BOTTOM = 44

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data.

    The same three replacements as ``xml.sax.saxutils.escape``, whose import
    would pull ``urllib`` and ``ssl`` into every CLI start.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return format(float(v), ".2f")


def _label(v: float) -> str:
    return format(float(v), ".6g")


def _scale(lo: float, hi: float, out_lo: float, out_hi: float):
    if hi == lo:
        pad = abs(lo) * 0.05 or 0.5
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    return lo, hi, lambda v: out_lo + (v - lo) / span * (out_hi - out_lo)


def line_chart(x_label: str, x_values, panels, title: str | None = None) -> str:
    """Render stacked line panels as an SVG document string.

    ``panels`` is an ordered sequence of (name, values) pairs; each values
    list matches ``x_values`` in length and may contain None, or a NaN or
    infinite value, for points to omit (a panel with no remaining points is
    drawn empty).
    """
    x_values = [float(v) for v in x_values]
    if not x_values:
        raise ValueError("x_values must not be empty")
    panels = list(panels)
    if not panels:
        raise ValueError("at least one panel is required")
    for name, values in panels:
        if len(values) != len(x_values):
            raise ValueError(
                f"panel {name!r} has {len(values)} values for {len(x_values)} x points"
            )

    height = (_MARGIN_TOP + _MARGIN_BOTTOM
              + len(panels) * _PANEL_HEIGHT + (len(panels) - 1) * _PANEL_GAP)
    px_lo = _MARGIN_LEFT
    px_hi = _WIDTH - _MARGIN_RIGHT
    x_lo, x_hi, to_px = _scale(min(x_values), max(x_values), px_lo, px_hi)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )

    for index, (name, values) in enumerate(panels):
        top = _MARGIN_TOP + index * (_PANEL_HEIGHT + _PANEL_GAP)
        bottom = top + _PANEL_HEIGHT
        color = _COLORS[index % len(_COLORS)]
        points = [(x, float(v)) for x, v in zip(x_values, values)
                  if v is not None and math.isfinite(v)]

        out.append(f'<rect x="{px_lo}" y="{top}" width="{px_hi - px_lo}" '
                   f'height="{_PANEL_HEIGHT}" fill="none" stroke="#888"/>')
        out.append(f'<text x="{px_lo}" y="{top - 6}" font-family="sans-serif" '
                   f'font-size="12" fill="{color}">{_escape(name)}</text>')

        if points:
            ys = [v for _, v in points]
            y_lo, y_hi, to_py = _scale(min(ys), max(ys), bottom, top)
            coords = " ".join(f"{_fmt(to_px(x))},{_fmt(to_py(v))}"
                              for x, v in points)
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'stroke-width="1.5" points="{coords}"/>')
            for x, v in points:
                out.append(f'<circle cx="{_fmt(to_px(x))}" cy="{_fmt(to_py(v))}" '
                           f'r="2.5" fill="{color}"/>')
            for val, y in ((y_hi, top), (y_lo, bottom)):
                out.append(f'<text x="{px_lo - 6}" y="{y + 4}" text-anchor="end" '
                           f'font-family="sans-serif" font-size="11">'
                           f'{_escape(_label(val))}</text>')
        else:
            out.append(f'<text x="{(px_lo + px_hi) / 2:.0f}" '
                       f'y="{top + _PANEL_HEIGHT / 2:.0f}" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="12" fill="#888">'
                       f'no data</text>')

    axis_y = height - _MARGIN_BOTTOM
    for val, anchor, x in ((x_lo, "start", px_lo), (x_hi, "end", px_hi)):
        out.append(f'<text x="{x}" y="{axis_y + 18}" text-anchor="{anchor}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{_escape(_label(val))}</text>')
    out.append(f'<text x="{(px_lo + px_hi) / 2:.0f}" y="{axis_y + 36}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12">'
               f'{_escape(x_label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
