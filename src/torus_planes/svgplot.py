"""Deterministic SVG rendering of torus objects in the unit-square chart.

The torus is drawn as [0, 1)^2 in the angle chart (0 at 0, infinity at
0.5 on each axis). Circles are sampled along the x-chart and split into
polyline segments wherever either coordinate jumps across the chart seam,
so graphs winding around the torus never draw seam-crossing artifacts.
Output is byte-deterministic for fixed inputs: fixed float formatting,
fixed palette, no timestamps.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .planes import PLUS, Circle
from .projline import chart_h, h_from_chart


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)

_CANVAS = 512
_SAMPLES = 512  # chart samples per circle


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _to_canvas(theta_x: float, theta_y: float) -> tuple[float, float]:
    # SVG y grows downward; chart y grows upward
    return theta_x * _CANVAS, (1.0 - theta_y) * _CANVAS


def _circle_segments(circle: Circle):
    thetas = np.arange(_SAMPLES + 1) / _SAMPLES
    h = h_from_chart(thetas % 1.0)
    tx = thetas  # monotone lift along the x-axis
    ty = chart_h(circle.graph.apply_h(h))
    segments = []
    current = [(tx[0] % 1.0, ty[0])]
    for i in range(1, len(tx)):
        x0, y0 = tx[i - 1] % 1.0, ty[i - 1]
        x1, y1 = tx[i] % 1.0, ty[i]
        if abs(x1 - x0) > 0.5 or abs(y1 - y0) > 0.5:
            segments.append(current)
            current = []
        current.append((x1, y1))
    segments.append(current)
    return [s for s in segments if len(s) >= 2]


def _polyline(points, color: str) -> str:
    coords = " ".join(
        f"{_fmt(px)},{_fmt(py)}" for px, py in (_to_canvas(x, y) for x, y in points)
    )
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{coords}" />'
    )


def render_svg(objects) -> str:
    """Render (kind, payload) pairs to an SVG document string.

    Kinds: ("circle", Circle), ("pclass", ParallelClass),
    ("orbit", list[TorusPoint]).
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">',
        f'<rect x="0" y="0" width="{_CANVAS}" height="{_CANVAS}" '
        'fill="white" stroke="#444444" stroke-width="1" />',
    ]
    for index, (kind, payload) in enumerate(objects):
        color = _PALETTE[index % len(_PALETTE)]
        if kind == "circle":
            for segment in _circle_segments(payload):
                parts.append(_polyline(segment, color))
        elif kind == "pclass":
            coord = payload.coordinate.chart()
            if payload.kind == PLUS:
                x = coord * _CANVAS
                parts.append(
                    f'<line x1="{_fmt(x)}" y1="0" x2="{_fmt(x)}" '
                    f'y2="{_CANVAS}" stroke="{color}" stroke-width="1.5" />'
                )
            else:
                y = (1.0 - coord) * _CANVAS
                parts.append(
                    f'<line x1="0" y1="{_fmt(y)}" x2="{_CANVAS}" '
                    f'y2="{_fmt(y)}" stroke="{color}" stroke-width="1.5" />'
                )
        elif kind == "orbit":
            for pt in payload:
                cx, cy = _to_canvas(pt.x.chart(), pt.y.chart())
                parts.append(
                    f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2.5" '
                    f'fill="{color}" />'
                )
        else:
            raise ConfigError(f"unknown plot object kind {kind!r}")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
