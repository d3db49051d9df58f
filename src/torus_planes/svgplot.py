"""Deterministic SVG rendering of torus objects in the unit-square chart.

The torus is drawn as [0, 1)^2 in the angle chart (0 at 0, infinity at
0.5 on each axis). A circle is sampled at the 513 dyadic charts k / 512,
k = 0..512, the last wrapping back to chart 0; its y samples are the
chart of its graph at those points. The samples are split into polyline
segments wherever either coordinate jumps by more than half a turn, so
graphs winding around the torus never draw seam-crossing artifacts, and
a segment of one point is dropped. Canvas x coordinates are the exact
integers k, so their text and the sample points are built once, on the
first render, which is also where numpy is imported. Output is
byte-deterministic for fixed inputs: fixed float formatting, fixed
palette, no timestamps.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=1)
def _samples():
    """The circle samples, shared by every circle.

    Charts k / _SAMPLES with the last wrapped to 0, their homogeneous
    pairs, the x seam jump, and one "x,%.6f" template per sample whose x
    text is the exact integer k.
    """
    import numpy as np

    x = (np.arange(_SAMPLES + 1) / _SAMPLES) % 1.0
    h = h_from_chart(x)
    h.setflags(write=False)
    templates = tuple(f"{_fmt(v)},%.6f" for v in (x * _CANVAS).tolist())
    return h, np.abs(np.diff(x)) > 0.5, templates


def _circle_polylines(circle: Circle, color: str) -> list[str]:
    """One <polyline> per seam-free segment of at least two samples."""
    import numpy as np

    h, x_jump, templates = _samples()
    ty = chart_h(circle.graph.apply_h(h))
    py = ((1.0 - ty) * _CANVAS).tolist()
    cuts = np.flatnonzero(x_jump | (np.abs(np.diff(ty)) > 0.5)) + 1
    bounds = [0, *cuts.tolist(), len(py)]
    head = f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
    return [
        head + " ".join(templates[a:b]) % tuple(py[a:b]) + '" />'
        for a, b in zip(bounds, bounds[1:])
        if b - a >= 2
    ]


def render_svg(objects) -> str:
    """Render (kind, payload) pairs to an SVG document string.

    Kinds: ("circle", Circle), ("pclass", ParallelClass),
    ("orbit", list[TorusPoint]). Object i is drawn in palette colour
    i mod 7. A circle becomes one polyline per seam-free run of its 513
    chart samples (see the module docstring), with exact integer x
    coordinates; a parallel class becomes a line and an orbit a dot per
    point. Every number is written with six decimals, so the same
    objects always give the same bytes.
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
            parts += _circle_polylines(payload, color)
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
