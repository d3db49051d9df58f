"""Deterministic SVG rendering of torus objects in the unit-square chart.

The torus is drawn as [0, 1)^2 in the angle chart (0 at 0, infinity at
0.5 on each axis). A circle is sampled at the 513 dyadic charts k / 512,
k = 0..512, the last wrapping back to chart 0; its y samples are the
chart of its graph at those points. The samples are split into polyline
segments wherever either coordinate jumps by more than half a turn, so
graphs winding around the torus never draw seam-crossing artifacts, and
a segment of one point is dropped. Canvas x coordinates are the exact
integers k, so their text is fixed per sample; canvas y coordinates lie
in (0, 512] and are written from digit tables (an integer part and two
3-digit groups of the rounded millionths), with the bytes "%.6f" gives.
The sample points and the tables are built once, on the first render,
which is also where numpy is imported. Output is byte-deterministic for
fixed inputs: fixed float formatting, fixed palette, no timestamps.
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
    """The circle samples and digit tables, shared by every circle.

    Charts k / _SAMPLES with the last wrapped to 0, their homogeneous
    pairs, the x seam jump, the x text " k.000000," of each sample (the
    exact integer k), the integer parts "0." to "512." of a canvas y, and
    the 3-digit groups "000" to "999".
    """
    import numpy as np

    x = (np.arange(_SAMPLES + 1) / _SAMPLES) % 1.0
    h = h_from_chart(x)
    h.setflags(write=False)
    x_text = np.array([f" {_fmt(v)}," for v in (x * _CANVAS).tolist()], dtype=object)
    whole = np.array([f"{k}." for k in range(_CANVAS + 1)], dtype=object)
    digits = np.array([f"{k:03d}" for k in range(1000)], dtype=object)
    return h, np.abs(np.diff(x)) > 0.5, x_text, whole, digits


def _sample_text(py):
    """(n, 4) object array whose rows join to " x,y" of each sample; y in (0, 512].

    "%.6f" writes the exact binary value of y rounded half to even at six
    decimals, that is the digits of round(y * 10**6). For y <= 512 the
    product is below 2**29, where a double's spacing is at most 2**-24, so
    fl(y * 10**6) is within 2**-25 of it; rint of the float then rounds as
    the exact product does unless that lies within 2**-25 of a half-integer.
    Those samples, exact ties among them, are written by "%.6f" itself.
    """
    import numpy as np

    _, _, x_text, whole, digits = _samples()
    scaled = py * 1e6
    millionths = np.rint(scaled).astype(np.int64)
    thousandths, low = np.divmod(millionths, 1000)
    units, high = np.divmod(thousandths, 1000)
    text = np.empty((len(py), 4), dtype=object)
    text[:, 0] = x_text[: len(py)]
    text[:, 1] = whole[units]
    text[:, 2] = digits[high]
    text[:, 3] = digits[low]
    for i in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) <= 2.0**-25).tolist():
        text[i, 1:] = _fmt(float(py[i])), "", ""
    return text


def _circle_polylines(circle: Circle, color: str) -> list[str]:
    """One <polyline> per seam-free segment of at least two samples."""
    import numpy as np

    h, x_jump, *_ = _samples()
    ty = chart_h(circle.graph.apply_h(h))
    text = _sample_text((1.0 - ty) * _CANVAS)
    cuts = np.flatnonzero(x_jump | (np.abs(np.diff(ty)) > 0.5)) + 1
    bounds = [0, *cuts.tolist(), len(ty)]
    head = f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
    return [
        head + "".join(text[a:b].ravel().tolist())[1:] + '" />'
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
