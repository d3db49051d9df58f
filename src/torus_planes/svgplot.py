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
The tables are built once, on the first render, which is also where
numpy is imported.

All circles of a document go through one numpy pass. Each circle's
chain splits into its leading twist atoms and a tail (`_split_twist`).
The samples lifted through a twist are the float lift that
`homeo._twist_lift` caches for `homeo_sup_distance`, read here as a
read-only array (`_twist_grid`), so the circles of one plane share one
lift and plotting computes none of its own. The circles whose tail is
one plain `MobiusMap` apply it together, with their coefficients as
(n, 1) columns; any other tail is lifted on floats by `homeo._lift_all`.
Both have the bits of `lift_h` on the whole chain. The y chart is read
off the unit-norm lift, atan2(x, y) / pi mod 1, with no canonical sign
flip: a pair and its negation have one chart, up to a rounding of the
last bit that the byte tests against the canonical reference check. The
digit-table text and the seam cuts are then built for all circles at
once. Output is byte-deterministic for fixed inputs:
fixed float formatting, fixed palette, no timestamps.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConfigError, PreconditionViolated
from .homeo import TWIST_LIFTS, _lift_all, _split_twist, _twist_lift
from .planes import PLUS
from .projline import MobiusMap


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
_WHOLE = _SAMPLES + 1  # offsets in the text table of `_samples`
_GROUPS = _WHOLE + _CANVAS + 1


def _fmt(v: float) -> str:
    return f"{v:.6f}"


@lru_cache(maxsize=1)
def _samples():
    """The x seam jump of the samples and the text table, shared by every circle.

    Sample charts are k / _SAMPLES with the last wrapped to 0. The table
    of texts holds from 0 the x text " k.000000," of each sample (the
    exact integer k), from _WHOLE the integer parts "0." to "512." of a
    canvas y, and from _GROUPS the 3-digit groups "000" to "999".
    """
    import numpy as np

    x = (np.arange(_SAMPLES + 1) / _SAMPLES) % 1.0
    table = np.array([f" {_fmt(v)}," for v in (x * _CANVAS).tolist()]
                     + [f"{k}." for k in range(_CANVAS + 1)]
                     + [f"{k:03d}" for k in range(1000)], dtype=object)
    return np.abs(np.diff(x)) > 0.5, table


@lru_cache(maxsize=TWIST_LIFTS)
def _twist_grid(twist: tuple):
    """`_twist_lift(twist, _SAMPLES)` as a read-only (2, 513) array, its wrap sample last.

    Atoms hash by identity, so the circles of one plane share one entry.
    The wrap sample is chart 0 again, so its lift is the first one.
    """
    import numpy as np

    lift = _twist_lift(twist, _SAMPLES)
    h = np.array(lift + lift[:1]).T
    h.setflags(write=False)
    return h


def _sample_text(py):
    """(n, 4) object array whose rows join to " x,y" of each sample; y in (0, 512].

    Row i holds the x text of sample i mod 513, so the samples of several
    circles laid end to end each get their own x text. "%.6f" writes the
    exact binary value of y rounded half to even at six decimals, that
    is the digits of round(y * 10**6). For y <= 512 the
    product is below 2**29, where a double's spacing is at most 2**-24, so
    fl(y * 10**6) is within 2**-25 of it; rint of the float then rounds as
    the exact product does unless that lies within 2**-25 of a half-integer.
    Those samples, exact ties among them, are written by "%.6f" itself.
    """
    import numpy as np

    table = _samples()[1]
    scaled = py * 1e6
    millionths = np.rint(scaled).astype(np.int64)
    thousandths = millionths // 1000
    units = thousandths // 1000
    index = np.empty((len(py), 4), dtype=np.intp)
    index[:, 0] = np.arange(len(py)) % (_SAMPLES + 1)
    index[:, 1] = units + _WHOLE
    index[:, 2] = thousandths - 1000 * units + _GROUPS
    index[:, 3] = millionths - 1000 * thousandths + _GROUPS
    text = table[index]
    for i in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) <= 2.0**-25).tolist():
        text[i, 1:] = _fmt(float(py[i])), "", ""
    return text


def _circle_charts(graphs):
    """(n, 513) y charts in [0, 1) of the graphs at the samples.

    Raises PreconditionViolated when a lifted image is not finite.
    """
    import numpy as np

    lift = np.empty((2, len(graphs), _SAMPLES + 1))
    rows, coef = [], []
    with np.errstate(all="ignore"):  # a 0/0 lift is nan, caught below
        for i, graph in enumerate(graphs):
            twist, tail = _split_twist(graph)
            if len(tail) == 1 and type(tail[0]) is MobiusMap:
                m = tail[0]
                lift[:, i] = _twist_grid(twist)
                rows.append(i)
                coef.append((m.a, m.b, m.c, m.d))
            else:  # the wrap sample, chart 0 again, last
                images = _lift_all(tail, _twist_lift(twist, _SAMPLES))
                lift[:, i] = np.array(images + images[:1]).T
        if rows:
            a, b, c, d = np.array(coef).T[:, :, None]
            h0, h1 = lift[:, rows]
            x, y = a * h0 + b * h1, c * h0 + d * h1
            n = np.hypot(x, y)
            lift[:, rows] = x / n, y / n
    theta = np.arctan2(lift[0], lift[1]) / math.pi
    if not np.isfinite(theta).all():
        raise PreconditionViolated("homogeneous pair must be finite and nonzero")
    # theta % 1.0 on [-1, 1], bit for bit (the remainder is the rounded
    # theta + 1 below 0), at a fraction of its cost; a tiny negative angle
    # rounds up to 1.0, and 1.0 is chart 0
    theta = theta + (theta < 0.0)
    return np.where(theta < 1.0, theta, 0.0)


def _circle_polylines(graphs, colors) -> list[str]:
    """Per graph, its lines: one <polyline> per seam-free segment of at least two samples."""
    import numpy as np

    if not graphs:
        return []
    x_jump = _samples()[0]
    ty = _circle_charts(graphs)
    text = _sample_text(((1.0 - ty) * _CANVAS).ravel()).ravel().tolist()
    row, cut = np.nonzero(x_jump | (np.abs(np.diff(ty)) > 0.5))
    cuts = [[] for _ in graphs]
    for i, k in zip(row.tolist(), (cut + 1).tolist()):
        cuts[i].append(k)
    width = 4 * (_SAMPLES + 1)
    out = []
    for i, color in enumerate(colors):
        head = f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
        base = i * width
        bounds = [0, *cuts[i], _SAMPLES + 1]
        out.append("".join(
            head + "".join(text[base + 4 * a:base + 4 * b])[1:] + '" />\n'
            for a, b in zip(bounds, bounds[1:])
            if b - a >= 2
        ))
    return out


def render_svg(objects) -> str:
    """Render (kind, payload) pairs to an SVG document string.

    Kinds: ("circle", Circle), ("pclass", ParallelClass),
    ("orbit", list[TorusPoint]). Object i is drawn in palette colour
    i mod 7. A circle becomes one polyline per seam-free run of its 513
    chart samples (see the module docstring), with exact integer x
    coordinates; a parallel class becomes a line and an orbit a dot per
    point. Every number is written with six decimals, so the same
    objects always give the same bytes. Errors are raised in object
    order: an unknown kind after a circle whose image is not finite
    raises the circle's PreconditionViolated.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">\n'
        f'<rect x="0" y="0" width="{_CANVAS}" height="{_CANVAS}" '
        'fill="white" stroke="#444444" stroke-width="1" />\n',
    ]
    slots, graphs, colors = [], [], []
    try:
        for index, (kind, payload) in enumerate(objects):
            color = _PALETTE[index % len(_PALETTE)]
            if kind == "circle":
                graphs.append(payload.graph)
                colors.append(color)
                slots.append(len(parts))
                parts.append("")
            elif kind == "pclass":
                coord = payload.coordinate.chart()
                if payload.kind == PLUS:
                    x = f"{coord * _CANVAS:.6f}"
                    parts.append(f'<line x1="{x}" y1="0" x2="{x}" y2="{_CANVAS}" '
                                 f'stroke="{color}" stroke-width="1.5" />\n')
                else:
                    y = f"{(1.0 - coord) * _CANVAS:.6f}"
                    parts.append(f'<line x1="0" y1="{y}" x2="{_CANVAS}" y2="{y}" '
                                 f'stroke="{color}" stroke-width="1.5" />\n')
            elif kind == "orbit":
                parts += [
                    f'<circle cx="{pt.x.chart() * _CANVAS:.6f}" '
                    f'cy="{(1.0 - pt.y.chart()) * _CANVAS:.6f}" r="2.5" fill="{color}" />\n'
                    for pt in payload
                ]
            else:
                raise ConfigError(f"unknown plot object kind {kind!r}")
    except Exception:
        if graphs:  # a circle drawn before the failing object raises first
            _circle_charts(graphs)
        raise
    for slot, lines in zip(slots, _circle_polylines(graphs, colors)):
        parts[slot] = lines
    parts.append("</svg>\n")
    return "".join(parts)
