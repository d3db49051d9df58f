"""Deterministic SVG rendering of torus objects in the unit-square chart.

The torus is drawn as [0, 1)^2 in the angle chart (0 at 0, infinity at
0.5 on each axis). A circle is sampled at the 512 dyadic charts k / 512,
one per canvas column; its y samples are the chart of its graph at those
points. The samples are split into polyline segments wherever y jumps by
more than half a turn, so graphs winding around the torus never draw
seam-crossing artifacts, and a segment of one point is dropped. Canvas x
coordinates are the exact integers k, so their text is fixed per sample;
canvas y coordinates lie in (0, 512] and are written with the bytes
"%.6f" gives, from word tables. The text of a document is one buffer of
uint32 words, six a sample: a (512, 6) template holds each sample's x
text as three NUL-padded words, and three gathers write the y text from
the rounded millionths, one word of its integer part ("0." to "512.") and
one of each 3-digit group. One bytes.translate drops the padding. Each
polyline is a slice of the resulting string; its offsets come from one
cumsum of the per-sample text lengths, read only at segment bounds. The
tables are built once, on the first render, which is also where numpy is
imported; no text is kept from one render to the next.

All circles of a document go through one numpy pass. Each circle's
chain splits into its leading twist atoms and a tail (`_split_twist`).
The samples lifted through a twist are the float lift that
`homeo._twist_lift` caches for `homeo_sup_distance`, read here as a
read-only array (`_twist_grid`), so the circles of one plane share one
lift and plotting computes none of its own. Every circle's twist lift
goes through one in-place pass of Mobius maps, their coefficients as
(n, 1) columns: the tail when that is one plain `MobiusMap` (as for
joined circles on g = id planes), the identity otherwise. Any other tail
is then lifted on floats by `homeo._lift_all`, its images written over
that row. Both have the bits of `lift_h` on the whole chain. The y chart
is read off the unit-norm lift, atan2(x, y) / pi mod 1, with no canonical
sign flip: a pair and its negation have one chart, up to a rounding of
the last bit that the byte tests against the canonical reference check.
The text and the seam cuts are then built for all circles at once.
Output is byte-deterministic for fixed inputs: fixed float formatting,
fixed palette, no timestamps.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ConfigError, PreconditionViolated
from .homeo import TWIST_LIFTS, _lift_all, _split_twist, _twist_lift
from .planes import MINUS, PLUS
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

# the canvas width, and the chart samples per circle: sample k is drawn
# at x = k exactly, so its x text " k.000000," is fixed
_CANVAS = 512


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _words(texts, width: int):
    """The byte strings as rows of width / 4 uint32 words, each NUL-padded to width bytes."""
    import numpy as np

    raw = b"".join(t.ljust(width, b"\0") for t in texts)
    return np.frombuffer(raw, dtype=np.uint32).reshape(len(texts), width // 4)


@lru_cache(maxsize=1)
def _tables():
    """The word tables of the sample text and the text lengths, built once.

    The (512, 6) template holds in its first three words the x text
    " k.000000," of sample k (the exact integer k) and zeros in the other
    three, where a canvas y goes. A y is written from one word of its
    integer part, "0." to "512.", and one word each of two 3-digit groups,
    "000" to "999". The lengths are those of each x text and of the y text
    of each integer part.
    """
    import numpy as np

    x = [b" %d.000000," % k for k in range(_CANVAS)]
    units = [b"%d." % k for k in range(_CANVAS + 1)]
    template = np.zeros((_CANVAS, 6), dtype=np.uint32)
    template[:, :3] = _words(x, 12)
    tables = (template, np.array([len(t) for t in x]), _words(units, 4).ravel(),
              np.array([len(t) + 6 for t in units]),
              _words([b"%03d" % k for k in range(1000)], 4).ravel())
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=TWIST_LIFTS)
def _twist_grid(twist: tuple):
    """`_twist_lift(twist, _CANVAS)` as a read-only (2, 512) array.

    Atoms hash by identity, so the circles of one plane share one entry.
    """
    import numpy as np

    h = np.array(_twist_lift(twist, _CANVAS)).T
    h.setflags(write=False)
    return h


def _sample_text(py):
    """The texts " x,y" of the samples laid end to end, and their offsets; y in (0, 512].

    Sample i takes the x text of sample i mod 512, so the samples of
    several circles laid end to end each get their own x text. Its text
    is text[offsets[i]:offsets[i + 1]]. The words of all samples fill one
    buffer, and one translate drops their NUL padding.

    "%.6f" writes the exact binary value of y rounded half to even at six
    decimals, that is the digits of round(y * 10**6). For y <= 512 the
    product is below 2**29, where a double's spacing is at most 2**-24, so
    fl(y * 10**6) is within 2**-25 of it; rint of the float then rounds as
    the exact product does unless that lies within 2**-25 of a half-integer.
    Those samples, exact ties among them, are written by "%.6f" itself.
    """
    import numpy as np

    template, x_len, unit_words, y_len, group_words = _tables()
    circles = -(-len(py) // _CANVAS)
    words = np.concatenate((template,) * circles)[:len(py)]
    scaled = py * 1e6
    rounded = np.rint(scaled)
    millionths = rounded.astype(np.int64)
    thousandths = millionths // 1000
    units = thousandths // 1000
    words[:, 3] = unit_words[units]
    words[:, 4] = group_words[thousandths - 1000 * units]
    words[:, 5] = group_words[millionths - 1000 * thousandths]
    length = np.concatenate((x_len,) * circles)[:len(py)] + y_len[units]
    for i in np.flatnonzero(np.abs(scaled - rounded) >= 0.5 - 2.0**-25).tolist():
        y = _fmt(float(py[i])).encode()
        words[i, 3:] = _words([y], 12)
        length[i] = x_len[i % _CANVAS] + len(y)
    offsets = np.zeros(len(py) + 1, dtype=np.intp)
    np.cumsum(length, out=offsets[1:])
    return words.tobytes().translate(None, b"\0").decode("ascii"), offsets


def _circle_charts(graphs):
    """(n, 512) y charts in [0, 1) of the graphs at the samples.

    Raises PreconditionViolated when a lifted image is not finite.
    """
    import numpy as np

    lift = np.empty((2, len(graphs), _CANVAS))
    coef = np.empty((4, len(graphs), 1))
    generic = []
    for i, graph in enumerate(graphs):
        twist, tail = _split_twist(graph)
        lift[:, i] = _twist_grid(twist)
        if len(tail) == 1 and type(tail[0]) is MobiusMap:
            m = tail[0]
            coef[:, i, 0] = m.a, m.b, m.c, m.d
        else:
            coef[:, i, 0] = 1.0, 0.0, 0.0, 1.0
            generic.append((i, twist, tail))
    a, b, c, d = coef
    h0, h1 = lift
    with np.errstate(all="ignore"):  # a 0/0 lift is nan, caught below
        x, y = a * h0 + b * h1, c * h0 + d * h1
        n = np.hypot(x, y)
        np.divide(x, n, out=h0)
        np.divide(y, n, out=h1)
        for i, twist, tail in generic:
            lift[:, i] = np.array(_lift_all(tail, _twist_lift(twist, _CANVAS))).T
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
    ty = _circle_charts(graphs)
    text, offsets = _sample_text(((1.0 - ty) * _CANVAS).ravel())
    # a segment starts at each row's first sample and after a y jump; bounds
    # are flat sample indices
    starts = np.ones(ty.shape, dtype=bool)
    np.greater(np.abs(np.diff(ty)), 0.5, out=starts[:, 1:])
    bounds = np.append(np.flatnonzero(starts), ty.size)
    at = offsets[bounds].tolist()
    bounds = bounds.tolist()
    lines = [[] for _ in graphs]
    for a, b, start, end in zip(bounds, bounds[1:], at, at[1:]):
        if b - a >= 2:  # the text of sample a starts with its separating space
            lines[a // _CANVAS].append(text[start + 1:end])
    return [
        "".join(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}" />\n'
                for points in segments)
        for color, segments in zip(colors, lines)
    ]


def render_svg(objects) -> str:
    """Render (kind, payload) pairs to an SVG document string.

    Kinds: ("circle", Circle), ("pclass", ParallelClass),
    ("orbit", list[TorusPoint]). Object i is drawn in palette colour
    i mod 7. A circle becomes one polyline per seam-free run of its 512
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
                elif payload.kind == MINUS:
                    y = f"{(1.0 - coord) * _CANVAS:.6f}"
                    parts.append(f'<line x1="0" y1="{y}" x2="{_CANVAS}" y2="{y}" '
                                 f'stroke="{color}" stroke-width="1.5" />\n')
                else:
                    raise ConfigError(f"unknown parallel-class kind {payload.kind!r}")
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
