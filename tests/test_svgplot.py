import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torus_planes import MobiusMap, classical_plane, render_svg
from torus_planes.planes import TAG_TWISTED
from torus_planes.projline import chart_h, h_from_chart
from torus_planes import svgplot
from torus_planes.svgplot import _CANVAS, _PALETTE, _SAMPLES, _sample_text

from helpers import SEEDED_PLANES, canonical_chain_action, random_triple, rng_for


# ----------------------------------------------------------------------
# reference: the circle path sampled and split one point at a time


def reference_segments(circle):
    thetas = np.arange(_SAMPLES + 1) / _SAMPLES
    h = h_from_chart(thetas % 1.0)
    tx = thetas  # monotone lift along the x-axis
    ty = chart_h(canonical_chain_action(circle.graph, h))
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


def reference_polyline(points, color):
    coords = " ".join(
        f"{x * _CANVAS:.6f},{(1.0 - y) * _CANVAS:.6f}" for x, y in points
    )
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{coords}" />'
    )


def reference_svg(circles):
    """The document render_svg draws for circles alone, from the reference."""
    head = render_svg([]).removesuffix("</svg>\n")
    lines = [
        reference_polyline(segment, _PALETTE[i % len(_PALETTE)]) + "\n"
        for i, circle in enumerate(circles)
        for segment in reference_segments(circle)
    ]
    return head + "".join(lines) + "</svg>\n"


def assert_same_svg(got, want):
    """Byte equality, failing on the first differing line: a full diff is slow."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    first = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), None)
    assert (len(got_lines), first) == (len(want_lines), None)
    assert got == want


def point_counts(svg):
    return [len(pts.split()) for pts in re.findall(r'<polyline [^>]*points="([^"]*)"', svg)]


# ----------------------------------------------------------------------


def _y_crosses_seam(circle):
    """True when the graph's chart y jumps between two neighbouring samples."""
    h = h_from_chart(np.arange(_SAMPLES) / _SAMPLES)
    ty = chart_h(canonical_chain_action(circle.graph, h))
    return bool(np.any(np.abs(np.diff(ty)) > 0.5))


@pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
def test_render_svg_matches_the_reference_bytes(name):
    rng = rng_for(911, sorted(SEEDED_PLANES).index(name))
    plane = SEEDED_PLANES[name](rng)
    circles = [plane.join(*random_triple(rng)) for _ in range(24)]
    if name != "classical":
        # the twisted y crossing the seam is the split the fast path must keep
        assert any(c.tag == TAG_TWISTED and _y_crosses_seam(c) for c in circles)
    svg = render_svg([("circle", c) for c in circles])
    assert_same_svg(svg, reference_svg(circles))


def test_identity_graph_is_one_polyline_of_512_points():
    # the last sample wraps x to 0 and is dropped as a one-point segment
    circle = classical_plane().mobius_circle(MobiusMap.identity())
    svg = render_svg([("circle", circle)])
    assert point_counts(svg) == point_counts(reference_svg([circle])) == [512]
    assert_same_svg(svg, reference_svg([circle]))


def test_y_jump_splits_exactly_at_the_jump():
    # y = x + 0.3 + 1/1024 in the chart passes chart 1 between x = 357/512
    # and x = 358/512
    circle = classical_plane().mobius_circle(MobiusMap.rotation(0.3 + 1 / 1024))
    svg = render_svg([("circle", circle)])
    assert point_counts(svg) == point_counts(reference_svg([circle])) == [358, 154]
    first, second = re.findall(r'points="([^"]*)"', svg)
    last_x, last_y = map(float, first.split()[-1].split(","))
    next_x, next_y = map(float, second.split()[0].split(","))
    assert (last_x, next_x) == (357.0, 358.0)
    assert last_y < 1.0 and next_y > _CANVAS - 1.0
    assert_same_svg(svg, reference_svg([circle]))


def test_one_sample_segment_is_dropped():
    # y jumps between the first two samples, leaving sample 0 alone
    circle = classical_plane().mobius_circle(MobiusMap.rotation(1.0 - 1 / 1024))
    svg = render_svg([("circle", circle)])
    assert point_counts(svg) == point_counts(reference_svg([circle])) == [511]
    assert re.search(r'points="1\.000000,', svg)
    assert_same_svg(svg, reference_svg([circle]))


# ----------------------------------------------------------------------
# the digit tables against "%.6f"


def y_texts(py):
    """The y text _sample_text writes for each canvas y."""
    return ["".join(row) for row in _sample_text(np.asarray(py, dtype=float))[:, 1:].tolist()]


def assert_writes_like_printf(py):
    py = np.asarray(py, dtype=float)
    for chunk in range(0, len(py), _SAMPLES + 1):
        part = py[chunk:chunk + _SAMPLES + 1]
        assert y_texts(part) == [f"{v:.6f}" for v in part.tolist()]


def test_digit_tables_round_exact_ties_half_to_even(monkeypatch):
    # k / 128 is k * 7812.5 millionths: every odd k is an exact tie, which
    # the tables leave to "%.6f"
    fallback = []
    monkeypatch.setattr(svgplot, "_fmt", lambda v: fallback.append(v) or f"{v:.6f}")
    ties = np.arange(1, 512 * 128 + 1) / 128
    assert_writes_like_printf(ties)
    assert len(fallback) == len(ties) // 2 and 1 / 128 in fallback
    assert y_texts([1 / 128, 3 / 128]) == ["0.007812", "0.023438"]


def test_digit_tables_next_to_rounding_boundaries():
    # the floats nearest x.xxxxxx5 and their neighbours a few ulps away
    rng = np.random.default_rng(912)
    millionths = np.concatenate([rng.integers(0, 512_000_000, 4000), [0, 511_999_999]])
    down = up = (millionths + 0.5) / 1e6
    near = [down]
    for _ in range(3):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, 512.0)
        near += [down, up]
    assert_writes_like_printf(np.concatenate(near))


def test_digit_tables_at_the_ends_of_the_canvas():
    assert_writes_like_printf([512.0, np.nextafter(512.0, 0.0), 511.9999995, 511.9999994999,
                               5e-324, 2.0**-44, 1e-7, 4.999999e-7, 5e-7, 5.000001e-7, 1e-6])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, _SAMPLES + 1),
                  elements=st.floats(0.0, 512.0, exclude_min=True)))
def test_digit_tables_write_like_printf(py):
    assert_writes_like_printf(py)
