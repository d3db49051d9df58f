import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torus_planes import (
    Circle,
    CircleHomeo,
    ConfigError,
    DiagonalPSL,
    MobiusMap,
    NoBranch,
    ParallelClass,
    PowerMap,
    PreconditionViolated,
    ProjPoint,
    TorusPoint,
    TwoPointFamily,
    classical_plane,
    parse_plane_spec,
    render_svg,
)
from torus_planes.homeo import TWIST_LIFTS, _split_twist
from torus_planes.planes import TAG_PSL, TAG_TWISTED
from torus_planes.projline import FrameMember, chart_h, h_from_chart
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


def reference_object(kind, payload, color):
    """The lines of one object, each drawn and formatted on its own."""
    if kind == "circle":
        return [reference_polyline(segment, color) for segment in reference_segments(payload)]
    if kind == "pclass":
        coord = payload.coordinate.chart()
        if payload.kind == "plus":
            x = f"{coord * _CANVAS:.6f}"
            return [f'<line x1="{x}" y1="0" x2="{x}" y2="{_CANVAS}" '
                    f'stroke="{color}" stroke-width="1.5" />']
        y = f"{(1.0 - coord) * _CANVAS:.6f}"
        return [f'<line x1="0" y1="{y}" x2="{_CANVAS}" y2="{y}" '
                f'stroke="{color}" stroke-width="1.5" />']
    assert kind == "orbit"
    return [f'<circle cx="{pt.x.chart() * _CANVAS:.6f}" '
            f'cy="{(1.0 - pt.y.chart()) * _CANVAS:.6f}" r="2.5" fill="{color}" />'
            for pt in payload]


def reference_document(objects):
    """The document render_svg draws for (kind, payload) pairs, from the reference."""
    head = render_svg([]).removesuffix("</svg>\n")
    lines = [
        line + "\n"
        for i, (kind, payload) in enumerate(objects)
        for line in reference_object(kind, payload, _PALETTE[i % len(_PALETTE)])
    ]
    return head + "".join(lines) + "</svg>\n"


def reference_svg(circles):
    """The document render_svg draws for circles alone, from the reference."""
    return reference_document([("circle", c) for c in circles])


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
# documents: every circle of a document in one pass


# the benchmark planes, a g != id plane (tails past the Mobius map), the
# untwisted half-classical plane and a steep twist
DOCUMENT_PLANES = {
    **SEEDED_PLANES,
    "power-2-g-power-3": lambda rng: parse_plane_spec("half:power:2:power:3"),
    "id": lambda rng: parse_plane_spec("half:id"),
    "power-20": lambda rng: parse_plane_spec("half:power:20"),
}


def random_document(plane, rng, count):
    """count objects: circles of the plane, parallel classes of both kinds and orbits."""
    orbit_map = DiagonalPSL(MobiusMap.rotation(0.05))
    objects = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6:
            while True:
                try:
                    objects.append(("circle", plane.join(*random_triple(rng))))
                    break
                except NoBranch:  # a steep twist can map the points together
                    pass
        elif roll < 0.8:
            kind = "plus" if rng.random() < 0.5 else "minus"
            objects.append(("pclass", ParallelClass(kind, ProjPoint.from_chart(rng.random()))))
        else:
            orbit = [TorusPoint(ProjPoint.from_chart(rng.random()),
                                ProjPoint.from_chart(rng.random()))]
            for _ in range(4):
                orbit.append(orbit_map.act(orbit[-1]))
            objects.append(("orbit", orbit))
    return objects


def drawn_colours(svg):
    """The colour of each drawn line in order, runs of one colour counted once."""
    colours = re.findall(r'(?:stroke|fill)="(#[0-9a-f]{6})"', svg.split("\n", 2)[2])
    return [c for i, c in enumerate(colours) if i == 0 or colours[i - 1] != c]


@pytest.mark.parametrize("name", sorted(DOCUMENT_PLANES))
def test_mixed_documents_match_the_reference_bytes(name):
    rng = rng_for(914, sorted(DOCUMENT_PLANES).index(name))
    plane = DOCUMENT_PLANES[name](rng)
    tags = set()
    for _ in range(6):
        objects = random_document(plane, rng, 11)
        tags.update(payload.tag for kind, payload in objects if kind == "circle")
        svg = render_svg(objects)
        assert_same_svg(svg, reference_document(objects))
        assert drawn_colours(svg) == [_PALETTE[i % len(_PALETTE)] for i in range(len(objects))]
    if name != "classical":  # PSL and twisted rows in one pass
        assert tags == {TAG_PSL, TAG_TWISTED}


def _bad_circle(*tail):
    # at chart 1/4 both entries are 2**-0.5, and (2**-0.5)**3000 rounds to 0:
    # the lift is 0/0 (at 2000, 2**-1000 is still a float)
    return Circle(CircleHomeo((PowerMap(3000.0), *tail)), TAG_TWISTED, MobiusMap.identity())


@pytest.mark.parametrize("tail", [(), (MobiusMap.rotation(0.1),)], ids=["twist", "mobius-tail"])
def test_circle_whose_lift_rounds_to_zero_raises(tail):
    good = classical_plane().mobius_circle(MobiusMap.rotation(0.3))
    for objects in ([("circle", _bad_circle(*tail))],
                    [("circle", good), ("pclass", ParallelClass("plus", ProjPoint.from_chart(0.2))),
                     ("circle", _bad_circle(*tail)), ("circle", good)]):
        with pytest.raises(PreconditionViolated):
            render_svg(objects)


def test_errors_are_raised_in_object_order():
    good = classical_plane().mobius_circle(MobiusMap.rotation(0.3))
    with pytest.raises(ConfigError, match="unknown plot object kind 'dot'"):
        render_svg([("circle", good), ("dot", None), ("circle", _bad_circle())])
    with pytest.raises(PreconditionViolated):
        render_svg([("circle", good), ("circle", _bad_circle()), ("dot", None)])


def test_cached_twist_grids_are_read_only():
    plane = parse_plane_spec("half:power:2")
    rng = rng_for(915)
    circles = [plane.join(*random_triple(rng)) for _ in range(8)]
    render_svg([("circle", c) for c in circles])
    twists = {_split_twist(c.graph)[0] for c in circles}
    assert twists == {(), plane.f.atoms}
    for twist in twists:
        grid = svgplot._twist_grid(twist)
        assert grid.shape == (2, _SAMPLES + 1) and not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0
    assert svgplot._twist_grid.cache_info().maxsize == TWIST_LIFTS


def test_mobius_tails_take_the_batched_pass(monkeypatch):
    # once the twist lifts are cached, circles whose tail is one plain Mobius
    # map lift nothing through CircleHomeo.lift_h; a tail with g's atoms does,
    # and so does a FrameMember, whose lift is not its summed matrix's
    plane = parse_plane_spec("half:power:2")
    rng = rng_for(916)
    objects = [("circle", plane.join(*random_triple(rng))) for _ in range(8)]
    g_plane = parse_plane_spec("half:power:2:power:3")
    other = g_plane.join(*random_triple(rng))
    while other.tag != TAG_TWISTED:
        other = g_plane.join(*random_triple(rng))
    member = TwoPointFamily(*(ProjPoint.from_real(v) for v in (0.0, 1.0, 2.0, 5.0))).member(1.5)
    frame = classical_plane().mobius_circle(member)
    assert type(frame.graph.atoms[-1]) is FrameMember
    svg = render_svg(objects + [("circle", other), ("circle", frame)])
    assert_same_svg(svg, reference_svg([c for _, c in objects] + [other, frame]))

    def refuse(self, h):
        raise AssertionError("lifted by CircleHomeo.lift_h")

    monkeypatch.setattr(CircleHomeo, "lift_h", refuse)
    assert svg.startswith(render_svg(objects).removesuffix("</svg>\n"))
    for circle in (other, frame):
        with pytest.raises(AssertionError, match="lift_h"):
            render_svg([("circle", circle)])


def test_sample_text_gives_each_circle_its_x_text():
    # one row per sample of circles laid end to end: sample i has x text i mod 513
    rng = np.random.default_rng(917)
    py = rng.uniform(0.0, 512.0, 3 * (_SAMPLES + 1) + 5)
    x = (np.arange(len(py)) % (_SAMPLES + 1)) / _SAMPLES % 1.0 * _CANVAS
    text = _sample_text(py)
    assert text.shape == (len(py), 4)
    assert ["".join(row) for row in text.tolist()] == [
        f" {a:.6f},{b:.6f}" for a, b in zip(x.tolist(), py.tolist())]


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
    svgplot._samples()  # the x text is built first, so only tie samples reach _fmt below
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
