import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_planes import (
    CircleHomeo,
    ConfigError,
    MobiusMap,
    MonotoneSpline,
    MonotonicityError,
    PowerMap,
    PreconditionViolated,
    ProjPoint,
    TwoPointFamily,
    chordal,
    half_classical_plane,
    homeo_sup_distance,
    load_spline_knots,
    parse_plane_spec,
)
from torus_planes.homeo import (
    _BISECT_STEPS,
    BISECT_TOL,
    TWIST_LIFTS,
    _float_grid,
    _split_twist,
    _twist_lift,
    regula_falsi,
)
from torus_planes.planes import TAG_PSL, TAG_TWISTED, PlaneModel

from helpers import (
    SEEDED_PLANES,
    assert_columns_match_batch,
    canonical_chain_action,
    lift_chart,
    normalize_h,
    random_pgl,
    random_triple,
    reference_sup_distance,
    rng_for,
    serial_sup_distance,
    spline_eval_chart,
    spline_plane,
)

P = ProjPoint.from_real
INF = ProjPoint.infinity()


class TestApply:
    def test_identity_chain(self):
        assert CircleHomeo.identity().apply(P(7.0)).value() == 7.0

    def test_power_map_negative(self):
        assert math.isclose(
            CircleHomeo.power(3).apply(P(-2.0)).value(), -8.0, rel_tol=1e-12
        )

    def test_chain_left_to_right(self):
        chain = CircleHomeo((PowerMap(2.0), MobiusMap([[1.0, 1.0], [0.0, 1.0]])))
        assert math.isclose(chain.apply(P(3.0)).value(), 10.0, rel_tol=1e-12)

    def test_power_fixes_endpoints(self):
        h = CircleHomeo.power(2.5)
        assert h.apply(P(0.0)).value() == 0.0
        assert h.apply(INF).value() == math.inf

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ConfigError):
            PowerMap(0.0)
        with pytest.raises(ConfigError):
            PowerMap(-2.0)


class TestInverse:
    def test_identity(self):
        assert CircleHomeo.identity().inverse().as_mobius().is_identity()

    def test_power_inverse_forced(self):
        inv = CircleHomeo.power(2.0).inverse()
        assert isinstance(inv.atoms[0], PowerMap)
        assert inv.atoms[0].exponent == 0.5

    def test_round_trip_mixed_chain(self):
        h = CircleHomeo((MobiusMap([[2.0, 1.0], [1.0, 1.0]]), PowerMap(1.7)))
        inv = h.inverse()
        grid = np.arange(100) / 100
        worst = 0.0
        for theta in grid:
            x = ProjPoint.from_chart(theta)
            worst = max(worst, chordal(inv.apply(h.apply(x)), x))
        assert worst < 1e-9

    def test_orientation_preserved(self):
        h = CircleHomeo((PowerMap(2.0), MobiusMap([[0.0, 1.0], [1.0, 0.0]])))
        assert h.orientation == -1
        assert h.inverse().orientation == -1


_ROTATION = MobiusMap.rotation(0.1)


class TestSupDistance:
    def test_self_distance_zero(self):
        h = CircleHomeo.power(2.0)
        assert homeo_sup_distance(h, h, 64) == 0.0

    def test_translation_visible(self):
        trans = CircleHomeo.from_mobius(MobiusMap([[1.0, 1.0], [0.0, 1.0]]))
        assert homeo_sup_distance(CircleHomeo.identity(), trans, 64) > 0.1

    def test_power_one_is_identity(self):
        assert homeo_sup_distance(CircleHomeo.power(1.0), CircleHomeo.identity(), 64) == 0.0

    def test_symmetric(self):
        a = CircleHomeo.power(2.0)
        b = CircleHomeo.from_mobius(MobiusMap([[2.0, 1.0], [1.0, 1.0]]))
        assert homeo_sup_distance(a, b, 64) == homeo_sup_distance(b, a, 64)

    def test_grid_size_validated(self):
        with pytest.raises(ConfigError):
            homeo_sup_distance(CircleHomeo.identity(), CircleHomeo.identity(), 2)
        # a fractional size would lift the non-uniform grid arange(3.5) / 3.5
        with pytest.raises(ConfigError, match="grid_size"):
            homeo_sup_distance(CircleHomeo.identity(), CircleHomeo.identity(), 3.5)

    @pytest.mark.parametrize("grid_size", [16, 64])
    @pytest.mark.parametrize("route", ["fused", "generic"])
    def test_non_finite_image_raises(self, grid_size, route):
        # PowerMap(3000) underflows every pair off the axes to (0, 0); a nan
        # distance would pass every `>` threshold
        steep = CircleHomeo((PowerMap(3000.0),))
        rotation = CircleHomeo.from_mobius(_ROTATION)
        # the fused loop takes chains that end in one Mobius map
        pair = (rotation.compose(steep), rotation) if route == "fused" else (steep, CircleHomeo())
        assert math.isnan(serial_sup_distance(*pair, grid_size))
        # a bounded call may stop at the first separating sample, before any
        # nan image; the twist lift is refused where it is built instead
        other = CircleHomeo.identity() if route == "fused" else CircleHomeo((_ROTATION, PowerMap(2.0)))
        separated = (rotation.compose(steep), other) if route == "fused" else (steep, other)
        assert serial_sup_distance(*separated, 1) > 1e-3  # the sample j = 0 alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in (pair, separated):
                for bound in (math.inf, PlaneModel.uniq_tol):
                    with pytest.raises(PreconditionViolated):
                        homeo_sup_distance(a, b, grid_size, stop_above=bound)
                    with pytest.raises(PreconditionViolated):
                        homeo_sup_distance(b, a, grid_size, stop_above=bound)

    def test_mobius_image_that_rounds_to_zero_raises(self):
        # no normalized map sends a unit pair to (0, 0); a zero map built
        # around the constructor stands in for one on the fused loop
        zero = object.__new__(MobiusMap)
        for name in ("a", "b", "c", "d"):
            object.__setattr__(zero, name, 0.0)
        pair = CircleHomeo.from_mobius(zero), CircleHomeo.from_mobius(_ROTATION)
        assert math.isnan(serial_sup_distance(*pair, 16))
        with pytest.raises(PreconditionViolated):
            homeo_sup_distance(*pair, 16)

    def test_float_grid_has_the_array_grids_bits(self):
        for n in (3, 16, 256):
            assert np.array(_float_grid(n)).T.tobytes() == lift_chart(np.arange(n) / n).tobytes()

    def test_rejoin_circles_share_one_twist_lift(self):
        plane = parse_plane_spec("half:power:2")
        rng = rng_for(215)
        circle = plane.join(*random_triple(rng))
        while circle.tag != TAG_TWISTED:
            circle = plane.join(*random_triple(rng))
        p, q, r = (circle.point_at(ProjPoint.from_chart(t)) for t in (0.1, 0.4, 0.7))
        again = plane.join(r, p, q)
        (twist1, _), (twist2, _) = _split_twist(circle.graph), _split_twist(again.graph)
        assert twist1 == twist2 == plane.f.atoms
        _twist_lift.cache_clear()
        homeo_sup_distance(circle.graph, again.graph, 64)
        info = _twist_lift.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert _twist_lift(twist1, 64) is _twist_lift(twist2, 64)

    def test_twist_lift_cache_is_bounded(self):
        _twist_lift.cache_clear()
        for k in range(3 * TWIST_LIFTS):  # fresh atoms every call
            chain = CircleHomeo((PowerMap(1.0 + k / 64.0), _ROTATION))
            homeo_sup_distance(chain, CircleHomeo((PowerMap(2.0 + k / 64.0),)), 16)
            assert _twist_lift.cache_info().currsize <= TWIST_LIFTS
        assert _twist_lift.cache_info().currsize == TWIST_LIFTS

    def test_mobius_tails_take_the_fused_loop(self, monkeypatch):
        # once the twist lifts are cached, pairs of Mobius tails lift no
        # point through CircleHomeo.lift_h; a tail with g's atoms does
        plane = parse_plane_spec("half:power:2")
        rng = rng_for(216)
        graphs = [plane.join(*random_triple(rng)).graph for _ in range(6)]
        pairs = [(a, b) for a in graphs for b in graphs]
        g_plane = half_classical_plane(CircleHomeo.power(2.0), CircleHomeo.power(3.0))
        other = g_plane.join(*random_triple(rng))
        while other.tag != TAG_TWISTED:  # f's atoms, nu, then g's inverse
            other = g_plane.join(*random_triple(rng))
        other = other.graph
        for a, b in pairs + [(graphs[0], other)]:
            homeo_sup_distance(a, b, 64)

        def refuse(self, h):
            raise AssertionError("lifted point by point")

        monkeypatch.setattr(CircleHomeo, "lift_h", refuse)
        for a, b in pairs:
            homeo_sup_distance(a, b, 64)
        with pytest.raises(AssertionError, match="point by point"):
            homeo_sup_distance(graphs[0], other, 64)


def _sup_distance_pairs(rng):
    """Circle pairs on every route: rejoin, same-branch and mixed pairs per plane."""
    planes = {name: make(rng) for name, make in SEEDED_PLANES.items()}
    planes["g-power-3"] = half_classical_plane(CircleHomeo.power(2.0), CircleHomeo.power(3.0))
    pairs = []
    for name, plane in sorted(planes.items()):
        by_tag = {}
        for _ in range(12):
            p, q, r = random_triple(rng)
            circle = plane.join(p, q, r)
            by_tag.setdefault(circle.tag, []).append(circle.graph)
            pairs.append((circle.graph, plane.join(r, p, q).graph))  # a rejoin pair
        if name != "classical":
            assert sorted(by_tag) == sorted([TAG_PSL, TAG_TWISTED]), name
        graphs = [g for tag in sorted(by_tag) for g in by_tag[tag][:3]]
        pairs += [(a, b) for a in graphs for b in graphs if a is not b]
    return pairs


@pytest.mark.parametrize("grid_size", [3, 16, 64, 256])
def test_sup_distance_has_the_serial_float_bits(grid_size):
    # the fused loop and the generic tail against each point lifted by the whole chain
    for a, b in _sup_distance_pairs(rng_for(214)):
        assert homeo_sup_distance(a, b, grid_size) == serial_sup_distance(a, b, grid_size)


@pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
def test_sup_distance_matches_the_canonical_reference(name):
    rng = rng_for(211)
    plane = SEEDED_PLANES[name](rng)
    pairs = []
    for _ in range(12):
        p, q, r = random_triple(rng)
        circle = plane.join(p, q, r)
        pairs.append((circle.graph, plane.join(r, p, q).graph))  # a rejoin pair
        pairs.append((circle.graph, plane.join(*random_triple(rng)).graph))
    for a, b in pairs:
        for n in (3, 16, 64, 256):
            assert abs(homeo_sup_distance(a, b, n) - reference_sup_distance(a, b, n)) <= 1e-13


@pytest.mark.parametrize("grid_size", [16, 64])
def test_bound_never_changes_a_decision(grid_size):
    # a bounded call reads a prefix of the samples: it stops only above the bound
    for a, b in _sup_distance_pairs(rng_for(214)):
        full = homeo_sup_distance(a, b, grid_size)
        assert abs(full - reference_sup_distance(a, b, grid_size)) <= 1e-13
        for bound in (0.0, PlaneModel.uniq_tol, 1e-3, math.inf):
            bounded = homeo_sup_distance(a, b, grid_size, stop_above=bound)
            assert (bounded <= bound) == (full <= bound)
            assert (bounded == full) if full <= bound else (bound < bounded <= full)


def test_bound_reads_past_agreeing_early_samples():
    # the twist is the identity on charts [0, 1/2] and moves chart 3/4 by
    # 1e-6: the first 33 of 64 samples agree, later ones differ by more
    # than uniq_tol
    knots = [(ProjPoint.from_chart(x), ProjPoint.from_chart(y))
             for x, y in ((0.0, 0.0), (0.5, 0.5), (0.75, 0.75 + 1e-6))]
    near = CircleHomeo((MonotoneSpline(knots), _ROTATION))
    rotation = CircleHomeo.from_mobius(_ROTATION)
    tol = PlaneModel.uniq_tol
    samples = [ProjPoint.from_chart(j / 64) for j in range(64)]
    gaps = [chordal(near.apply(x), rotation.apply(x)) for x in samples]
    assert max(gaps[:33]) <= 1e-15 and max(gaps) > 10 * tol
    for a, b in ((near, rotation), (rotation, near)):
        assert homeo_sup_distance(a, b, 64) > tol
        assert homeo_sup_distance(a, b, 64, stop_above=tol) > tol


class TestComposition:
    def test_associativity_pointwise(self):
        rng = rng_for(201)
        a = CircleHomeo.from_mobius(random_pgl(rng))
        b = CircleHomeo.power(1.5)
        c = CircleHomeo.from_mobius(random_pgl(rng))
        left = a.compose(b).compose(c)  # apply c, then b, then a
        right = a.compose(b.compose(c))
        for _ in range(100):
            x = ProjPoint.from_chart(rng.random())
            assert chordal(left.apply(x), right.apply(x)) < 1e-12

    def test_orientation_is_product(self):
        rng = rng_for(202)
        for _ in range(50):
            atoms = []
            expected = 1
            for _ in range(int(rng.integers(1, 4))):
                m = random_pgl(rng)
                atoms.append(m)
                expected *= m.orientation
            h = CircleHomeo(tuple(atoms))
            assert h.orientation == expected

    def test_as_mobius_collapse(self):
        m1, m2 = MobiusMap([[2.0, 1.0], [1.0, 1.0]]), MobiusMap([[1.0, 1.0], [0.0, 1.0]])
        chain = CircleHomeo((m1, PowerMap(1.0), m2))
        collapsed = chain.as_mobius()
        assert collapsed is not None
        x = P(0.3)
        assert chordal(collapsed.apply(x), chain.apply(x)) < 1e-14
        assert CircleHomeo.power(2.0).as_mobius() is None


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.3, 3.0),
    st.integers(0, 2**31 - 1),
)
def test_monotonicity_audit_random_chains(exponent, seed):
    rng = rng_for(203, seed % 1000)
    chain = CircleHomeo((random_pgl(rng), PowerMap(exponent), random_pgl(rng)))
    chain.audit_monotone()  # must not raise for genuine homeomorphisms


@pytest.mark.parametrize("exponent", [9.0, 20.0, 50.0, 0.02, 0.002])
def test_audit_accepts_steep_powers(exponent):
    # near 0 and infinity consecutive images share a chart value in floating
    # point; their lifted pairs still advance
    CircleHomeo.power(exponent).audit_monotone()
    parse_plane_spec(f"half:power:{exponent!r}")


def test_audit_rejects_underflowing_power():
    # every lifted pair but the axes underflows to (0, 0); 0/0 steps must not pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MonotonicityError, match="cyclically ordered"):
            parse_plane_spec("half:power:1e300")


@pytest.mark.parametrize("exponent", [0.3, 2.0, 7.0])
def test_chain_action_is_batch_invariant(exponent):
    rng = rng_for(207, int(exponent * 10))
    for _ in range(2):
        chain = CircleHomeo((random_pgl(rng), PowerMap(exponent), random_pgl(rng)))
        h = rng.normal(size=(2, 512))
        assert_columns_match_batch(chain.apply_h, h)


@pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
def test_float_lift_agrees_with_the_array_lift(name):
    # the float lift of a chain, canonicalized, is the array reference action
    # of tests/helpers.py up to the last bits
    rng = rng_for(213, sorted(SEEDED_PLANES).index(name))
    plane = SEEDED_PLANES[name](rng)
    grid = lift_chart(np.arange(64) / 64)
    for _ in range(8):
        graph = plane.join(*random_triple(rng)).graph
        for chain in (graph, graph.inverse(), CircleHomeo(plane.f.atoms + graph.atoms)):
            want = canonical_chain_action(chain, grid)
            for k, h in enumerate(_float_grid(64)):
                h0, h1 = chain.lift_h(h)
                assert type(h0) is float and type(h1) is float
                got = normalize_h(np.array([h0, h1]))
                assert abs(got[0] - want[0, k]) <= 1e-13 and abs(got[1] - want[1, k]) <= 1e-13


def test_float_power_lift_keeps_numpys_signs():
    # sgn(-0.0) is +0.0 in numpy, so both zeros lift to +0.0, as the array
    # formula sgn(v) |v|^p of the reference action does
    power = PowerMap(2.0)
    for v in (0.0, -0.0, 0.5, -0.5):
        want = float(np.sign(v) * np.abs(np.float64(v)) ** power.exponent)
        assert power.lift_h((v, 1.0))[0].hex() == want.hex()
    assert math.isnan(power.lift_h((math.nan, 1.0))[0])


def test_apply_h_refuses_a_power_past_the_float_range():
    with pytest.raises(PreconditionViolated):
        CircleHomeo.power(3000.0).apply_h(np.array([[2.0, 0.5], [1.0, 1.0]]))


class _ClaimsPreserving(CircleHomeo):
    """A chain that declares orientation +1 whatever its atoms do."""

    __slots__ = ()
    orientation = 1


def test_audit_rejects_reversed_images():
    reversing = (MobiusMap([[-1.0, 0.0], [0.0, 1.0]]), PowerMap(3.0))
    CircleHomeo(reversing).audit_monotone()  # declared -1: anti-ordered is right
    with pytest.raises(MonotonicityError):
        _ClaimsPreserving(reversing).audit_monotone()


@pytest.mark.parametrize("seed", range(4))
def test_apply_is_the_canonicalized_float_lift(seed):
    # every atom has one action: apply is ProjPoint of its float lift, bit for bit
    rng = rng_for(209, seed)
    spline = spline_plane(rng).f.atoms[0]
    x1, x2, y1, y2 = (ProjPoint.from_chart(t) for t in rng.random(4))
    maps = [random_pgl(rng), TwoPointFamily(x1, x2, y1, y2).member(2.5),
            *(PowerMap(p) for p in (2.0, 1.0 / 3.0, 20.0, 0.05)), spline, spline.inverse()]
    knots = [k for pair in spline.knots for k in pair]
    charts = [math.nextafter(k.chart(), d) for k in knots for d in (-1.0, 2.0)]
    points = [ProjPoint.from_chart(t) for t in charts + rng.random(200).tolist()]
    points += knots + [P(0.0), INF, ProjPoint(-1e-18, 1.0)]
    for m in maps:
        for p in points:
            q, r = m.apply(p), ProjPoint(*m.lift_h((p.h0, p.h1)))
            assert (q.h0, q.h1) == (r.h0, r.h1)


class TestSpline:
    def _knots(self, pairs):
        return [(P(x), P(y)) for x, y in pairs]

    def test_identityish_spline(self):
        knots = self._knots([(-2, -2), (-0.5, -0.5), (0, 0), (0.5, 0.5), (2, 2)])
        knots.append((INF, INF))
        s = MonotoneSpline(knots)
        for x, y in [(-2, -2), (0.5, 0.5)]:
            assert chordal(s.apply(P(x)), P(y)) < 1e-12
        # interpolation stays monotone between knots
        CircleHomeo((s,)).audit_monotone()

    def test_inverse_by_swapped_knots(self):
        knots = self._knots([(-1, -3), (0, 0), (1, 0.5), (4, 2)]) + [(INF, INF)]
        s = MonotoneSpline(knots)
        inv = s.inverse()
        for theta in np.arange(50) / 50:
            x = ProjPoint.from_chart(theta)
            assert chordal(inv.apply(s.apply(x)), x) < 1e-9

    def test_inverse_is_built_once_and_inverts_back_to_the_spline(self):
        knots = self._knots([(-1, -3), (0, 0), (1, 0.5), (4, 2)]) + [(INF, INF)]
        s = MonotoneSpline(knots)
        inv = s.inverse()
        assert s.inverse() is inv and inv.inverse() is s
        fresh = MonotoneSpline([(y, x) for x, y in knots])
        assert (inv.knots, inv._tx, inv._ty) == (fresh.knots, fresh._tx, fresh._ty)
        assert [inv.lift_h(h) for h in _float_grid(64)] == [fresh.lift_h(h) for h in _float_grid(64)]

    def test_rejects_non_monotone(self):
        with pytest.raises(MonotonicityError):
            MonotoneSpline(self._knots([(0, 0), (1, 2), (2, 1), (3, 3)]) + [(INF, INF)])

    def test_rejects_duplicate_x(self):
        with pytest.raises(MonotonicityError):
            MonotoneSpline(self._knots([(0, 0), (0, 1), (2, 2)]))

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_apply_matches_eval_chart(self, seed):
        # apply is the float lift; the reference looks the chart table up on
        # arrays. Over seeds 0-199 of these points the gap was at most 2.3e-15
        rng = rng_for(208, seed)
        spline = spline_plane(rng).f.atoms[0]
        for s in (spline, spline.inverse()):
            knots = [x for x, _ in s.knots]
            near = [math.nextafter(x.chart(), d) for x in knots for d in (-1.0, 2.0)]
            points = [ProjPoint.from_chart(t) for t in near + rng.random(500).tolist()]
            points += knots + [P(0.0), INF, ProjPoint(-1e-18, 1.0)]
            want = spline_eval_chart(s, np.array([p.chart() for p in points])).tolist()
            for p, theta in zip(points, want):
                assert chordal(s.apply(p), ProjPoint.from_chart(theta)) <= 1e-14

    def test_knot_file_round_trip(self, tmp_path):
        path = tmp_path / "twist.knots"
        path.write_text(
            "# a data-driven twist\n"
            "-4 -5\n-1 -1.25\n0 0\n1 0.75\n4 5\ninf inf\n",
            encoding="utf-8",
        )
        s = load_spline_knots(path)
        assert chordal(s.apply(P(1.0)), P(0.75)) < 1e-12
        assert chordal(s.apply(INF), INF) < 1e-12
        CircleHomeo((s,)).audit_monotone()

    def test_knot_file_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.knots"
        path.write_text("0 0 0\n", encoding="utf-8")
        with pytest.raises(MonotonicityError):
            load_spline_knots(path)
        path.write_text("0 0\n1 2\n2 1\ninf inf\n", encoding="utf-8")
        with pytest.raises(MonotonicityError):
            load_spline_knots(path)


# ----------------------------------------------------------------------
# regula falsi on float brackets


def _float_fn(kind, r):
    """Float test functions with a crossing, a zero run or a gap at r."""
    if kind == "linear":
        return lambda x: x - r
    if kind == "cubic":
        return lambda x: (x - r) * (x - r) * (x - r) - 1e-3 * (x - r)
    if kind == "steps":  # exactly zero on [r, r + 1/4)
        return lambda x: float(math.floor(4.0 * (x - r)))
    # not finite within 1e-6 of r, like the near-gap function at its pole
    return lambda x: math.nan if abs(x - r) < 1e-6 else x - r


def _refine_counted(fn, bracket):
    """regula_falsi of one bracket: (root, value, float calls)."""
    calls = []

    def counted(x):
        assert type(x) is float
        calls.append(x)
        return fn(x)

    (root, value), = regula_falsi(counted, [bracket])
    assert root in calls or root in bracket[:2]
    return root, value, len(calls)


def _assert_stops_by_the_rule(fn, bracket, root, value, calls):
    """A zero, a non-finite value, the step cap, or an end of a bracket at most BISECT_TOL wide."""
    lo, hi, _, _ = bracket
    assert lo <= root <= hi and 1 <= calls <= _BISECT_STEPS
    assert repr(value) == repr(fn(root))
    if value == 0.0 or not math.isfinite(value) or calls == _BISECT_STEPS:
        return
    # the other end of that bracket is in the other sign class
    near = [min(max(root + d, lo), hi) for d in (-BISECT_TOL, BISECT_TOL)]
    assert {fn(t) < 0.0 for t in near} == {True, False}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["linear", "cubic", "steps", "gap"]),
    where=st.floats(0.01, 0.99),
    spans=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)), min_size=1, max_size=4),
)
def test_regula_falsi_stops_by_its_rule(kind, where, spans):
    # each bracket holds the function's feature at `where` of its width
    for lo, width in spans:
        hi = lo + width
        fn = _float_fn(kind, lo + where * width)
        if (fn(lo) < 0.0) == (fn(hi) < 0.0):  # the feature rounded onto an end
            continue
        bracket = (lo, hi, fn(lo), fn(hi))
        _assert_stops_by_the_rule(fn, bracket, *_refine_counted(fn, bracket))


def test_regula_falsi_closes_on_an_end_at_the_crossing():
    # the crossing 0.3 + 1e-17 rounds to 0.3, so the secant point of the
    # bracket is its lower end; the point half of BISECT_TOL inside crosses
    # and closes the bracket, where bisection would halve it 37 times
    def fn(x):
        return x - 0.3 - 1e-17

    assert fn(0.3) == -1e-17
    assert _refine_counted(fn, (0.3, 1.3, fn(0.3), fn(1.3))) == (0.3, -1e-17, 1)


def test_regula_falsi_edge_cases():
    def fn(x):
        # one float function, six regions
        if x < 10.0:
            return x - 1.25  # the first secant point of [1, 2] is its zero
        if x < 50.0:
            return _float_fn("gap", 20.3)(x)  # a non-finite band
        if x < 100.0:
            return 70.0 - x  # a zero at the lower end of [70, 71]
        if x < 1e3:
            return x - 501.0  # a zero at the upper end of [500, 501]
        if x < 1e5:
            return (x - 6666.0) ** 3 - 0.3  # a root refined to BISECT_TOL
        return _float_fn("cubic", 1e6 + 0.4)(x)  # floats too coarse for BISECT_TOL

    brackets = [(lo, hi, fn(lo), fn(hi)) for lo, hi in
                ((1.0, 2.0), (20.0, 21.0), (70.0, 71.0), (500.0, 501.0), (6666.0, 6667.0),
                 (1e6, 1e6 + 1.0))]
    got = [_refine_counted(fn, bracket) for bracket in brackets]
    for bracket, out in zip(brackets, got):
        _assert_stops_by_the_rule(fn, bracket, *out)
    zero, gap, low, high, near, cap = got
    assert zero == (1.25, 0.0, 1)
    assert abs(gap[0] - 20.3) < 1e-6 and math.isnan(gap[1]) and gap[2] == 1
    # an end at a zero is returned after one step half of BISECT_TOL inside
    assert low == (70.0, 0.0, 1) and high == (501.0, 0.0, 1)
    assert near[1] != 0.0 and near[2] < 12
    assert abs(near[0] - (6666.0 + 0.3 ** (1.0 / 3.0))) <= BISECT_TOL
    assert cap[2] == _BISECT_STEPS
    # several brackets in one call give what each gives alone, in order
    assert repr(regula_falsi(fn, brackets)) == repr([(root, value) for root, value, _ in got])
    assert regula_falsi(fn, []) == []
