import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_planes import (
    CoincidentPoints,
    IdentityMap,
    MobiusMap,
    PreconditionViolated,
    ProjPoint,
    TwoPointFamily,
    chordal,
    mobius_fixed_points,
    mobius_from_three,
    proj_matrix_equal,
)
from torus_planes.projline import EQUALITY_TOL, FrameMember

from helpers import (
    assert_columns_match_batch,
    chart_h,
    composed_frame_from_three,
    cross_ratio_to_standard,
    h_from_chart,
    normalize_h,
    random_pgl,
    random_proj_point,
    random_separated_points,
    rng_for,
)

P = ProjPoint.from_real
INF = ProjPoint.infinity()


class TestProjPoint:
    def test_canonical_invariants(self):
        p = ProjPoint(3.0, -4.0)
        assert math.isclose(p.h0 * p.h0 + p.h1 * p.h1, 1.0, rel_tol=1e-15)
        assert p.h1 > 0.0
        assert math.isclose(p.value(), -0.75, rel_tol=1e-15)

    def test_infinity_representation(self):
        assert INF.h0 == 1.0 and INF.h1 == 0.0
        assert P(math.inf).value() == math.inf
        assert ProjPoint(-5.0, 0.0).h0 == 1.0

    def test_zero_pair_rejected(self):
        with pytest.raises(PreconditionViolated):
            ProjPoint(0.0, 0.0)

    @given(
        st.floats(-1e12, 1e12).filter(lambda v: abs(v) > 1e-9),
        st.floats(-1e12, 1e12),
    )
    @settings(max_examples=80, deadline=None)
    def test_canonicalization_idempotent_bitwise(self, h0, h1):
        p = ProjPoint(h0, h1)
        again = ProjPoint(p.h0, p.h1)
        assert (again.h0, again.h1) == (p.h0, p.h1)

    def test_chart_round_trip(self):
        for theta in np.arange(64) / 64:
            p = ProjPoint.from_chart(theta)
            assert abs(p.chart() - theta) < 1e-12

    def test_chart_landmarks(self):
        assert P(0.0).chart() == 0.0
        assert abs(P(1.0).chart() - 0.25) < 1e-15
        assert abs(INF.chart() - 0.5) < 1e-15
        assert abs(P(-1.0).chart() - 0.75) < 1e-15

    def test_chordal_seam_safe(self):
        big = P(1e12)
        assert chordal(big, INF) < 1e-11
        assert chordal(P(-1e12), INF) < 1e-11

    def test_vectorized_normalize_matches_scalar(self):
        h = np.array([[3.0, -1.0, 0.0], [-4.0, 0.0, 2.0]])
        out = normalize_h(h)
        for k in range(3):
            p = ProjPoint(h[0, k], h[1, k])
            assert out[0, k] == p.h0 and out[1, k] == p.h1
        assert np.allclose(chart_h(h_from_chart(np.array([0.1, 0.7]))), [0.1, 0.7])


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e-12, 0.0, exclude_max=True), st.floats(0.5, 2.0))
def test_chart_stays_below_one(h0, h1):
    # a tiny negative angle rounds to 1.0 under % 1.0; the chart is [0, 1)
    p = ProjPoint(h0, h1)
    assert 0.0 <= p.chart() < 1.0
    theta = chart_h(np.array([[h0, p.h0], [h1, p.h1]]))
    assert np.all((theta >= 0.0) & (theta < 1.0))
    assert theta[1] == p.chart()


class TestMobiusApply:
    def test_identity(self):
        assert MobiusMap.identity().apply(P(5.0)).value() == 5.0

    def test_zero_to_infinity(self):
        m = MobiusMap([[0.0, -1.0], [1.0, 0.0]])
        assert m.apply(P(0.0)).value() == math.inf

    def test_direct_evaluation(self):
        m = MobiusMap([[2.0, 1.0], [1.0, 1.0]])
        assert math.isclose(m.apply(P(1.0)).value(), 1.5, rel_tol=1e-15)

    def test_group_action_property(self):
        rng = rng_for(101)
        for _ in range(1000):
            m1, m2 = random_pgl(rng), random_pgl(rng)
            x = random_proj_point(rng)
            lhs = m1.compose(m2).apply(x)
            rhs = m1.apply(m2.apply(x))
            assert chordal(lhs, rhs) < 1e-12

    def test_orientation_multiplicative_exact(self):
        rng = rng_for(102)
        for _ in range(400):
            m1, m2 = random_pgl(rng), random_pgl(rng)
            assert m1.compose(m2).orientation == m1.orientation * m2.orientation

    def test_normalization(self):
        m = MobiusMap([[10.0, 0.0], [0.0, 10.0]])
        assert m.is_identity()
        assert abs(abs(np.linalg.det(m.m)) - 1.0) < 1e-14
        assert m.m.flat[np.abs(m.m).argmax()] > 0.0


def reference_entries(m):
    """The canonical entries as the numpy constructor computed them."""
    m = np.array(m, dtype=float).reshape(2, 2)
    m = m / math.sqrt(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    if m.flat[np.abs(m).argmax()] < 0.0:
        m = -m
    return tuple((m + 0.0).ravel().tolist())


class TestMobiusContract:
    # ties of largest magnitude: the first in row-major order sets the sign;
    # negative zeros fold to +0.0
    EDGES = [(0.0, -1.0, 1.0, 0.0), (0.0, 1.0, -1.0, 0.0), (-1.0, 1.0, -1.0, -1.0),
             (2.0, 0.0, 0.0, -2.0), (-3.0, 0.0, -0.0, 1.0), (2.0, -0.0, -0.0, 1.0)]

    def test_inputs_agree_with_the_numpy_construction(self):
        rng = rng_for(105)
        rows = [tuple(r) for r in rng.normal(size=(200, 4)).tolist()] + self.EDGES
        for a, b, c, d in rows:
            maps = [MobiusMap([[a, b], [c, d]]), MobiusMap((a, b, c, d)),
                    MobiusMap([a, b, c, d]), MobiusMap(np.array([[a, b], [c, d]])),
                    MobiusMap(np.array([a, b, c, d])),
                    MobiusMap(tuple(np.float64(v) for v in (a, b, c, d))),
                    MobiusMap(tuple(repr(v) for v in (a, b, c, d)))]
            want = [v.hex() for v in reference_entries([a, b, c, d])]
            for m in maps:
                assert [v.hex() for v in (m.a, m.b, m.c, m.d)] == want
                assert all(type(v) is float for v in (m.a, m.b, m.c, m.d))
                assert m.orientation == (1 if a * d - b * c > 0.0 else -1)
                assert m.m.tolist() == [[m.a, m.b], [m.c, m.d]]

    def test_named_constructors_match_the_nested_form(self):
        def entries(m):
            return m.a, m.b, m.c, m.d

        for t, b in ((2.0, 1.0), (-0.5, 3.0), (1e-3, -7.0)):
            assert entries(MobiusMap.affine(t, b)) == entries(MobiusMap([[t, b], [0.0, 1.0]]))
            assert entries(MobiusMap.scaling(t)) == entries(MobiusMap([[t, 0.0], [0.0, 1.0]]))
        c, s = math.cos(0.3 * math.pi), math.sin(0.3 * math.pi)
        assert entries(MobiusMap.rotation(0.3)) == entries(MobiusMap([[c, s], [-s, c]]))

    def test_immutable(self):
        m = MobiusMap.rotation(0.3)
        for name in ("a", "b", "c", "d", "orientation", "m"):
            with pytest.raises(AttributeError):
                setattr(m, name, 1.0)

    @pytest.mark.parametrize("entries", [
        (1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0), (1e-130, 0.0, 1e-130, 0.0),
        (math.nan, 0.0, 0.0, 1.0), (math.inf, 0.0, 0.0, 1.0), (1e200, 1e200, 1e200, 1e200),
    ])
    def test_singular_or_non_finite_rejected(self, entries):
        a, b, c, d = entries
        for m in ((a, b, c, d), [[a, b], [c, d]], np.array(entries)):
            with pytest.raises(PreconditionViolated):
                MobiusMap(m)

    @pytest.mark.parametrize("entries, scaled", [
        ((2e200, 1e200, 1e200, 1e200), (2.0, 1.0, 1.0, 1.0)),
        ((1e200, 1e200, -1e200, 1e200), (1.0, 1.0, -1.0, 1.0)),
        ((1e-130, 0.0, 0.0, 1e-130), (1.0, 0.0, 0.0, 1.0)),
    ])
    def test_regular_maps_at_extreme_scales_accepted(self, entries, scaled):
        # a * d - b * c overflows, or falls below the floor, at this scale;
        # the map is still the one of the scaled entries
        a, b, c, d = entries
        want = MobiusMap(scaled)
        for m in ((a, b, c, d), [[a, b], [c, d]], np.array(entries)):
            got = MobiusMap(m)
            assert proj_matrix_equal(got, want, 1e-15)
            assert got.orientation == want.orientation

    def test_maps_whose_images_overflow_rejected(self):
        # det 1, but the image of a unit pair near (1, 1) overflows
        with pytest.raises(PreconditionViolated, match="overflow"):
            MobiusMap((1.5e308, 1.5e308, -1 / 1.5e308, 0.0))
        with pytest.raises(PreconditionViolated, match="overflow"):
            MobiusMap((math.nextafter(2.0**1022, math.inf), 0.0, 0.0, 2.0**-1022))

    def test_map_at_the_entry_bound_has_finite_images(self):
        m = MobiusMap((2.0**1022, 2.0**1022, -(2.0**-1022), 0.0))
        assert (m.a, m.b, m.c, m.d) == (2.0**1022, 2.0**1022, -(2.0**-1022), 0.0)
        for theta in np.arange(64) / 64:
            p = ProjPoint.from_chart(theta)
            h0, h1 = m.lift_h((p.h0, p.h1))
            assert math.isfinite(math.hypot(h0, h1)) and (h0, h1) != (0.0, 0.0)

    @pytest.mark.parametrize("m", [
        [1, 2, 3], "abcd", [[1, 2], [3]], ("a", "b", "c", "d"), None, [1, 2],
        [[1, 2, 3], [4, 5, 6]], np.zeros((2, 3)),
    ], ids=repr)
    def test_malformed_input_rejected(self, m):
        with pytest.raises(PreconditionViolated):
            MobiusMap(m)


def test_mobius_action_is_batch_invariant():
    rng = rng_for(106)
    for _ in range(6):
        m = random_pgl(rng)
        h = rng.normal(size=(2, 512)) * 10.0 ** rng.uniform(-3.0, 3.0, 512)
        assert_columns_match_batch(lambda h: np.asarray(m.lift_h(h)), h)


def test_float_pair_action_is_a_column_of_the_batch_action():
    # one lift_h for floats and arrays: a float pair gives Python floats with
    # the bits of its column in the batch, for plain maps and frame members
    rng = rng_for(107)
    maps = [random_pgl(rng) for _ in range(4)]
    for _ in range(6):
        (x1, y1), (x2, y2) = random_separated_points(rng, 2), random_separated_points(rng, 2)
        fam = TwoPointFamily(x1, x2, y1, y2)
        maps += [fam.member(10.0 ** rng.uniform(-4.0, 4.0), sign) for sign in (1, -1)]
    assert {m.orientation for m in maps if isinstance(m, FrameMember)} == {1, -1}
    h = rng.normal(size=(2, 256)) * 10.0 ** rng.uniform(-3.0, 3.0, 256)
    for m in maps:
        batch = np.asarray(m.lift_h(h))
        for k, (h0, h1) in enumerate(h.T.tolist()):
            got = m.lift_h((h0, h1))
            assert type(got) is tuple and [type(v) for v in got] == [float, float]
            assert np.array(got).tobytes() == batch[:, k].tobytes()


class TestFromThree:
    def test_identity_case(self):
        m = mobius_from_three(P(0), P(1), INF, P(0), P(1), INF)
        assert proj_matrix_equal(m, MobiusMap.identity(), 1e-12)

    def test_inversion_case(self):
        m = mobius_from_three(P(0), P(1), INF, INF, P(1), P(0))
        assert proj_matrix_equal(m, MobiusMap([[0.0, 1.0], [1.0, 0.0]]), 1e-12)

    def test_cross_ratio_oracle(self):
        # expected map (0,1,inf) -> (1,2,3) frozen from the elementary
        # cross-ratio chain: x -> (3x + 1) / (x + 1)
        m = mobius_from_three(P(0), P(1), INF, P(1), P(2), P(3))
        assert proj_matrix_equal(m, MobiusMap([[3.0, 1.0], [1.0, 1.0]]), 1e-12)
        s_x = cross_ratio_to_standard(0.0, 1.0, math.inf)
        s_y = cross_ratio_to_standard(1.0, 2.0, 3.0)
        for x in (-3.0, -1.0, -0.5, 0.3, 0.7, 2.0, 4.0, 7.0, 11.0, math.inf):
            cr_in = s_x(x)
            cr_out = s_y(m.apply(P(x)).value())
            assert math.isclose(cr_in, cr_out, rel_tol=1e-9, abs_tol=1e-9)

    def test_round_trip_random(self):
        rng = rng_for(103)
        for _ in range(300):
            xs = [random_proj_point(rng) for _ in range(3)]
            ys = [random_proj_point(rng) for _ in range(3)]
            ok = all(
                chordal(a, b) > 1e-3
                for pts in (xs, ys)
                for i, a in enumerate(pts)
                for b in pts[i + 1:]
            )
            if not ok:
                continue
            m = mobius_from_three(*xs, *ys)
            for x, y in zip(xs, ys):
                assert chordal(m.apply(x), y) < 1e-10
            # projective agreement with the composed-frame construction,
            # relative to the largest entry (entries reach the hundreds)
            ref = composed_frame_from_three(*xs, *ys)
            scale = max(abs(ref.a), abs(ref.b), abs(ref.c), abs(ref.d))
            assert proj_matrix_equal(m, ref, 1e-12 * scale)

    def test_equal_triples_give_exact_identity(self):
        rng = rng_for(105)
        for _ in range(300):
            xs = random_separated_points(rng, 3)
            m = mobius_from_three(*xs, *xs)
            assert (m.b, m.c, m.orientation) == (0.0, 0.0, 1) and m.a == m.d

    def test_uniqueness_projective(self):
        rng = rng_for(104)
        for _ in range(100):
            xs = [ProjPoint.from_chart(t) for t in sorted(rng.random(3))]
            ys = [ProjPoint.from_chart(t) for t in sorted(rng.random(3))]
            if any(chordal(a, b) < 1e-2 for p in (xs, ys) for a in p for b in p if a is not b):
                continue
            m1 = mobius_from_three(*xs, *ys)
            # same data, permuted consistently: same projective solution
            m2 = mobius_from_three(xs[1], xs[2], xs[0], ys[1], ys[2], ys[0])
            assert proj_matrix_equal(m1, m2, 1e-10)

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPoints):
            mobius_from_three(P(0), P(0), INF, P(1), P(2), P(3))
        with pytest.raises(CoincidentPoints):
            mobius_from_three(P(0), P(1), INF, P(1), P(1 + 1e-12), P(3))


class TestTwoPairs:
    def test_scaling_family(self):
        fam = TwoPointFamily(P(0), P(0), INF, INF)
        for t in (0.25, 1.0, 4.0):
            m = fam.member(t)
            assert chordal(m.apply(P(0)), P(0)) < 1e-14
            assert chordal(m.apply(INF), INF) < 1e-14
            # members fixing 0 and infinity are scalings x -> c x
            c = m.apply(P(1)).value()
            assert math.isclose(m.apply(P(3)).value(), 3 * c, rel_tol=1e-12)

    def test_exchange_family(self):
        fam = TwoPointFamily(P(0), INF, INF, P(0))
        for t in (0.5, 1.0, 2.0):
            m = fam.member(t)
            # x -> c / x for some c > 0
            c = m.apply(P(1)).value()
            assert math.isclose(m.apply(P(2)).value(), c / 2, rel_tol=1e-12)

    def test_against_from_three_grid(self):
        fam = TwoPointFamily(P(0), P(1), INF, P(2))
        for t in np.geomspace(0.1, 10.0, 7):
            m = fam.member(t)
            assert chordal(m.apply(P(0)), P(1)) < 1e-12
            assert chordal(m.apply(INF), P(2)) < 1e-12
            for w in (-2.0, 0.5, 3.0):
                image = m.apply(P(w))
                if min(chordal(image, P(1)), chordal(image, P(2))) < 1e-6:
                    continue
                oracle = mobius_from_three(P(0), INF, P(w), P(1), P(2), image)
                assert proj_matrix_equal(m, oracle, 1e-9)

    def test_selector_orientation(self):
        fam = TwoPointFamily(P(0), P(1), INF, P(2))
        for t in (0.3, 1.0, 5.0):
            assert fam.member(t, 1).orientation == 1
            assert fam.member(t, orientation=-1).orientation == -1
            m = fam.member(t, orientation=-1)
            assert chordal(m.apply(P(0)), P(1)) < 1e-12
            assert chordal(m.apply(INF), P(2)) < 1e-12

    def test_member_of_a_numpy_parameter_stores_floats(self):
        m = TwoPointFamily(P(0), P(1), INF, P(2)).member(np.float64(3.0))
        assert all(type(v) is float for v in (m.a, m.b, m.c, m.d))

    def test_far_members_have_the_chosen_orientation_or_raise(self):
        # past ~1e15 either way the product post . diag(t, 1) . pre is rank
        # one in floats; its determinant is rounding noise of either sign
        rng = rng_for(107)
        raised = 0
        for _ in range(100):
            x = rng.normal(size=4)
            fam = TwoPointFamily(P(x[0]), P(x[1]), P(x[2]), P(x[3]))
            for t in (1e-20, 1e-8, 1e8, 1e17, 1e200):
                for sign in (1, -1):
                    try:
                        assert fam.member(t, sign).orientation == sign
                    except PreconditionViolated:
                        assert t not in (1e-8, 1e8)
                        raised += 1
        assert raised > 0

    def test_frame_members_map_both_anchors_exactly(self):
        # the member's action keeps its two terms apart, so each anchor's
        # image is its target up to the rounding of one product
        rng = rng_for(108)
        for _ in range(100):
            (x1, y1), (x2, y2) = random_separated_points(rng, 2), random_separated_points(rng, 2)
            fam = TwoPointFamily(x1, x2, y1, y2)
            for t in (1e-8, 1.0, 1e8):
                for sign in (1, -1):
                    m = fam.member(t, sign)
                    assert m.orientation == sign
                    for src, dst in ((x1, x2), (y1, y2)):
                        assert chordal(m.apply(src), dst) <= 1e-15
                        lifted = m.lift_h(np.array([src.h0, src.h1]))
                        assert chordal(ProjPoint(*lifted), dst) <= 1e-15

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPoints):
            TwoPointFamily(P(0), P(1), P(0), P(2))
        with pytest.raises(CoincidentPoints):
            TwoPointFamily(P(0), P(1), INF, P(1))

    def test_slotted_subclasses_keep_their_fields(self):
        # `__slots__ = ()` is the usual way to subclass a slotted class
        class Family(TwoPointFamily):
            __slots__ = ()

        class Member(FrameMember):
            __slots__ = ()

        want = TwoPointFamily(P(0), P(1), INF, P(2)).member(3.0)
        got = Family(P(0), P(1), INF, P(2)).member(3.0)
        member = Member(want.lam, want.xp, want.xq, want.yp, want.yq)
        for m in (got, member):
            image, want_image = m.apply(P(5)), want.apply(P(5))
            assert m.lam == want.lam and (image.h0, image.h1) == (want_image.h0, want_image.h1)


class TestFixedPoints:
    def test_parabolic_translation(self):
        pts = mobius_fixed_points(MobiusMap([[1.0, 1.0], [0.0, 1.0]]))
        assert len(pts) == 1 and pts[0].value() == math.inf

    def test_hyperbolic_scaling(self):
        pts = mobius_fixed_points(MobiusMap([[2.0, 0.0], [0.0, 0.5]]))
        values = sorted(p.value() for p in pts)
        assert values == [0.0, math.inf]

    def test_elliptic_rotation(self):
        assert mobius_fixed_points(MobiusMap([[0.0, -1.0], [1.0, 0.0]])) == []

    def test_generic_two_fixed(self):
        m = MobiusMap([[2.0, 1.0], [1.0, 1.0]])
        for p in mobius_fixed_points(m):
            assert chordal(m.apply(p), p) < 1e-12

    def test_identity_rejected(self):
        with pytest.raises(IdentityMap):
            mobius_fixed_points(MobiusMap.identity())


def test_identity_band_moves_no_point_past_twice_equality():
    # det-1 maps with |b|, |c|, |a - d| at most EQUALITY_TOL, half of them at
    # the corners of the band, move 64 random points each by at most 2 t (the
    # docstring derives 1.5 t)
    rng, t = rng_for(410), EQUALITY_TOL
    for k in range(200):
        if k % 2:
            b, c, delta = rng.uniform(-t, t, 3)
        else:
            b, c, delta = rng.choice([-t, t], 3) * (1.0 - 1e-6)
        s = math.sqrt(1.0 + b * c + 0.25 * delta * delta)
        m = MobiusMap((s + 0.5 * delta, b, c, s - 0.5 * delta))
        assert m.is_identity()
        for theta in rng.random(64):
            p = ProjPoint.from_chart(theta)
            assert chordal(m.apply(p), p) <= 2.0 * t
