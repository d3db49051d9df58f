import math
import sys

import pytest

from torus_planes import (
    Case3Element,
    CircleHomeo,
    ConfigError,
    DiagonalPSL,
    FamilyMismatch,
    IdentityMap,
    KernelMinusPSL,
    KernelPlusPSL,
    MobiusMap,
    MonotoneSpline,
    PhiStd,
    PhiTwoFixed,
    PreconditionViolated,
    ProjPoint,
    TorusPoint,
    chordal,
    classical_plane,
    diagonal_transitivity_witness,
    group_literal,
    half_classical_plane,
    homeo_sup_distance,
    induced_factor_action,
    mobius_fixed_points,
    parse_group_literal,
    torus_dist,
)
from torus_planes.groups import family_key_of, family_sample, fixed_coordinates
from torus_planes.projline import EQUALITY_TOL

from helpers import random_proj_point, random_psl, random_triple, rng_for

P = ProjPoint.from_real
pt = TorusPoint.from_reals
INF = math.inf


def _random_element(family, rng):
    if family == "kplus":
        return KernelPlusPSL(random_psl(rng))
    if family == "kminus":
        return KernelMinusPSL(random_psl(rng))
    if family == "diag":
        return DiagonalPSL(random_psl(rng))
    if family == "phi":
        return PhiStd(2.0, rng.uniform(0.3, 3.0), rng.normal(), rng.normal())
    if family == "phi-inf":
        return PhiStd(math.inf, rng.uniform(0.3, 3.0), rng.normal(), rng.normal())
    if family == "phi2":
        return PhiTwoFixed(
            -1.0, rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), rng.normal()
        )
    if family == "phi2-zero":
        return PhiTwoFixed(
            0.0, rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), rng.normal()
        )
    if family == "case3":
        return Case3Element(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 3.0), rng.normal())
    raise ValueError(family)


FAMILIES = ("kplus", "kminus", "diag", "phi", "phi-inf", "phi2", "phi2-zero")


class TestAct:
    def test_phi_two_fixed_formula(self):
        out = PhiTwoFixed(-1, 1, 2, 0).act(pt(4, 3))
        assert math.isclose(out.x.value(), 16.0, rel_tol=1e-12)
        assert math.isclose(out.y.value(), 1.5, rel_tol=1e-12)

    def test_phi_two_fixed_fixes_both_parallel_points(self):
        rng = rng_for(401)
        for _ in range(20):
            g = _random_element("phi2", rng)
            for fixed in (pt(INF, INF), pt(0, INF)):
                image = g.act(fixed)
                assert torus_dist(image, fixed) < 1e-12

    def test_phi_std_infinite_exponent(self):
        g = PhiStd(math.inf, 2.0, 3.0, 1.0)
        out = g.act(pt(4, 5))
        assert math.isclose(out.x.value(), 7.0, rel_tol=1e-12)
        assert math.isclose(out.y.value(), 11.0, rel_tol=1e-12)
        assert torus_dist(g.act(pt(INF, INF)), pt(INF, INF)) < 1e-12

    def test_diagonal_fixes_diagonal_setwise(self):
        rng = rng_for(402)
        for _ in range(20):
            g = DiagonalPSL(random_psl(rng))
            x = random_proj_point(rng)
            image = g.act(TorusPoint(x, x))
            assert chordal(image.x, image.y) < 1e-12

    def test_kernel_sides(self):
        mu = MobiusMap([[2.0, 1.0], [1.0, 1.0]])
        p = pt(3, 4)
        up = KernelPlusPSL(mu).act(p)
        assert up.x.value() == 3.0 and up.y.value() != 4.0
        um = KernelMinusPSL(mu).act(p)
        assert um.y.value() == 4.0 and um.x.value() != 3.0

    def test_psl_families_require_positive_det(self):
        with pytest.raises(ConfigError):
            DiagonalPSL(MobiusMap([[0.0, 1.0], [1.0, 0.0]]))


def _factor_image(g, p):
    """p moved by g's factor maps: g.act(p) for the families with a point action."""
    hx, hy = g.factor_homeos()
    return TorusPoint(hx.apply(p.x), hy.apply(p.y))


class TestCompose:
    def test_identity_neutral_everywhere(self):
        rng = rng_for(403)
        for family in (*FAMILIES, "case3"):
            g = _random_element(family, rng)
            e = type(g).identity(*g.params()[:type(g).key_arity])
            assert e.compose(g).__class__ is g.__class__
            p = pt(0.7, -1.3)
            assert torus_dist(_factor_image(e, p), p) == 0.0
            assert torus_dist(_factor_image(e.compose(g), p), _factor_image(g, p)) < 1e-12
            assert torus_dist(_factor_image(g.compose(e), p), _factor_image(g, p)) < 1e-12

    def test_phi_std_example_with_pointwise_oracle(self):
        comp = PhiStd(2, 2, 0, 0).compose(PhiStd(2, 1, 1, 0))
        assert (comp.a, comp.b, comp.c) == (2.0, 2.0, 0.0)
        rng = rng_for(404)
        for _ in range(20):
            p = pt(rng.normal(), rng.normal())
            direct = PhiStd(2, 2, 0, 0).act(PhiStd(2, 1, 1, 0).act(p))
            assert torus_dist(comp.act(p), direct) < 1e-12

    def test_phi_two_fixed_example_with_pointwise_oracle(self):
        # frozen from the double-application oracle: applying (3,1,5) then
        # (1,2,0) sends x to 9 sgn(x) x^2 and y to y/2 + 2.5
        g1 = PhiTwoFixed(-1, 1, 2, 0)
        g2 = PhiTwoFixed(-1, 3, 1, 5)
        comp = g1.compose(g2)
        assert (comp.a, comp.b, comp.c) == (9.0, 2.0, 2.5)
        rng = rng_for(405)
        for _ in range(20):
            p = pt(rng.normal() or 0.5, rng.normal())
            direct = g1.act(g2.act(p))
            assert torus_dist(comp.act(p), direct) < 1e-12

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatch):
            PhiStd(2, 1, 0, 0).compose(PhiStd(3, 1, 0, 0))
        with pytest.raises(FamilyMismatch):
            PhiTwoFixed(0, 1, 1, 0).compose(PhiTwoFixed(-1, 1, 1, 0))
        with pytest.raises(FamilyMismatch):
            KernelPlusPSL.identity().compose(KernelMinusPSL.identity())
        with pytest.raises(FamilyMismatch):
            PhiStd(2, 1, 0, 0).compose(3.0)
        with pytest.raises(FamilyMismatch, match=r"^cannot compose PhiStd\(d=inf, .* with PhiStd\(d=2, "):
            PhiStd(INF, 2, 1, 1).compose(PhiStd(2, 2, 1, 1))
        with pytest.raises(FamilyMismatch, match=r"^cannot compose Case3Element\(.* with DiagonalPSL\("):
            Case3Element(0.3, 2, 1).compose(DiagonalPSL.identity())

    def test_reprs(self):
        assert repr(PhiStd(INF, 2, 1, 1)) == "PhiStd(d=inf, a=2, b=1, c=1)"
        assert repr(PhiTwoFixed(-1, 0.5, 3, -2)) == "PhiTwoFixed(d=-1, a=0.5, b=3, c=-2)"
        assert repr(Case3Element(0.3, 2, 1)) == "Case3Element(angle=0.3, a=2, b=1)"
        assert repr(KernelPlusPSL(MobiusMap((2, 1, 1, 1)))) == (
            "KernelPlusPSL(MobiusMap([[2, 1], [1, 1]]))"
        )

    def test_group_laws_all_families(self):
        rng = rng_for(406)
        probes = [pt(rng.normal(), rng.normal()) for _ in range(5)]
        for family in FAMILIES:
            for _ in range(20):
                a, b, c = (_random_element(family, rng) for _ in range(3))
                ab_c = a.compose(b).compose(c)
                a_bc = a.compose(b.compose(c))
                inv = a.inverse()
                for p in probes:
                    assert torus_dist(ab_c.act(p), a_bc and a_bc.act(p)) < 1e-10
                    assert torus_dist(a.compose(b).act(p), a.act(b.act(p))) < 1e-10
                    assert torus_dist(a.compose(inv).act(p), p) < 1e-10


class TestInducedActions:
    def test_kernel_plus_trivial_on_plus(self):
        _, report = induced_factor_action(KernelPlusPSL(MobiusMap([[2, 1], [1, 1]])), "plus")
        assert report.action_kind == "trivial"
        assert report.fixes_every_class

    def test_phi_scaling_fixed_classes(self):
        hmap, report = induced_factor_action(PhiStd(3, 2, 0, 0), "plus")
        assert report.action_kind == "L2-on-line"
        assert math.isclose(hmap.apply(P(1.0)).value(), 2.0, rel_tol=1e-12)
        values = sorted(c.coordinate.value() for c in report.fixed_classes)
        assert values == [0.0, INF]

    def test_phi2_minus_side_derived_example(self):
        # y -> y/2 + 1 fixes y = 2 and infinity
        hmap, report = induced_factor_action(PhiTwoFixed(-1, 1, 2, 1), "minus")
        values = sorted(c.coordinate.value() for c in report.fixed_classes)
        assert len(values) == 2
        assert math.isclose(values[0], 2.0, abs_tol=1e-9)
        assert values[1] == INF

    def test_phi2_power_side(self):
        # x -> sgn(x) x^2 fixes infinity, 0 and +-1
        _, report = induced_factor_action(PhiTwoFixed(-1, 1, 2, 1), "plus")
        assert report.action_kind == "L2-on-line"
        assert not report.fixes_every_class
        assert [c.coordinate.value() for c in report.fixed_classes] == [INF, 0.0, 1.0, -1.0]

    def test_diagonal_is_psl_kind(self):
        _, report = induced_factor_action(DiagonalPSL(MobiusMap([[2, 1], [1, 1]])), "minus")
        assert report.action_kind == "PSL-on-circle"
        assert not report.fixes_every_class

    @pytest.mark.parametrize("eps", [
        1e-13, 1e-10, 1e-8,
        math.nextafter(EQUALITY_TOL, 0.0), EQUALITY_TOL, math.nextafter(EQUALITY_TOL, 1.0),
    ])
    def test_one_identity_test_decides(self, eps):
        # x -> x + eps: everything is fixed exactly where mobius_fixed_points
        # sees the identity, and (infinity) is the one fixed class otherwise
        m = MobiusMap.affine(1.0, eps)
        try:
            fixes_all, pts = False, [(p.h0, p.h1) for p in mobius_fixed_points(m)]
        except IdentityMap:
            fixes_all, pts = True, []
        assert (fixes_all, pts) == ((True, []) if eps <= EQUALITY_TOL else (False, [(1.0, 0.0)]))
        got_all, got = fixed_coordinates(CircleHomeo.from_mobius(m))
        assert (got_all, [(p.h0, p.h1) for p in got]) == (fixes_all, pts)
        _, report = induced_factor_action(KernelMinusPSL(m), "plus")
        assert report.fixes_every_class == fixes_all
        assert report.action_kind == ("trivial" if fixes_all else "L2-on-line")
        assert [(c.coordinate.h0, c.coordinate.h1) for c in report.fixed_classes] == pts

    @pytest.mark.parametrize("a, b", [(2.0, 3.0), (1.001, 1.001), (1e-3, 0.5)])
    def test_phi2_power_factor_fixed_set(self, a, b):
        # a sgn(x)|x|^b fixes infinity, 0 and +-a^(1/(1 - b)), in that order:
        # (2, 3) gives +-(1/2)^(1/2); (1.001, 1.001) gives +-1.001^-1000 ~
        # +-0.368; (1e-3, 0.5) gives +-1e-6, close to 0
        g = PhiTwoFixed(-1, a, b, 1)
        (fx_all, fx_pts), (fy_all, fy_pts) = map(fixed_coordinates, g.factor_homeos())
        assert not fx_all and not fy_all
        values = [p.value() for p in fx_pts]
        root = a ** (1.0 / (1.0 - b))
        assert values[:2] == [INF, 0.0] and len(values) == 4
        assert math.isclose(values[2], root, rel_tol=4 * sys.float_info.epsilon)
        assert math.isclose(values[3], -root, rel_tol=4 * sys.float_info.epsilon)

    @pytest.mark.parametrize("a, b", [(10.0, 0.999), (10.0, 1.001)])
    def test_phi2_power_factor_roots_past_float_range(self, a, b):
        # +-10^1000 and +-10^-1000 are not floats: only infinity and 0 remain
        hx, _ = PhiTwoFixed(-1, a, b, 1).factor_homeos()
        fixes_all, pts = fixed_coordinates(hx)
        assert not fixes_all
        assert [p.value() for p in pts] == [INF, 0.0]

    def test_fixed_coordinates_of_a_spline_chain_raises(self):
        knots = [(P(x), P(y)) for x, y in ((0.0, 0.0), (1.0, 2.0), (INF, INF), (-1.0, -0.5))]
        with pytest.raises(PreconditionViolated):
            fixed_coordinates(CircleHomeo((MonotoneSpline(knots),)))


class TestAutomorphismBehaviour:
    def test_kernel_plus_preserves_half_classical_circles(self):
        plane = half_classical_plane(CircleHomeo.power(2))
        g = KernelPlusPSL(MobiusMap([[2.0, 1.0], [1.0, 1.0]]))
        rng = rng_for(407)
        for _ in range(30):
            circle = plane.join(*random_triple(rng))
            image = plane.join(*(g.act(circle.point_at(ProjPoint.from_chart(t)))
                                 for t in (0.1, 0.45, 0.8)))
            worst = max(
                plane.membership_residual(
                    image, g.act(circle.point_at(ProjPoint.from_chart((j + 0.5) / 16)))
                )
                for j in range(16)
            )
            assert worst < 1e-8

    def test_kernel_minus_translation_breaks_circles(self):
        plane = half_classical_plane(CircleHomeo.power(2))
        g = KernelMinusPSL(MobiusMap([[1.0, 1.0], [0.0, 1.0]]))
        rng = rng_for(408)
        broken = 0
        for _ in range(40):
            circle = plane.join(*random_triple(rng))
            image = plane.join(*(g.act(circle.point_at(ProjPoint.from_chart(t)))
                                 for t in (0.1, 0.45, 0.8)))
            worst = max(
                plane.membership_residual(
                    image, g.act(circle.point_at(ProjPoint.from_chart((j + 0.5) / 16)))
                )
                for j in range(16)
            )
            if worst > 1e-6:
                broken += 1
        assert broken >= 1

    def test_kernel_minus_scaling_commutes_with_power_twist(self):
        # scalings conjugate through the power map, so this kernel member
        # genuinely is an automorphism of the twisted plane
        plane = half_classical_plane(CircleHomeo.power(2))
        g = KernelMinusPSL(MobiusMap([[2.0, 0.0], [0.0, 1.0]]))
        rng = rng_for(409)
        for _ in range(20):
            circle = plane.join(*random_triple(rng))
            image = plane.join(*(g.act(circle.point_at(ProjPoint.from_chart(t)))
                                 for t in (0.1, 0.45, 0.8)))
            worst = max(
                plane.membership_residual(
                    image, g.act(circle.point_at(ProjPoint.from_chart((j + 0.5) / 16)))
                )
                for j in range(16)
            )
            assert worst < 1e-8


class TestDiagonalOrbits:
    def test_transitivity_witness(self):
        rng = rng_for(410)
        for _ in range(30):
            src = TorusPoint(random_proj_point(rng), random_proj_point(rng))
            dst = TorusPoint(random_proj_point(rng), random_proj_point(rng))
            if chordal(src.x, src.y) < 1e-2 or chordal(dst.x, dst.y) < 1e-2:
                continue
            witness = diagonal_transitivity_witness(src, dst)
            assert witness.mu.orientation == 1
            # the frame member maps both anchors up to one product's rounding
            assert torus_dist(witness.act(src), dst) <= 1e-15

    def test_two_point_stabilizer_orbit_rays(self):
        # elements fixing (0,0) and (inf,inf) diagonally are the scalings;
        # their orbits lie on rays y = a x of fixed slope
        start = pt(1.0, 3.0)
        for t in (0.3, 0.9, 2.7):
            g = DiagonalPSL(MobiusMap.scaling(t))
            image = g.act(start)
            assert math.isclose(
                image.y.value() / image.x.value(), 3.0, rel_tol=1e-12
            )
            assert (image.x.value() > 0) == (start.x.value() > 0)


def _within_identity(e, tol):
    """Case3Element parameters within tol of the identity element's (0, 1, 0)."""
    angle = min(e.angle, 2.0 * math.pi - e.angle)
    return angle <= tol and abs(e.a - 1.0) <= tol and abs(e.b) <= tol


class TestCase3:
    def test_identity_factors(self):
        e = Case3Element(0.0, 1.0, 0.0)
        assert e.is_identity()
        plus, minus = e.factor_homeos()
        assert plus.as_mobius().is_identity() and minus.as_mobius().is_identity()

    def test_rotation_group_law(self):
        half_turn = Case3Element(math.pi, 1.0, 0.0)
        assert _within_identity(half_turn.compose(half_turn), 1e-12)

    def test_factorwise_composition_example(self):
        left = Case3Element(math.pi / 3, 2.0, 1.0)
        right = Case3Element(math.pi / 6, 1.0, -1.0)
        comp = left.compose(right)
        assert math.isclose(comp.angle, math.pi / 2, rel_tol=1e-12)
        assert math.isclose(comp.a, 2.0, rel_tol=1e-12)
        assert math.isclose(comp.b, -1.0, rel_tol=1e-12)

    def test_minus_factor_is_rotation(self):
        e = Case3Element(math.pi, 1.0, 0.0)
        rotated = e.factor_homeos()[1].apply(P(0.0))
        # a half turn moves 0 to infinity (up to the pi/2 rounding of cos)
        assert chordal(rotated, ProjPoint.infinity()) < 1e-15

    def test_plus_factor_pins_infinity(self):
        e = Case3Element(0.7, 2.0, 5.0)
        assert e.factor_homeos()[0].apply(ProjPoint.infinity()).value() == INF

    def test_inverse(self):
        e = Case3Element(1.1, 2.0, -3.0)
        assert _within_identity(e.compose(e.inverse()), 1e-12)

    def test_no_point_action(self):
        e = Case3Element(1.0, 2.0, 0.0)
        assert not hasattr(e, "act")

    @pytest.mark.parametrize("side, kind", [("plus", "L2-on-line"), ("minus", "SO2-on-circle")])
    def test_induced_factor_actions(self, side, kind):
        _, report = induced_factor_action(Case3Element(0.3, 2, 1), side)
        assert report.action_kind == kind


class TestLiterals:
    @pytest.mark.parametrize(
        "literal",
        [
            "diag:psl:2,1,1,1",
            "kplus:psl:2,1,1,1",
            "kminus:psl:1,1,0,1",
            "phi:2:2:3:1",
            "phi:inf:2:3:1",
            "phi2:-1:2:3:1",
            "phi2:0:2:3:1",
            "case3:0.5:2:1",
        ],
    )
    def test_round_trip(self, literal):
        g = parse_group_literal(literal)
        again = parse_group_literal(group_literal(g))
        assert type(again) is type(g)
        if hasattr(g, "act"):
            p = pt(0.37, -1.21)
            assert torus_dist(g.act(p), again.act(p)) < 1e-12

    def test_bad_literals(self):
        for literal in [
            "diag:psl:1,2,3",
            "diag:psl:0,1,1,0",  # det < 0 is not a PSL member
            "phi:2:2:3",
            "phi2:1:2:3:1",  # d must be <= 0
            "spin:1:2:3",
            "case3:a:b:c",
            # non-finite numbers; only the exponent d may be inf
            "case3:inf:1:1",
            "phi:nan:1:1:1",
            "phi:2:inf:3:1",
            "phi:-inf:2:3:1",
        ]:
            with pytest.raises(ConfigError):
                parse_group_literal(literal)

    @pytest.mark.parametrize("key", ["phi:abc", "phi2:x"])
    def test_bad_family_keys(self, key):
        with pytest.raises(ConfigError):
            family_sample(key)

    @pytest.mark.parametrize(
        "key", ["diag", "kplus", "kminus", "phi:2", "phi:inf", "phi:-0.5", "phi2:0", "phi2:-2.5"]
    )
    def test_family_key_round_trip(self, key):
        assert {family_key_of(g) for g in family_sample(key)} == {key}


def test_classical_plane_diagonal_automorphisms():
    plane = classical_plane()
    rng = rng_for(411)
    g = DiagonalPSL(random_psl(rng))
    identity_circle = plane.mobius_circle(MobiusMap.identity())
    for _ in range(20):
        circle = plane.join(*random_triple(rng))
        image = plane.join(*(g.act(circle.point_at(ProjPoint.from_chart(t)))
                             for t in (0.2, 0.5, 0.9)))
        worst = max(
            plane.membership_residual(
                image, g.act(circle.point_at(ProjPoint.from_chart((j + 0.5) / 16)))
            )
            for j in range(16)
        )
        assert worst < 1e-8
    # the diagonal circle is setwise invariant
    image = plane.join(*(g.act(identity_circle.point_at(ProjPoint.from_chart(t)))
                         for t in (0.15, 0.5, 0.85)))
    assert homeo_sup_distance(image.graph, identity_circle.graph, 64) < 1e-9
