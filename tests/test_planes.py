import math

import numpy as np
import pytest

from torus_planes import (
    CircleHomeo,
    CoincidentPoints,
    ConfigError,
    EqualCircles,
    MobiusMap,
    NoBranch,
    NotFound,
    ParallelInput,
    PlaneModel,
    PointOnBaseCross,
    PreconditionViolated,
    ProjPoint,
    TorusPoint,
    TwoPointFamily,
    chordal,
    classical_plane,
    half_classical_plane,
    homeo_from_spec,
    homeo_sup_distance,
    parallel,
    parse_plane_spec,
    plane_from_config,
    proj_matrix_equal,
    torus_dist,
)
from torus_planes import homeo, planes
from torus_planes.planes import TAG_CLASSICAL, TAG_PSL, TAG_TWISTED, parse_config_text
from torus_planes.projline import chart_h, h_from_chart
from torus_planes.verify import TrialConfig, _sample_secant_claim, _sample_touching

from helpers import (
    SEEDED_PLANES,
    canonical_chain_action,
    golden_minimum,
    graph_tangency_separation,
    pencil_branches,
    random_proj_point,
    random_triple,
    rng_for,
    serial_bisect,
    wrap_half,
)

P = ProjPoint.from_real
pt = TorusPoint.from_reals
INF = math.inf


@pytest.fixture(scope="module")
def classical():
    return classical_plane()


@pytest.fixture(scope="module")
def half2():
    return half_classical_plane(CircleHomeo.power(2))


class TestParallel:
    def test_plus(self):
        assert parallel(pt(0, 1), pt(0, 5)) == "plus"

    def test_minus(self):
        assert parallel(pt(INF, 2), pt(3, 2)) == "minus"

    def test_none(self):
        assert parallel(pt(1, 2), pt(3, 4)) == "none"

    def test_both(self):
        assert parallel(pt(1, 2), pt(1, 2)) == "both"


class TestJoinClassical:
    def test_identity_circle(self, classical):
        c = classical.join(pt(0, 0), pt(1, 1), pt(INF, INF))
        assert c.tag == TAG_CLASSICAL
        assert c.mobius.is_identity(1e-12)

    def test_one_minus_x(self, classical):
        c = classical.join(pt(0, 1), pt(1, 0), pt(INF, INF))
        assert proj_matrix_equal(c.mobius, MobiusMap([[-1.0, 1.0], [0.0, 1.0]]), 1e-12)
        assert c.mobius.orientation == -1

    def test_parallel_rejected(self, classical):
        with pytest.raises(ParallelInput):
            classical.join(pt(0, 0), pt(0, 1), pt(2, 2))
        with pytest.raises(ParallelInput):
            classical.join(pt(0, 0), pt(1, 0), pt(2, 2))

    def test_join_symmetry(self, classical):
        rng = rng_for(301)
        for _ in range(50):
            a, b, c = random_triple(rng)
            c1 = classical.join(a, b, c)
            c2 = classical.join(c, a, b)
            assert homeo_sup_distance(c1.graph, c2.graph, 64) < 1e-9

    def test_diagonal_is_a_circle(self, classical):
        rng = rng_for(302)
        identity = classical.mobius_circle(MobiusMap.identity())
        for _ in range(30):
            xs = sorted(rng.random(3))
            if min(np.diff(xs)) < 1e-3:
                continue
            points = [TorusPoint(ProjPoint.from_chart(t), ProjPoint.from_chart(t)) for t in xs]
            joined = classical.join(*points)
            assert homeo_sup_distance(joined.graph, identity.graph, 64) < 1e-9


class TestJoinHalfClassical:
    def test_psl_branch(self, half2):
        c = half2.join(pt(0, 0), pt(1, 1), pt(INF, INF))
        assert c.tag == TAG_PSL
        assert c.mobius.orientation == 1

    def test_twisted_branch_example(self, half2):
        # mu through (0,1,inf)->(0,-1,inf) is x -> -x with det < 0, so the
        # twisted branch must fire; both-branch oracle: exactly one valid
        p, q, r = pt(0, 0), pt(1, -1), pt(INF, INF)
        branches = half2.join_branches(p, q, r)
        assert [ok for _, ok in branches.values()].count(True) == 1
        assert branches["psl"][1] is False
        c = half2.join(p, q, r)
        assert c.tag == TAG_TWISTED
        assert c.mobius.orientation == -1
        for point in (p, q, r):
            assert half2.membership_residual(c, point) < 1e-9
        assert half2.circle_in_set(c)
        # graph is -(sgn x) x^2
        assert math.isclose(c.graph.apply(P(2.0)).value(), -4.0, rel_tol=1e-12)

    def test_joining_closure_sample(self, half2):
        rng = rng_for(303)
        for _ in range(100):
            a, b, c = random_triple(rng)
            circle = half2.join(a, b, c)
            assert max(half2.membership_residual(circle, s) for s in (a, b, c)) < 1e-9
            branches = half2.join_branches(a, b, c)
            assert [ok for _, ok in branches.values()].count(True) == 1

    def test_classical_specialization(self, classical):
        # HalfClassical(id, id) carries the same circle set as the
        # classical plane and joins must agree
        degenerate = half_classical_plane(CircleHomeo.identity())
        rng = rng_for(304)
        for _ in range(500):
            a, b, c = random_triple(rng)
            c1 = degenerate.join(a, b, c)
            c2 = classical.join(a, b, c)
            assert homeo_sup_distance(c1.graph, c2.graph, 16) < 1e-9


class TestIntersect:
    def test_parabolic_tangent_at_infinity(self, classical):
        ident = classical.mobius_circle(MobiusMap.identity())
        trans = classical.mobius_circle(MobiusMap([[1.0, 1.0], [0.0, 1.0]]))
        pts = classical.circle_intersect(ident, trans)
        assert len(pts) == 1
        assert pts[0].x.value() == INF and pts[0].y.value() == INF

    def test_inversion_two_points(self, classical):
        ident = classical.mobius_circle(MobiusMap.identity())
        inv = classical.mobius_circle(MobiusMap([[0.0, 1.0], [1.0, 0.0]]))
        values = sorted(p.x.value() for p in classical.circle_intersect(ident, inv))
        assert values == [-1.0, 1.0]

    def test_scaling_fixed_points(self, classical):
        ident = classical.mobius_circle(MobiusMap.identity())
        scale = classical.mobius_circle(MobiusMap([[2.0, 0.0], [0.0, 1.0]]))
        values = sorted(p.x.value() for p in classical.circle_intersect(ident, scale))
        assert values == [0.0, INF]

    def test_equal_circles_rejected(self, classical):
        ident = classical.mobius_circle(MobiusMap.identity())
        same = classical.mobius_circle(MobiusMap([[3.0, 0.0], [0.0, 3.0]]))
        with pytest.raises(EqualCircles):
            classical.circle_intersect(ident, same)

    def test_at_most_two_for_mobius_pairs(self, classical):
        rng = rng_for(305)
        for _ in range(200):
            c1 = classical.join(*random_triple(rng))
            c2 = classical.join(*random_triple(rng))
            if homeo_sup_distance(c1.graph, c2.graph, 64) < 1e-6:
                continue
            assert len(classical.circle_intersect(c1, c2)) <= 2

    def test_mixed_branch_scan(self, half2):
        psl = half2.mobius_circle(MobiusMap.identity())
        twisted = half2.join(pt(0, 0), pt(1, -1), pt(INF, INF))
        pts = half2.circle_intersect(psl, twisted)
        # x = -sgn(x)x^2 holds exactly at 0 and infinity
        assert len(pts) == 2
        assert chordal(pts[0].x, P(0)) < 1e-9
        assert chordal(pts[1].x, ProjPoint.infinity()) < 1e-9
        for point in pts:
            assert half2.membership_residual(twisted, point) < 1e-8

    def test_twisted_pair_quadratic_route(self, half2):
        c1 = half2.join(pt(0, 0), pt(1, -1), pt(INF, INF))
        c2 = half2.join(pt(0, 1), pt(1, 0), pt(2, -8))
        assert c1.tag == TAG_TWISTED and c2.tag == TAG_TWISTED
        pts = half2.circle_intersect(c1, c2)
        assert 1 <= len(pts) <= 2
        for point in pts:
            assert half2.membership_residual(c1, point) < 1e-8
            assert half2.membership_residual(c2, point) < 1e-8


THIRD = "half:power:" + repr(1 / 3)

STEEP_TANGENTS = [
    ("half:power:6", 42, 13), (THIRD, 13, 8),
    # tangents with entries of 3,600-47,000 whose summed matrices miss q
    # by 2.5e-9-7.8e-9
    ("half:power:2", 14, 169), ("classical", 44, 164), ("classical", 308, 142),
    (THIRD, 260, 169), ("classical", 444, 35),
    # twisted tangents with entries of 12,800-35,100 whose summed
    # matrices miss q by 2.5e-9-8.7e-8, and (176, 153), whose tangent
    # osculates c so closely (phi2 ~ 1.6e-5) that its other common point
    # is the worst conditioned here
    (THIRD, 82, 148), (THIRD, 143, 84), (THIRD, 176, 153), (THIRD, 332, 111),
    (THIRD, 444, 35), (THIRD, 460, 136),
    # the tangent against c has a quotient map with entries of ~4e4,
    # whose fixed-point discriminant rounds to -1.9e-6
    (THIRD, 128, 87),
    # a five-point stencil's tangency parameter left the other common
    # point 2.0e-6 from p
    ("half:power:2", 6, 110),
]


def steep_touch(spec, seed, trial):
    """(plane, carrier, p, q, touch's result) for a touching-suite trial."""
    plane = parse_plane_spec(spec)
    cfg = TrialConfig(seed=seed, trials=trial + 1)
    inputs = _sample_touching(plane, cfg.rng_for(trial), cfg)
    circle, p, q = plane.join(*inputs["points"]), inputs["p"], inputs["q"]
    return plane, circle, p, q, plane.touch(circle, p, q)


class TestTouch:
    def test_classical_example_frozen(self, classical):
        # tangent to the identity circle at (0,0) through (1,2):
        # x -> 2x / (2 - x), double root of delta at 0
        ident = classical.mobius_circle(MobiusMap.identity())
        d = classical.touch(ident, pt(0, 0), pt(1, 2))
        assert proj_matrix_equal(d.mobius, MobiusMap([[2.0, 0.0], [-1.0, 2.0]]), 1e-8)
        far, sep = classical.tangency_separation(ident, d, pt(0, 0))
        assert not far and sep <= classical.tangency_band
        assert_scan_finds_touch(classical, ident, pt(0, 0), pt(1, 2), d)

    def test_classical_parabolic_example(self, classical):
        ident = classical.mobius_circle(MobiusMap.identity())
        d = classical.touch(ident, pt(INF, INF), pt(0, 1))
        assert proj_matrix_equal(d.mobius, MobiusMap([[1.0, 1.0], [0.0, 1.0]]), 1e-8)
        pts = classical.circle_intersect(ident, d)
        assert len(pts) == 1
        assert chordal(pts[0].x, ProjPoint.infinity()) < 1e-9

    def test_preconditions(self, classical):
        ident = classical.mobius_circle(MobiusMap.identity())
        with pytest.raises(PreconditionViolated):
            classical.touch(ident, pt(0, 1), pt(1, 2))  # p not on circle
        with pytest.raises(PreconditionViolated):
            classical.touch(ident, pt(0, 0), pt(2, 2))  # q on circle
        with pytest.raises(PreconditionViolated):
            classical.touch(ident, pt(0, 0), pt(0, 2))  # parallel

    def test_half_classical_dense_scan_oracle(self, half2):
        rng = rng_for(306)
        done = 0
        while done < 25:
            base = random_triple(rng)
            circle = half2.join(*base)
            p = circle.point_at(random_proj_point(rng))
            q = TorusPoint(random_proj_point(rng), random_proj_point(rng))
            if parallel(p, q, 1e-3) != "none":
                continue
            if half2.membership_residual(circle, q) < 1e-2:
                continue
            d = half2.touch(circle, p, q)
            assert half2.membership_residual(d, q) < 1e-9
            far, sep = half2.tangency_separation(circle, d, p)
            assert not far and sep <= half2.tangency_band
            assert_scan_finds_touch(half2, circle, p, q, d)
            done += 1

    def test_touch_stays_in_circle_set(self, half2):
        # the carrier -sgn(x) x^2 is twisted, so on neither branch is its
        # side of the tangency equation a Mobius map in x
        circle = half2.join(pt(0, 0), pt(1, -1), pt(INF, INF))
        p = circle.point_at(P(2.0))
        q = pt(1, 5)
        d = half2.touch(circle, p, q)
        assert half2.circle_in_set(d) and d.tag == TAG_TWISTED
        far, sep = half2.tangency_separation(circle, d, p)
        assert not far and sep <= half2.tangency_band
        assert_scan_finds_touch(half2, circle, p, q, d)

    @pytest.mark.parametrize("spec, seed, trial", STEEP_TANGENTS)
    def test_touch_contains_q_where_the_tangent_is_steep(self, spec, seed, trial):
        # the tangent's chart slope at q is ~1e7, so a summed matrix's
        # rounding alone can miss q by more than tol (1.3e-9 on the second
        # input); the frame member's action holds q exactly
        plane, circle, p, q, d = steep_touch(spec, seed, trial)
        assert plane.membership_residual(d, q) <= plane.tol
        far, sep = plane.tangency_separation(circle, d, p)
        assert not far and sep <= plane.tangency_band

    @pytest.mark.parametrize("spec, seed, trial", STEEP_TANGENTS)
    def test_separation_matches_a_50_digit_oracle(self, spec, seed, trial, monkeypatch):
        # phi1, phi2 and the other common point recomputed at 50 digits
        # from the same floats: c's entries and the member's frame
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(mp.mp, "dps", 50)
        plane, circle, p, q, d = steep_touch(spec, seed, trial)
        m, n = circle.mobius, d.mobius
        data = [mp.mpf(v) for v in (m.a, m.b, m.c, m.d, n.lam, n.xp.h0, n.xp.h1,
                                    n.xq.h0, n.xq.h1, n.yp.h0, n.yp.h1, n.yq.h0, n.yq.h1)]

        def phis(a, b, c, dd, lam, u0, u1, xq0, xq1, yp0, yp1, yq0, yq1, sub):
            # phi1 and phi2; with sub = add on the absolute values, the sums
            # of magnitudes that bound their rounding in floats
            def det(s, t):
                return sub(s[0] * t[1], s[1] * t[0])

            def c_side(h):
                return (a * h[0] + b * h[1], c * h[0] + dd * h[1])

            def member(h):
                dp, dq = lam * det((u0, u1), h), det((xq0, xq1), h)
                return (dp * yq0 + dq * yp0, dp * yq1 + dq * yp1)

            u, e = (u0, u1), (sub(0, u1), u0)
            return (det(c_side(u), member(e)) + det(c_side(e), member(u)),
                    det(c_side(e), member(e)))

        def back(h):
            if d.tag != TAG_TWISTED:
                return h
            power = mp.mpf(plane.f_inv.atoms[0].exponent)
            return [mp.sign(v) * abs(v) ** power for v in h]

        def chordal_mp(g, h):
            g = [v / mp.sqrt(g[0] ** 2 + g[1] ** 2) for v in g]
            h = [v / mp.sqrt(h[0] ** 2 + h[1] ** 2) for v in h]
            return min(mp.sqrt((g[0] - s * h[0]) ** 2 + (g[1] - s * h[1]) ** 2) for s in (1, -1))

        phi1, phi2 = phis(*data, sub=lambda s, t: s - t)
        u0, u1 = data[5], data[6]
        x = (mp.mpf(p.x.h0), mp.mpf(p.x.h1))
        oracle = chordal_mp(back((phi2 * u0 + phi1 * u1, phi2 * u1 - phi1 * u0)), x)
        far, sep = plane.tangency_separation(circle, d, p)
        assert not far
        assert oracle <= 1e-9
        # the float reading differs by its own rounding, at most 8 eps of the
        # magnitudes summed in phi1 and phi2 relative to phi2, through the
        # chordal slope of the map back to x; 1e-12 where that is smaller
        abs1, abs2 = phis(*map(abs, data), sub=lambda s, t: s + t)
        tiny = mp.mpf(10) ** -30
        slope = chordal_mp(back((u0 - tiny * u1, u1 + tiny * u0)), back((u0, u1))) / tiny
        rounding = 8 * 2.0**-52 * slope * (abs1 + abs(phi1 / phi2) * abs2) / abs(phi2)
        assert abs(sep - oracle) <= 1e-12 + rounding

    def test_separation_across_branches(self, half2):
        # opposite orientations cross twice
        psl = half2.mobius_circle(MobiusMap.identity())
        twisted = half2.join(pt(0, 0), pt(1, -1), pt(INF, INF))
        assert half2.tangency_separation(psl, twisted, pt(0, 0)) == (True, math.inf)

    def test_a_member_that_cannot_be_built_is_no_candidate(self, half2, monkeypatch):
        circle = half2.join(pt(0, 0), pt(1, 1), pt(2, 3))
        p, q = circle.point_at(P(0.5)), pt(-1, 4)
        half2.touch(circle, p, q)  # found while the member can be built

        calls = []

        def singular(fam, t, orientation=None):
            calls.append(t)
            raise PreconditionViolated("family member is singular in floating point")

        monkeypatch.setattr(TwoPointFamily, "member", singular)
        with pytest.raises(NotFound):
            half2.touch(circle, p, q)
        assert len(calls) == 1

    def test_touch_builds_one_family(self, classical, half2, monkeypatch):
        # c's own branch only, also when touch finds nothing there
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return TwoPointFamily(*args, **kwargs)

        monkeypatch.setattr(planes, "TwoPointFamily", counted)
        twisted = half2.join(pt(0, 0), pt(1, -1), pt(INF, INF))
        psl = half2.join(pt(0, 0), pt(1, 1), pt(2, 3))
        ident = classical.mobius_circle(MobiusMap.identity())
        cases = [(classical, ident, pt(0, 0), pt(1, 2)),
                 (half2, twisted, twisted.point_at(P(2.0)), pt(1, 5)),
                 (half2, psl, psl.point_at(P(0.5)), pt(-1, 4))]
        for plane, c, p, q in cases:
            built.clear()
            plane.touch(c, p, q)
            assert len(built) == 1
        monkeypatch.setattr(PlaneModel, "tangency_band", -1.0)  # certify nothing
        for plane, c, p, q in cases:
            built.clear()
            with pytest.raises(NotFound):
                plane.touch(c, p, q)
            assert len(built) == 1


class TestDerived:
    def test_vertical_class(self, classical):
        line = classical.derived_line_through(pt(INF, INF), pt(0, 0), pt(0, 5))
        assert line.kind == "plus-class"
        assert chordal(line.pclass.coordinate, P(0)) < 1e-12

    def test_identity_line(self, classical):
        line = classical.derived_line_through(pt(INF, INF), pt(0, 0), pt(1, 1))
        assert line.kind == "circle"
        assert line.circle.mobius.is_identity(1e-12)

    def test_base_cross_rejected(self, classical):
        with pytest.raises(PointOnBaseCross):
            classical.derived_line_through(pt(INF, INF), pt(INF, 0), pt(1, 1))

    def test_coincident_rejected(self, classical):
        with pytest.raises(CoincidentPoints):
            classical.derived_line_through(pt(INF, INF), pt(1, 1), pt(1, 1))

    def test_uniqueness_permuted_half_classical(self):
        plane = half_classical_plane(CircleHomeo.power(3))
        base = pt(INF, INF)
        rng = rng_for(307)
        done = 0
        while done < 40:
            a = TorusPoint(random_proj_point(rng), random_proj_point(rng))
            b = TorusPoint(random_proj_point(rng), random_proj_point(rng))
            if parallel(a, b) != "none":
                continue
            if chordal(a.x, base.x) < 1e-3 or chordal(a.y, base.y) < 1e-3:
                continue
            if chordal(b.x, base.x) < 1e-3 or chordal(b.y, base.y) < 1e-3:
                continue
            l1 = plane.derived_line_through(base, a, b)
            l2 = plane.derived_line_through(base, b, a)
            assert l1.kind == l2.kind == "circle"
            assert homeo_sup_distance(l1.circle.graph, l2.circle.graph, 64) < 1e-9
            done += 1


class TestConfig:
    def test_parse_config_text(self):
        cfg = parse_config_text(
            "# plane block\nfamily = half-classical\nf = power:2\ng = id\ntolerance = 1e-8\n"
        )
        assert cfg == {
            "family": "half-classical",
            "f": "power:2",
            "g": "id",
            "tolerance": "1e-8",
        }
        plane = plane_from_config(cfg)
        assert plane.is_half_classical and plane.tol == 1e-8

    def test_parse_plane_specs(self):
        assert parse_plane_spec("classical").family == "classical"
        plane = parse_plane_spec("half:power:2")
        assert plane.is_half_classical
        assert parse_plane_spec("half:power:2:power:3").describe().startswith(
            "half-classical(f=power:2, g=power:3)"
        )

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            parse_plane_spec("spherical")
        with pytest.raises(ConfigError):
            homeo_from_spec("power:zero")
        with pytest.raises(ConfigError):
            plane_from_config({"family": "projective"})
        with pytest.raises(ConfigError):
            parse_config_text("family half-classical")
        with pytest.raises(ConfigError):
            plane_from_config({"tolerance": "tiny"})
        with pytest.raises(ConfigError):
            plane_from_config({"family": "classical", "f": "power:2"})

    @pytest.mark.parametrize("kwargs", [
        {"tol": -1.0},
        {"tol": math.nan},
        {"tol": math.inf},
        {"tol": 0.0},
        {"tol": "x"},
    ])
    def test_bad_tolerances_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            PlaneModel("classical", **kwargs)

    @pytest.mark.parametrize("spec, described", [
        ("classical", "classical"),
        ("half:power:2", "half-classical(f=power:2, g=id)"),
        ("half:power:" + repr(1.0 / 3.0), "half-classical(f=power:0.333333, g=id)"),
        ("half:spline:{dir}/knots:12.txt", "half-classical(f=spline:12, g=id)"),
    ], ids=["classical", "power-2", "power-1/3", "spline"])
    def test_benchmark_spec_forms(self, spec, described, tmp_path):
        # a colon in the knot path: the spline spec's whole rest is the path
        tx = (np.arange(12) + 0.25) / 12
        ty = (tx ** 1.5 + 0.1) % 1.0
        (tmp_path / "knots:12.txt").write_text("".join(
            f"{math.tan(math.pi * a)!r} {math.tan(math.pi * b)!r}\n" for a, b in zip(tx, ty)
        ))
        plane = parse_plane_spec(spec.replace("{dir}", str(tmp_path)))
        assert plane.describe() == described and plane.tol == 1e-9

    def test_twist_must_preserve_orientation(self):
        reversing = CircleHomeo.from_mobius(MobiusMap([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ConfigError):
            half_classical_plane(reversing)


# ----------------------------------------------------------------------
# bisection evaluates many midpoints per call, so the functions it bisects
# must give every element the same bits whichever batch it is evaluated in


def _assert_batch_invariant(fn, xs, sizes):
    batch = np.asarray(fn(xs), dtype=float).tobytes()
    for size in sizes:
        chunks = [np.asarray(fn(xs[i:i + size]), dtype=float)
                  for i in range(0, len(xs), size)]
        assert np.concatenate(chunks).tobytes() == batch


@pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
def test_bisected_functions_are_batch_invariant(name, monkeypatch):
    rng = rng_for(901, sorted(SEEDED_PLANES).index(name))
    plane = SEEDED_PLANES[name](rng)
    captured = []
    monkeypatch.setattr(homeo, "wrapped_zeros", lambda fn, **kwargs: captured.append(fn))
    for _ in range(4):
        c = plane.join(*random_triple(rng))
        d = plane.join(*random_triple(rng))
        p = c.point_at(random_proj_point(rng))
        q = TorusPoint(random_proj_point(rng), random_proj_point(rng))
        # the reference pencil slope difference over its scan grid and
        # random parameters
        ts = np.concatenate([PENCIL_TS, 10.0 ** rng.uniform(-8.0, 8.0, 64)])
        for branch in pencil_branches(plane, p, q):
            probe = pencil_probe(plane, branch, c, p)
            _assert_batch_invariant(lambda t: slope_differences(probe, t)[0], ts, (1, 3, 15))
        # the crossing function of two graphs, as graph_equation_zeros builds
        # it; every lifted atom acts elementwise, so single points agree too
        homeo.graph_equation_zeros(c.graph, d.graph)
        thetas = np.concatenate([np.arange(512) / 512, rng.uniform(0.0, 1.0 + 1 / 512, 64)])
        _assert_batch_invariant(captured.pop(), thetas, (1, 3, 7, 15))


# ----------------------------------------------------------------------
# the chart-scan intersection route against the chart-difference scan


def chart_difference_zeros(lhs, rhs, grid=512, tangent_band=1e-7):
    """Reference: graph meetings as zeros of the wrapped chart difference.

    The difference jumps by 1 where one chart wraps, so a sign change is a
    crossing only where neighbouring values are close; steep cells are
    subdivided one point at a time to tell a fast crossing from the wrap,
    and a bisected root is kept only where the difference is small.
    """

    def fn(theta):
        h = h_from_chart(theta)
        return wrap_half(chart_h(canonical_chain_action(lhs, h))
                         - chart_h(canonical_chain_action(rhs, h)))

    theta = np.arange(grid) / grid
    vals = np.asarray(fn(theta), dtype=float)
    nxt = np.roll(vals, -1)
    genuine = np.abs(nxt - vals) < 0.5
    sign_flip = (vals == 0.0) | (np.sign(vals) != np.sign(nxt))
    crossing = genuine & sign_flip
    zeros = []

    def accept(root, froot):
        if abs(froot) < 0.01:
            zeros.append(root % 1.0)

    cells = [(theta[i], theta[i] + 1.0 / grid, vals[i], nxt[i], 0)
             for i in np.nonzero(sign_flip)[0]]
    while cells:
        lo, hi, flo, fhi, depth = cells.pop()
        if flo == 0.0:
            zeros.append(lo % 1.0)
        elif (flo < 0.0) == (fhi < 0.0) and fhi != 0.0:
            continue
        elif abs(flo - fhi) < 0.5:
            accept(*homeo.bisect(fn, lo, hi, flo))
        elif depth < 12:
            mid = 0.5 * (lo + hi)
            fmid = float(fn(mid))
            cells += [(lo, mid, flo, fmid, depth + 1), (mid, hi, fmid, fhi, depth + 1)]
    mag = np.abs(vals)
    local_min = (mag <= np.roll(mag, 1)) & (mag <= np.roll(mag, -1))
    for i in np.nonzero(local_min & (mag < tangent_band))[0]:
        if not (crossing[i] or crossing[(i - 1) % grid]):
            t, fmin = golden_minimum(fn, theta[i] - 1.0 / grid, theta[i] + 1.0 / grid,
                                     homeo.BISECT_TOL)
            if fmin < tangent_band:
                zeros.append(t % 1.0)
    return sorted(zeros)


def _cyclic_gap(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _mixed_route_pair(plane, rng):
    """Circles c1, c2 of opposite branches sharing two drawn points a and b.

    Draws that a steep twist cannot join are redrawn.
    """
    while True:
        try:
            c1 = plane.join(*random_triple(rng))
        except NoBranch:
            continue
        ta, tb = rng.random(2)
        a = c1.point_at(ProjPoint.from_chart(ta))
        b = c1.point_at(ProjPoint.from_chart(tb))
        r = TorusPoint(random_proj_point(rng), random_proj_point(rng))
        if (_cyclic_gap(ta, tb) < 0.05 or chordal(a.y, b.y) < 0.05
                or parallel(a, r, 1e-2) != "none" or parallel(b, r, 1e-2) != "none"
                or plane.membership_residual(c1, r) < 1e-2):
            continue
        try:
            c2 = plane.join(a, b, r)
        except NoBranch:
            continue
        if (c1.tag == TAG_TWISTED) != (c2.tag == TAG_TWISTED):
            return c1, c2, (a, b)


# the seeded planes, then steep power twists; a plane's index keys its rng
CROSSING_PLANES = {
    **SEEDED_PLANES,
    "power-20": lambda rng: parse_plane_spec("half:power:20"),
    "power-0.05": lambda rng: parse_plane_spec("half:power:0.05"),
}
CROSSING_ORDER = sorted(SEEDED_PLANES) + ["power-20", "power-0.05"]


@pytest.mark.parametrize("name", ["power-2", "power-1/3", "spline", "power-20", "power-0.05"])
def test_crossing_scan_finds_every_chart_difference_zero(name):
    # the reference keeps its tangential-minimum search, so a zero the
    # crossings-only scan misses would show here
    rng = rng_for(902, CROSSING_ORDER.index(name))
    plane = CROSSING_PLANES[name](rng)
    for _ in range(24):
        c1, c2, shared = _mixed_route_pair(plane, rng)
        zeros = homeo.graph_equation_zeros(c1.graph, c2.graph)
        for z in chart_difference_zeros(c1.graph, c2.graph, tangent_band=plane.tangency_band):
            assert min(_cyclic_gap(z, y) for y in zeros) <= 1e-9
        pts = plane.circle_intersect(c1, c2)
        assert len(pts) == 2
        assert all(min(torus_dist(p, s) for p in pts) <= 1e-6 for s in shared)


@pytest.mark.parametrize("spec", ["half:id", "half:power:1"])
def test_mixed_pairs_meet_on_both_circles_where_the_twists_are_mobius(spec):
    # both graphs collapse to Mobius maps, so the quadratic solves the pair
    # exactly; the chart scan would leave residuals near 1e-10
    plane = parse_plane_spec(spec)
    rng = rng_for(904)
    for _ in range(100):
        c1, c2, _ = _mixed_route_pair(plane, rng)
        pts = plane.circle_intersect(c1, c2)
        assert len(pts) == 2
        for p in pts:
            assert plane.membership_residual(c1, p) <= 1e-12
            assert plane.membership_residual(c2, p) <= 1e-12


def test_chart_scan_keeps_a_crossing_next_to_a_steep_cell():
    # a mixed-route pair on half:power:2 (drawn by the benchmark's chart-scan
    # input generator, seed 4) whose crossing at x-chart 0.437 the
    # chart-difference scan lost
    plane = parse_plane_spec("half:power:2")

    def point(x, y):
        return TorusPoint(ProjPoint(*x), ProjPoint(*y))

    c1 = plane.join(
        point((0.9981732775780828, 0.06041612308835787), (0.6035731687350776, 0.797307613147584)),
        point((-0.3374252221219421, 0.9413523354599796), (-0.04706143701768552, 0.9988919967373001)),
        point((-0.9975280539448904, 0.0702693503095038), (0.9959512713828045, 0.08989474417881908)),
    )
    a = point((0.9806805948913793, 0.19561587564277702), (0.35288934962873764, 0.9356650612898862))
    b = point((0.22816769828107758, 0.9736218472595586), (0.017304977111494587, 0.9998502576722029))
    r = point((0.976162471323742, 0.21704107809150935), (-0.06637414947742788, 0.9977948046974128))
    c2 = plane.join(a, b, r)
    assert len(chart_difference_zeros(c1.graph, c2.graph, tangent_band=plane.tangency_band)) == 1
    pts = plane.circle_intersect(c1, c2)
    assert len(pts) == 2
    assert all(min(torus_dist(p, s) for p in pts) <= 1e-6 for s in (a, b))


# ----------------------------------------------------------------------
# the pencil tangency against the slope-difference scan


PENCIL_TS = np.logspace(-8.0, 8.0, 16 * 24 + 1)
# the difference quotient places the tangency parameter to ~5e-5 relative,
# which moves the member's canonical entries by up to 3.7e-3 (seeds 7, 903)
SCAN_MATCH_TOL = 1e-2


def pencil_probe(plane, branch, c, p):
    """Reference data for the slope-difference scan along a pencil branch.

    Tangency at p means the member's graph and c touch to first order
    there, so the chart-slope difference at p, a symmetric difference
    quotient, crosses zero at the tangency parameter. Twisted members are
    compared in twist coordinates, g(c(x)) against nu(f(x)), which has the
    same zero set.
    """
    eps = 1e-5
    x_probe = h_from_chart(p.x.chart() + np.array([-eps, eps]))
    if branch.name == "twisted":
        u_probe = canonical_chain_action(plane.f, x_probe)
        c_side = chart_h(
            canonical_chain_action(plane.g, canonical_chain_action(c.graph, x_probe))
        )
    else:
        u_probe = x_probe
        c_side = chart_h(canonical_chain_action(c.graph, x_probe))
    fam = branch.family
    return {
        "eps": eps,
        "c_side": c_side,
        "u": u_probe,
        "p_mat": np.outer([fam.yq.h0, fam.yq.h1], [-fam.xp.h1, fam.xp.h0]),
        "q_mat": np.outer([fam.yp.h0, fam.yp.h1], [-fam.xq.h1, fam.xq.h0]),
        "lam_sign": 1.0 if fam.base_orientation == branch.sign else -1.0,
    }


def slope_differences(probe, ts):
    """Slope-difference samples over branch parameters; (tau, valid)."""
    lam = probe["lam_sign"] * np.asarray(ts, dtype=float)
    w = lam[:, None, None] * probe["p_mat"] + probe["q_mat"]
    img = np.einsum("kij,jn->kin", w, probe["u"])
    member_side = (np.arctan2(img[:, 0, :], img[:, 1, :]) / math.pi) % 1.0
    delta = wrap_half(probe["c_side"][None, :] - member_side)
    valid = np.all(np.abs(delta) < 0.1, axis=1)
    return (delta[:, 1] - delta[:, 0]) / (2.0 * probe["eps"]), valid


def scanned_tangents(plane, c, p, q):
    """Reference: (branch name, member) of each certified tangent the slope scan finds.

    Both branches of the pencil are scanned. Sign changes of the slope
    difference over PENCIL_TS are bisected on geometric midpoints, as
    parameters span sixteen decades. A change at a pole (a degenerate
    member) keeps a large difference and is dropped; the rest are
    certified at ten times the band, as the difference quotient only
    approximates the tangency parameter.
    """
    found = []
    for branch in pencil_branches(plane, p, q):
        probe = pencil_probe(plane, branch, c, p)
        tau, valid = slope_differences(probe, PENCIL_TS)
        ts, tau = PENCIL_TS[valid], tau[valid]
        lo, hi = tau[:-1], tau[1:]
        roots = []
        for i in np.nonzero((hi == 0.0) | ((lo != 0.0) & ((lo < 0.0) != (hi < 0.0))))[0]:
            t_star, t_tau = ts[i], tau[i]
            if t_tau != 0.0:
                t_star, t_tau, _ = serial_bisect(lambda t: slope_differences(probe, t)[0],
                                                 ts[i], ts[i + 1], t_tau,
                                                 rtol=1e-13, cap=80, geometric=True)
            if abs(t_tau) >= 0.05 or any(abs(t_star - r) <= 1e-6 * max(t_star, r)
                                         for r in roots):
                continue
            member = branch.circle(t_star)
            far, sep = plane.tangency_separation(c, member, p)
            if not far and sep <= 10.0 * plane.tangency_band:
                roots.append(t_star)
                found.append((branch.name, member))
    return found


def assert_scan_finds_touch(plane, c, p, q, d):
    """The slope scan finds one certified tangent, on c's branch, and it is d."""
    found = scanned_tangents(plane, c, p, q)
    assert len(found) == 1, found
    name, member = found[0]
    assert (name == "twisted") == (c.tag == TAG_TWISTED) == (d.tag == TAG_TWISTED)
    assert proj_matrix_equal(member.mobius, d.mobius, SCAN_MATCH_TOL), (member, d)


@pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
def test_pencil_tangency_matches_the_slope_scan(name):
    rng = rng_for(903, sorted(SEEDED_PLANES).index(name))
    plane = SEEDED_PLANES[name](rng)
    cfg = TrialConfig(seed=903, trials=200)
    for i in range(cfg.trials):
        inputs = _sample_touching(plane, cfg.rng_for(i), cfg)
        c, p, q = plane.join(*inputs["points"]), inputs["p"], inputs["q"]
        try:
            assert_scan_finds_touch(plane, c, p, q, plane.touch(c, p, q))
        except AssertionError as exc:
            raise AssertionError(f"trial {i}: {exc}") from None


@pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
def test_touch_certified_on_the_graphs_too(name):
    # the closed-form separation and the chart reading on the graphs agree:
    # both certify every tangent touch returns and reject every secant
    rng = rng_for(77, sorted(SEEDED_PLANES).index(name))
    plane = SEEDED_PLANES[name](rng)
    cfg = TrialConfig(seed=77, trials=60)
    readings = (plane.tangency_separation, graph_tangency_separation)
    for i in range(cfg.trials):
        inputs = _sample_secant_claim(plane, cfg.rng_for(i), cfg)
        c, p = plane.join(*inputs["points"]), inputs["p"]
        tangent = plane.touch(c, p, inputs["q"])
        secant = plane.join(*inputs["claimed_points"])
        for reading in readings:
            far, sep = reading(c, tangent, p)
            assert not far and sep <= plane.tangency_band, (i, reading)
            far, sep = reading(c, secant, p)
            assert far or sep > plane.tangency_band, (i, reading)
