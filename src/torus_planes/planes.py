"""Toroidal circle plane models: classical and half-classical.

A plane carries the torus S^1 x S^1 as point set, verticals and
horizontals as parallel classes, and a circle set of homeomorphism
graphs:

* classical: graphs of all of PGL(2, R);
* half-classical, twist maps f and g: graphs of PSL(2, R) members plus
  graphs g^-1 . nu . f for orientation-reversing Mobius nu.

The orientation dichotomy splits the circle set exactly, so joining
resolves its branch from the sign of a determinant, never from a
tolerance. Touching is a numeric search over the pencil of circles
through two points with a declared tangency band; for pure-Mobius
configurations the tangency parameter also has a closed form through the
fixed-point discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CoincidentPoints,
    ConfigError,
    EqualCircles,
    IdentityMap,
    NoBranch,
    NotFound,
    ParallelInput,
    PointOnBaseCross,
    PreconditionViolated,
)
from .homeo import (
    SCAN_GRID,
    CircleHomeo,
    bisect,
    crossing_function,
    graph_equation_zeros,
    homeo_sup_distance,
    load_spline_knots,
)
from .projline import (
    EQUALITY_TOL,
    MobiusMap,
    ProjPoint,
    TorusPoint,
    TwoPointFamily,
    chart_h,
    chordal,
    fixed_point_roots,
    h_from_chart,
    mobius_fixed_points,
    mobius_from_three,
    wrap_half,
)

PLUS = "plus"
MINUS = "minus"

TAG_CLASSICAL = "classical-PGL"
TAG_PSL = "half-classical-PSL"
TAG_TWISTED = "half-classical-twisted"

# x -> -x: fixes 0 and infinity, reverses orientation; used by the
# deliberately corrupted twist branch of negative-control planes
_NEG = MobiusMap([[-1.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class ParallelClass:
    """A vertical ({x0} x S^1, kind plus) or horizontal (kind minus)."""

    kind: str
    coordinate: ProjPoint


class Circle:
    """A circle of the torus: the graph of a circle homeomorphism.

    `tag` records the defining family branch and `mobius` its Mobius
    parameter (the graph itself for untwisted branches, the reversing
    factor nu for twisted ones).
    """

    __slots__ = ("graph", "tag", "mobius")

    def __init__(self, graph: CircleHomeo, tag: str, mobius: MobiusMap):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "mobius", mobius)

    def __setattr__(self, name, value):
        raise AttributeError("Circle is immutable")

    def point_at(self, x: ProjPoint) -> TorusPoint:
        return TorusPoint(x, self.graph.apply(x))

    def __repr__(self):
        return f"Circle({self.tag}, {self.mobius!r})"


@dataclass(frozen=True)
class DerivedLine:
    """A line of a derived plane: a parallel class or a circle through base."""

    kind: str  # "plus-class" | "minus-class" | "circle"
    pclass: ParallelClass | None = None
    circle: Circle | None = None


def _clamped_fixed_points(m: MobiusMap):
    """Fixed points of a map known to have at least one, clamping rounding.

    Tangency checks compare circles that share a point, so the fixed-point
    discriminant of their quotient map is nonnegative up to rounding; a
    slightly negative value is clamped to the double root instead of being
    classified elliptic. Returns None for genuinely elliptic or identity
    data, which tangency callers treat as non-certifiable.
    """
    disc, *roots = fixed_point_roots(m)
    if disc < -1e-6:
        return None
    pts = [ProjPoint(*root) for root in roots if root != (0.0, 0.0)]
    return pts or None


def parallel(p: TorusPoint, q: TorusPoint, tol: float = EQUALITY_TOL) -> str:
    """Parallelism of two torus points: plus, minus, both, or none."""
    same_x = chordal(p.x, q.x) <= tol
    same_y = chordal(p.y, q.y) <= tol
    if same_x and same_y:
        return "both"
    if same_x:
        return PLUS
    if same_y:
        return MINUS
    return "none"


@dataclass(frozen=True)
class _PencilBranch:
    """One branch of the pencil of circles through two fixed points."""

    name: str
    family: TwoPointFamily
    sign: int  # orientation handed to the family selector
    circle: Callable[[float], Circle]


class PlaneModel:
    """A toroidal circle plane: circle-set membership, join, touch, derive.

    Construct through `classical_plane()` or `half_classical_plane(f, g)`.
    Immutable; all operations are pure, so instances are safe to share
    across threads.
    """

    #: sup distance below which two circles count as equal
    uniq_tol = 1e-7
    #: tangency separation below which two circles count as touching
    tangency_band = 1e-6

    __slots__ = (
        "family",
        "f",
        "g",
        "f_inv",
        "g_inv",
        "tol",
        "scan_grid",
        "corrupt_twisted",
    )

    def __init__(
        self,
        family: str,
        f: CircleHomeo | None = None,
        g: CircleHomeo | None = None,
        tol: float = 1e-9,
        scan_grid: int = SCAN_GRID,
        corrupt_twisted: bool = False,
    ):
        if family not in ("classical", "half-classical"):
            raise ConfigError(f"unknown plane family {family!r}")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ConfigError(f"tol must be finite and positive, got {tol}")
        if scan_grid < 3:
            raise ConfigError(f"scan_grid must be at least 3, got {scan_grid}")
        f = f if f is not None else CircleHomeo.identity()
        g = g if g is not None else CircleHomeo.identity()
        if family == "half-classical":
            if f.orientation != 1 or g.orientation != 1:
                raise ConfigError("twist maps must preserve orientation")
            f.audit_monotone()
            g.audit_monotone()
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f_inv", f.inverse())
        object.__setattr__(self, "g_inv", g.inverse())
        object.__setattr__(self, "tol", float(tol))
        object.__setattr__(self, "scan_grid", int(scan_grid))
        object.__setattr__(self, "corrupt_twisted", bool(corrupt_twisted))

    def __setattr__(self, name, value):
        raise AttributeError("PlaneModel is immutable")

    # -- descriptors ---------------------------------------------------

    def describe(self) -> str:
        if self.family == "classical":
            return "classical"
        parts = [f"f={_describe_homeo(self.f)}", f"g={_describe_homeo(self.g)}"]
        text = f"half-classical({', '.join(parts)})"
        if not _is_identity_homeo(self.g):
            text += "[experimental-g]"
        if self.corrupt_twisted:
            text += "[corrupted-twisted-branch]"
        return text

    @property
    def is_half_classical(self) -> bool:
        return self.family == "half-classical"

    # -- membership ----------------------------------------------------

    def membership_residual(self, circle: Circle, p: TorusPoint) -> float:
        return chordal(circle.graph.apply(p.x), p.y)

    def contains(self, circle: Circle, p: TorusPoint) -> bool:
        return self.membership_residual(circle, p) <= self.tol

    def circle_in_set(self, circle: Circle) -> bool:
        """Whether the circle's branch data matches this plane's circle set."""
        if self.family == "classical":
            return circle.tag == TAG_CLASSICAL and circle.graph.as_mobius() is not None
        if circle.tag == TAG_PSL:
            m = circle.graph.as_mobius()
            return m is not None and m.orientation == 1
        if circle.tag == TAG_TWISTED:
            return circle.mobius.orientation == -1
        return False

    def mobius_circle(self, m: MobiusMap) -> Circle:
        """Wrap a Mobius map as a circle of this plane's circle set."""
        if self.family == "classical":
            return Circle(CircleHomeo.from_mobius(m), TAG_CLASSICAL, m)
        if m.orientation == 1:
            return Circle(CircleHomeo.from_mobius(m), TAG_PSL, m)
        # an orientation-reversing graph must factor through the twists
        nu = self.g.compose(CircleHomeo.from_mobius(m)).compose(self.f_inv).as_mobius()
        if nu is None:
            raise NoBranch("graph does not factor as g^-1 . nu . f")
        return self._twisted_circle(nu)

    def _twisted_circle(self, nu: MobiusMap) -> Circle:
        graph = CircleHomeo(self.f.atoms + (nu,) + self.g_inv.atoms)
        return Circle(graph, TAG_TWISTED, nu)

    # -- joining ---------------------------------------------------------

    def join(self, p: TorusPoint, q: TorusPoint, r: TorusPoint) -> Circle:
        """The circle through three pairwise non-parallel points.

        Classical planes solve one three-point problem. Half-classical
        planes try the orientation-preserving branch first and fall back
        to the twisted branch; exactly one succeeds because the twists
        preserve cyclic order. NoBranch reports a genuine failure of the
        candidate circle set, not a numerical crash.
        """
        for a, b in ((p, q), (p, r), (q, r)):
            if parallel(a, b, self.tol) != "none":
                raise ParallelInput("join requires pairwise non-parallel points")
        mu = mobius_from_three(p.x, q.x, r.x, p.y, q.y, r.y, tol=self.tol)
        if self.family == "classical":
            return Circle(CircleHomeo.from_mobius(mu), TAG_CLASSICAL, mu)
        if mu.orientation == 1:
            return Circle(CircleHomeo.from_mobius(mu), TAG_PSL, mu)
        nu = self._twist_branch_solution(p, q, r)
        if self.corrupt_twisted:
            # deliberate corruption: hand back a det > 0 "member"
            return self._twisted_circle(nu.compose(_NEG))
        if nu.orientation == -1:
            return self._twisted_circle(nu)
        raise NoBranch(
            "neither branch matches: orientation dichotomy failed for this plane"
        )

    def _twist_branch_solution(self, p, q, r) -> MobiusMap:
        f, g = self.f, self.g
        return mobius_from_three(
            f.apply(p.x), f.apply(q.x), f.apply(r.x),
            g.apply(p.y), g.apply(q.y), g.apply(r.y),
            tol=self.tol,
        )

    def join_branches(self, p: TorusPoint, q: TorusPoint, r: TorusPoint):
        """Candidate maps of both branches with their validity flags.

        Used by uniqueness sweeps: in a sound half-classical plane exactly
        one branch is valid for every admissible triple.
        """
        mu = mobius_from_three(p.x, q.x, r.x, p.y, q.y, r.y, tol=self.tol)
        if self.family == "classical":
            return {"pgl": (mu, True)}
        nu = self._twist_branch_solution(p, q, r)
        return {
            "psl": (mu, mu.orientation == 1),
            "twisted": (nu, nu.orientation == -1),
        }

    # -- intersection ------------------------------------------------------

    def circle_intersect(self, c1: Circle, c2: Circle) -> list[TorusPoint]:
        """All common points of two distinct circles, sorted by x-chart.

        Mobius against Mobius reduces to a homogeneous quadratic; twisted
        against twisted reduces to the same quadratic in twist
        coordinates; mixed branches fall back to a bracketed chart scan.
        """
        if homeo_sup_distance(c1.graph, c2.graph, 64) <= self.uniq_tol:
            raise EqualCircles("circles coincide within tolerance")
        xs = self._intersection_points(c1, c2)
        pts = [TorusPoint(x, c1.graph.apply(x)) for x in xs]
        pts.sort(key=lambda pt: pt.x.chart())
        return pts

    def _intersection_points(self, c1: Circle, c2: Circle) -> list[ProjPoint]:
        pair = self._comparable_mobius_pair(c1, c2)
        if pair is not None:
            m1, m2, back = pair
            return [back(u) for u in self._mobius_equation_roots(m1, m2)]
        thetas = graph_equation_zeros(
            c1.graph,
            c2.graph,
            grid=self.scan_grid,
            tangent_band=self.tangency_band,
        )
        roots = []
        inf = ProjPoint.infinity()
        for t in thetas:
            cand = ProjPoint.from_chart(t)
            # the chart cannot represent infinity exactly; snap roots that
            # converged next to it when the graphs genuinely meet there
            if chordal(cand, inf) < 1e-7 and (
                chordal(c1.graph.apply(inf), c2.graph.apply(inf)) <= 10.0 * self.tol
            ):
                cand = inf
            roots.append(cand)
        return roots

    def _mobius_equation_roots(self, m1: MobiusMap, m2: MobiusMap):
        try:
            return mobius_fixed_points(m1.inverse().compose(m2))
        except IdentityMap:
            raise EqualCircles("circles coincide within tolerance") from None

    # -- touching ----------------------------------------------------------

    def touch(self, c: Circle, p: TorusPoint, q: TorusPoint) -> Circle:
        """The circle through p and q meeting c only at p.

        Preconditions: p on c, q off c, p and q non-parallel. Scans the
        pencil of circles through p and q for the member tangent to c;
        Mobius-only branches use the discriminant root in closed form.
        Raises NotFound when no tangent member is located, which callers
        should treat as an axiom-of-touching counterexample candidate.
        """
        if not self.contains(c, p):
            raise PreconditionViolated("p must lie on the circle")
        if self.contains(c, q):
            raise PreconditionViolated("q must not lie on the circle")
        if parallel(p, q, self.tol) != "none":
            raise PreconditionViolated("p and q must be non-parallel")
        branches = self._pencil_branches(p, q)
        # closed-form branches first; the validated tangent is unique, so
        # the first hit short-circuits the slower scanned branch
        branches.sort(
            key=lambda br: self._branch_base_mobius(br, c) is None
        )
        for branch in branches:
            for t in self._branch_tangency_params(branch, c, p):
                _, d, far, sep = self._certified_candidate(branch, c, p, t)
                if not far and sep <= self.tangency_band:
                    return d
        raise NotFound("no tangent pencil member located")

    def _certified_candidate(self, branch: _PencilBranch, c: Circle,
                             p: TorusPoint, t_star: float):
        """Measure a tangency candidate, refining marginal ones on the gap.

        The slope scan and ill-conditioned closed forms can land close to
        but not on the tangency; when the measured separation is marginal,
        one more bisection on the signed secondary gap recovers it.
        """
        d = branch.circle(t_star)
        far, sep = self._tangency_quality(c, d, p)
        if not far and self.tangency_band < sep < 1e-3:
            refined = self._gap_refine(branch, c, p, t_star)
            d2 = branch.circle(refined)
            far2, sep2 = self._tangency_quality(c, d2, p)
            if not far2 and sep2 < sep:
                return refined, d2, far2, sep2
        return t_star, d, far, sep

    def _pencil_branches(self, p: TorusPoint, q: TorusPoint):
        """The branch parametrizations of circles through p and q."""
        fam_xy = TwoPointFamily(p.x, p.y, q.x, q.y, tol=self.tol)

        def mobius_branch(name: str, sign: int, tag: str) -> _PencilBranch:
            return _PencilBranch(
                name=name,
                family=fam_xy,
                sign=sign,
                circle=lambda t: Circle(
                    CircleHomeo.from_mobius(fam_xy.member(t, sign)),
                    tag,
                    fam_xy.member(t, sign),
                ),
            )

        if self.family == "classical":
            return [
                mobius_branch("pgl-positive", 1, TAG_CLASSICAL),
                mobius_branch("pgl-negative", -1, TAG_CLASSICAL),
            ]
        fam_uv = TwoPointFamily(
            self.f.apply(p.x),
            self.g.apply(p.y),
            self.f.apply(q.x),
            self.g.apply(q.y),
            tol=self.tol,
        )
        twisted_sign = 1 if self.corrupt_twisted else -1
        twisted = _PencilBranch(
            name="twisted",
            family=fam_uv,
            sign=twisted_sign,
            circle=lambda t: self._twisted_circle(fam_uv.member(t, twisted_sign)),
        )
        return [mobius_branch("psl", 1, TAG_PSL), twisted]

    def _branch_base_mobius(self, branch: _PencilBranch, c: Circle) -> MobiusMap | None:
        """c expressed as a Mobius map in branch coordinates, when possible."""
        if branch.name in ("pgl-positive", "pgl-negative", "psl"):
            return c.graph.as_mobius()
        if branch.name == "twisted" and c.tag == TAG_TWISTED:
            return c.mobius
        return None

    def _branch_tangency_params(self, branch, c: Circle, p: TorusPoint):
        base = self._branch_base_mobius(branch, c)
        if base is not None:
            return self._closed_form_tangency(branch, base)
        return self._scanned_tangency(branch, c, p)

    def _closed_form_tangency(self, branch: _PencilBranch, base: MobiusMap):
        """Tangency parameters from the fixed-point discriminant root.

        Members at family parameter lam have trace lam*U00 + U11 and
        determinant lam*det(U), so the discriminant is quadratic in lam;
        the shared anchor point forces it to be a perfect square, and its
        double root is the tangency.
        """
        fam = branch.family
        u = fam.pre.m @ base.inverse().m @ fam.post.m
        det_u = float(fam.pre.orientation * base.orientation * fam.post.orientation)
        alpha = u[0, 0] * u[0, 0]
        beta = 2.0 * u[0, 0] * u[1, 1] - 4.0 * det_u
        gamma = u[1, 1] * u[1, 1]
        lam_eff_sign = 1 if fam.base_orientation == branch.sign else -1
        if alpha < 1e-26:
            if abs(beta) < 1e-26:
                return []
            roots = [-gamma / beta]
        else:
            roots = [-beta / (2.0 * alpha)]
        out = []
        for lam in roots:
            if lam * lam_eff_sign > 0.0:
                out.append(abs(lam))
        return out

    def _branch_probe(self, branch: _PencilBranch, c: Circle, p: TorusPoint):
        """Precomputed data for the slope-difference scan along a branch.

        Tangency at p means the member's graph and c touch to first order
        there, so the chart-slope difference at p, measured by a symmetric
        difference quotient, crosses zero exactly at the tangency
        parameter. Twisted members are compared in twist coordinates,
        g(c(x)) against nu(f(x)), which has the same zero set.
        """
        eps = 1e-5
        theta_p = p.x.chart()
        thetas = np.array([theta_p - eps, theta_p + eps])
        x_probe = h_from_chart(thetas)
        if branch.name == "twisted":
            u_probe = self.f.apply_h(x_probe)
            c_side = chart_h(self.g.apply_h(c.graph.apply_h(x_probe)))
        else:
            u_probe = x_probe
            c_side = chart_h(c.graph.apply_h(x_probe))
        fam = branch.family
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
        return {
            "eps": eps,
            "c_side": c_side,
            "u": u_probe,
            "p_mat": fam.post.m @ e11 @ fam.pre.m,
            "q_mat": fam.post.m @ e22 @ fam.pre.m,
            "lam_sign": 1.0 if fam.base_orientation == branch.sign else -1.0,
        }

    @staticmethod
    def _tau_values(probe, ts: np.ndarray):
        """Slope-difference samples over branch parameters; (tau, valid)."""
        lam = probe["lam_sign"] * np.asarray(ts, dtype=float)
        w = lam[:, None, None] * probe["p_mat"] + probe["q_mat"]
        img = np.einsum("kij,jn->kin", w, probe["u"])
        member_side = (np.arctan2(img[:, 0, :], img[:, 1, :]) / math.pi) % 1.0
        delta = wrap_half(probe["c_side"][None, :] - member_side)
        valid = np.all(np.abs(delta) < 0.1, axis=1)
        tau = (delta[:, 1] - delta[:, 0]) / (2.0 * probe["eps"])
        return tau, valid

    _PENCIL_TS = np.logspace(-8.0, 8.0, 16 * 24 + 1)

    def _tau_brackets(self, probe):
        """Sign-change brackets (t_lo, t_hi, tau at t_lo) along the pencil scan."""
        tau, valid = self._tau_values(probe, self._PENCIL_TS)
        ts, tau = self._PENCIL_TS[valid], tau[valid]
        lo, hi = tau[:-1], tau[1:]
        idx = np.nonzero((hi == 0.0) | ((lo != 0.0) & ((lo < 0.0) != (hi < 0.0))))[0]
        return list(zip(ts[idx].tolist(), ts[idx + 1].tolist(), tau[idx].tolist()))

    def _scanned_tangency(self, branch: _PencilBranch, c: Circle, p: TorusPoint):
        """Tangency parameters located by the slope-difference scan.

        A sign change of the slope difference can also sit at a pole
        (a degenerate member); its polish returns a parameter with a
        difference that stays large, and it is discarded. Candidates are
        raw: callers certify them through `_certified_candidate`.
        """
        probe = self._branch_probe(branch, c, p)
        params = []
        for bracket in self._tau_brackets(probe):
            t_star, tau = self._polish_tangency(probe, *bracket)
            if abs(tau) < 0.05:
                params.append(t_star)
        return params

    def _gap_refine(self, branch: _PencilBranch, c: Circle, p: TorusPoint,
                    t_center: float) -> float:
        """Re-bisect a near-tangency on the signed secondary-gap offset."""

        def sigma(t: float):
            offsets = self._resolve_near_gap(c, branch.circle(t), p)
            if not offsets:
                return None
            return min(offsets, key=abs)

        for widen in (1e-5, 1e-3):
            lo, hi = t_center * (1.0 - widen), t_center * (1.0 + widen)
            s_lo, s_hi = sigma(lo), sigma(hi)
            if s_lo is None or s_hi is None:
                continue
            if s_lo == 0.0:
                return lo
            if s_hi == 0.0:
                return hi
            if (s_lo < 0.0) == (s_hi < 0.0):
                continue
            for _ in range(60):
                mid = math.sqrt(lo * hi)
                s_mid = sigma(mid)
                if s_mid is None or s_mid == 0.0 or (hi - lo) <= 1e-15 * hi:
                    return mid
                if (s_mid < 0.0) == (s_lo < 0.0):
                    lo, s_lo = mid, s_mid
                else:
                    hi = mid
            return math.sqrt(lo * hi)
        return t_center

    def _polish_tangency(self, probe, t_lo: float, t_hi: float, tau_lo: float):
        """Bisect a slope-difference sign change down to the tangency.

        Geometric midpoints suit parameters spanning sixteen decades.
        Returns (t, slope difference at t), with the scan's value at t_lo.
        """
        if tau_lo == 0.0:
            return t_lo, tau_lo
        return bisect(lambda ts: self._tau_values(probe, ts)[0], t_lo, t_hi, tau_lo,
                      rtol=1e-13, cap=80, geometric=True)

    # -- tangency measurement ------------------------------------------

    def _resolve_near_gap(self, c: Circle, d: Circle, p: TorusPoint):
        """Signed chart offsets of all crossings near p, p's own zero removed.

        Both circles pass through p, so their crossing function has a known
        zero there; dividing it by sin(pi (theta - theta_p)) leaves every
        other crossing (including the tangency contact itself) as a simple
        zero that stays solvable arbitrarily close to p. Returns a list of
        offsets, empty when no crossing lies within the search window.
        """
        theta_p = p.x.chart()
        s = crossing_function(c.graph, d.graph)

        def g(theta):
            theta = np.asarray(theta, dtype=float)
            dn = np.sin(math.pi * (theta - theta_p))
            return s(theta) / np.where(np.abs(dn) < 1e-12, np.nan, dn)

        window = 0.04
        n = 384  # even count keeps theta_p itself off the grid
        us = theta_p + np.linspace(-window, window, n)
        gv = np.asarray(g(us), dtype=float)
        a, b = gv[:-1], gv[1:]
        flip = np.isfinite(a) & np.isfinite(b) & ((a == 0.0) | ((a < 0.0) != (b < 0.0)))
        offsets = []
        for i in np.nonzero(flip)[0]:
            root, residual = bisect(g, us[i], us[i + 1], a[i], cap=60)
            if math.isfinite(residual):  # not converged onto theta_p itself
                offsets.append(root - theta_p)
        return offsets

    def _tangency_quality(self, c: Circle, d: Circle, p: TorusPoint):
        """(has_far_intersections, worst separation from p) for c against d.

        Mobius-comparable pairs use the quadratic; its root splitting has
        a sqrt(eps)-times-conditioning floor, so marginal readings are
        re-measured on the actual graphs: a scan of their crossing function
        for crossings away from p combined with the factored near-p solver
        for the pair merging at p.
        """
        base_pair = self._comparable_mobius_pair(c, d)
        if base_pair is not None:
            m1, m2, back = base_pair
            roots = _clamped_fixed_points(m1.inverse().compose(m2))
            if roots is None:
                return True, math.inf
            pts = [back(u) for u in roots]
            sep = max(chordal(x, p.x) for x in pts)
            if sep <= self.tangency_band or sep >= 1e-4:
                return False, sep
        theta_p = p.x.chart()
        # crossings only: near a shared pole two graphs get chordally close
        # without meeting, and counting such dips would fabricate far
        # intersections for a genuinely tangent pair
        zeros = graph_equation_zeros(
            c.graph, d.graph, grid=self.scan_grid, tangent_band=0.0
        )
        s = crossing_function(c.graph, d.graph)
        far = []
        for z in zeros:
            off = abs(float(wrap_half(z - theta_p)))
            if off <= 0.03:
                continue
            # a resolvable transversal crossing climbs well out of the
            # rounding floor nearby (a chart difference of 1e-5); a
            # noise-sign flip inside a chordal squeeze does not
            window = z + np.linspace(-0.01, 0.01, 128)
            if float(np.max(np.abs(s(window)))) > math.sin(math.pi * 1e-5):
                far.append(off)
        if far:
            return True, max(far)
        offsets = self._resolve_near_gap(c, d, p)
        if not offsets:
            if base_pair is not None:
                # the quadratic saw a near-merged pair and the graphs show
                # no resolvable crossing: certified at the scan floor
                return False, 0.0
            # no crossing structure near p at all: same-orientation graphs
            # can only meet once by touching, so this cannot be certified
            return True, math.inf
        worst_off = max(offsets, key=abs)
        return False, chordal(ProjPoint.from_chart(theta_p + worst_off), p.x)

    def _comparable_mobius_pair(self, c: Circle, d: Circle):
        """Reduce both circles to Mobius maps in one coordinate, if possible."""
        m1, m2 = c.graph.as_mobius(), d.graph.as_mobius()
        if m1 is not None and m2 is not None:
            return m1, m2, lambda u: u
        if c.tag == TAG_TWISTED and d.tag == TAG_TWISTED:
            return c.mobius, d.mobius, self.f_inv.apply
        return None

    def count_tangency_brackets(self, c: Circle, p: TorusPoint, q: TorusPoint):
        """Full pencil scan: pencil members genuinely tangent to c at p.

        This is the oracle behind touching uniqueness: a sound plane shows
        exactly one validated tangency across all branches for admissible
        (c, p, q). Slope-difference sign changes locate candidates (a
        route independent of the closed-form discriminant used by touch);
        each candidate is then polished and kept only when it meets c
        solely at p, since a slope-matched member of the other branch can
        still cross c a second time elsewhere. Candidates are accepted at
        ten times the tangency band: the counter locates tangency regions,
        while touch() certifies the returned circle at the band itself.
        Returns (count, per-branch detail list).
        """
        details = []
        total = 0
        for branch in self._pencil_branches(p, q):
            roots = []
            for t_star in self._scanned_tangency(branch, c, p):
                if any(abs(t_star - r) <= 1e-6 * max(t_star, r) for r in roots):
                    continue
                t_star, _, far, sep = self._certified_candidate(branch, c, p, t_star)
                if not far and sep <= 10.0 * self.tangency_band:
                    roots.append(t_star)
            total += len(roots)
            details.append((branch.name, len(roots)))
        return total, details

    def tangency_separation(self, c: Circle, d: Circle, p: TorusPoint):
        """(has_far_intersections, worst separation from p) for two circles.

        The public face of the tangency check: a genuine touch at p shows
        no far intersections and a separation below the tangency band.
        """
        return self._tangency_quality(c, d, p)

    # -- derived planes --------------------------------------------------

    def derived_line_through(
        self, base: TorusPoint, a: TorusPoint, b: TorusPoint
    ) -> DerivedLine:
        """The unique derived-plane line at `base` through two points.

        Parallel point pairs give their parallel class; everything else
        is the circle through base and both points, restricted to the
        derived point set.
        """
        for pt in (a, b):
            if parallel(pt, base, self.tol) != "none":
                raise PointOnBaseCross("point lies on the base point's cross")
        rel = parallel(a, b, self.tol)
        if rel == "both":
            raise CoincidentPoints("derived points must be distinct")
        if rel == PLUS:
            return DerivedLine(kind="plus-class", pclass=ParallelClass(PLUS, a.x))
        if rel == MINUS:
            return DerivedLine(kind="minus-class", pclass=ParallelClass(MINUS, a.y))
        return DerivedLine(kind="circle", circle=self.join(base, a, b))


def classical_plane(tol: float = 1e-9) -> PlaneModel:
    """The classical flat Minkowski plane: circles are all PGL(2, R) graphs."""
    return PlaneModel("classical", tol=tol)


def half_classical_plane(
    f: CircleHomeo, g: CircleHomeo | None = None, tol: float = 1e-9
) -> PlaneModel:
    """Half-classical plane M(f, g); the theorems' planes use g = id."""
    return PlaneModel("half-classical", f=f, g=g, tol=tol)


def corrupted_half_classical(f: CircleHomeo) -> PlaneModel:
    """Negative-control fixture: the twisted branch hands out det > 0 members.

    Its joins return circles that miss the input points and fall outside
    the declared circle set, so the joining suite must fail on it.
    """
    return PlaneModel("half-classical", f=f, corrupt_twisted=True)


# ----------------------------------------------------------------------
# configuration parsing (the plane configuration block)


def homeo_from_spec(spec: str) -> CircleHomeo:
    """Parse a twist-map spec: `id`, `power:<p>`, or `spline:<path>`."""
    spec = spec.strip()
    if spec in ("id", "identity"):
        return CircleHomeo.identity()
    if spec.startswith("power:"):
        try:
            return CircleHomeo.power(float(spec[len("power:"):]))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad power spec {spec!r}: {exc}") from None
    if spec.startswith("spline:"):
        path = spec[len("spline:"):]
        return CircleHomeo((load_spline_knots(path),))
    raise ConfigError(f"unknown twist-map spec {spec!r}")


def _describe_homeo(h: CircleHomeo) -> str:
    if not h.atoms:
        return "id"
    names = []
    for atom in h.atoms:
        if isinstance(atom, MobiusMap):
            names.append("mobius")
        elif hasattr(atom, "exponent"):
            names.append(f"power:{atom.exponent:g}")
        else:
            names.append(f"spline:{len(atom.knots)}")
    return "+".join(names)


def _is_identity_homeo(h: CircleHomeo) -> bool:
    m = h.as_mobius()
    return m is not None and m.is_identity()


def parse_config_text(text: str) -> dict:
    """Parse a flat `key = value` configuration block."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def plane_from_config(cfg: dict) -> PlaneModel:
    """Build a plane from a configuration mapping.

    Keys: `family` (default classical), `f` and `g` (twist-map specs,
    default id; the classical plane takes no other) and `tolerance`.
    """
    family = cfg.get("family", "classical")
    try:
        tol = float(cfg.get("tolerance", 1e-9))
    except ValueError:
        raise ConfigError(f"bad tolerance {cfg['tolerance']!r}") from None
    f = homeo_from_spec(cfg.get("f", "id"))
    g = homeo_from_spec(cfg.get("g", "id"))
    if family == "classical" and (f.atoms or g.atoms):
        raise ConfigError("the classical plane has no twist maps: f and g must be id")
    return PlaneModel(family, f, g, tol=tol)


def plane_spec_config(spec: str) -> dict:
    """The configuration keys a compact plane spec names.

    `classical` names the family; `half:power:<p>[:<g-spec>]`,
    `half:id[:<g-spec>]` and `half:spline:<path>` (the whole rest is the
    path) name the half-classical family, f and, when given, g.
    """
    spec = spec.strip()
    if spec == "classical":
        return {"family": "classical"}
    if spec.startswith("half:"):
        rest = spec[len("half:"):]
        if rest.startswith("spline:"):
            return {"family": "half-classical", "f": rest}
        parts = rest.split(":")
        if parts[0] in ("power", "id", "identity"):
            split = 2 if parts[0] == "power" else 1
            cfg = {"family": "half-classical", "f": ":".join(parts[:split])}
            g = ":".join(parts[split:])
            if g:
                cfg["g"] = g
            return cfg
    raise ConfigError(f"unknown plane spec {spec!r}")


def parse_plane_spec(spec: str) -> PlaneModel:
    """Parse a compact plane spec: `classical` or `half:power:2[:g-spec]`."""
    return plane_from_config(plane_spec_config(spec))
