"""Toroidal circle plane models: classical and half-classical.

A plane carries the torus S^1 x S^1 as point set, verticals and
horizontals as parallel classes, and a circle set of homeomorphism
graphs:

* classical: graphs of all of PGL(2, R);
* half-classical, twist maps f and g: graphs of PSL(2, R) members plus
  graphs g^-1 . nu . f for orientation-reversing Mobius nu.

The orientation dichotomy splits the circle set exactly, so joining
resolves its branch from the sign of a determinant, never from a
tolerance. It settles touching too: circles of different branches have
opposite orientations, so their graphs cross twice, and circles of one
branch are Mobius maps in shared coordinates (x to y, or f(x) to g(y)).
There, with c's map A, u = p's coordinate, e = (-u1, u0) and det(a, b)
= a0 b1 - a1 b0, the pencil lam det(Xp, h) Yq + det(Xq, h) Yp through p
and q (sources X, targets Y) holds the member tangent to c at p for
lam* = -[det(Xq, e) det(Au, Yp) + det(Xq, u) det(Ae, Yp)] / [det(u, e)
det(Au, Yq)], and a circle D through p meets c again at phi2 u - phi1 e,
with phi1 = det(Au, De) + det(Ae, Du) and phi2 = det(Ae, De); no chart
scan is needed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
    CircleHomeo,
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
    chordal,
    mobius_fixed_points,
    mobius_from_three,
)

PLUS = "plus"
MINUS = "minus"

TAG_CLASSICAL = "classical-PGL"
TAG_PSL = "half-classical-PSL"
TAG_TWISTED = "half-classical-twisted"


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


def _pair(x: ProjPoint) -> tuple:
    return x.h0, x.h1


def _det(a, b) -> float:
    """det(a, b) = a0 b1 - a1 b0 of two homogeneous pairs."""
    return a[0] * b[1] - a[1] * b[0]


def _images(m: MobiusMap, u):
    """m's linear action (`lift_h`) on the pair u and on e = (-u1, u0)."""
    (mu0, me0), (mu1, me1) = m.lift_h(np.array([[u[0], -u[1]], [u[1], u[0]]])).tolist()
    return (mu0, mu1), (me0, me1)


def _tangency_parameter(a: MobiusMap, fam: TwoPointFamily) -> float:
    """lam* of the family member tangent at Xp to the circle with map A.

    In the coordinates the family shares with c (c's map A), members
    M(lam) h = lam det(Xp, h) Yq + det(Xq, h) Yp meet c where
    det(A h, M(lam) h) vanishes. At h = u + t e (u = Xp, e = (-u1, u0))
    its t-coefficient is linear in lam and zero at lam* = -[det(Xq, e)
    det(Au, Yp) + det(Xq, u) det(Ae, Yp)] / [det(u, e) det(Au, Yq)];
    NaN when the denominator vanishes.
    """
    u, xq, yp, yq = _pair(fam.xp), _pair(fam.xq), _pair(fam.yp), _pair(fam.yq)
    e = (-u[1], u[0])
    au, ae = _images(a, u)
    den = _det(u, e) * _det(au, yq)
    num = _det(xq, e) * _det(au, yp) + _det(xq, u) * _det(ae, yp)
    return -num / den if den != 0.0 else math.nan


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
    )

    def __init__(self, family: str, f: CircleHomeo | None = None,
                 g: CircleHomeo | None = None, tol: float = 1e-9):
        if family not in ("classical", "half-classical"):
            raise ConfigError(f"unknown plane family {family!r}")
        if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0.0):
            raise ConfigError(f"tol must be finite and positive, got {tol!r}")
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
        candidate circle set, not a numerical crash; a steep twist that
        maps the points within tolerance of each other is one.
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
        if nu is None:
            raise NoBranch("the twisted branch's images coincide within tolerance")
        if nu.orientation == -1:
            return self._twisted_circle(nu)
        raise NoBranch(
            "neither branch matches: orientation dichotomy failed for this plane"
        )

    def _twist_branch_solution(self, p, q, r) -> MobiusMap | None:
        """The twisted branch's nu; None when the twisted images coincide."""
        f, g = self.f, self.g
        try:
            return mobius_from_three(
                f.apply(p.x), f.apply(q.x), f.apply(r.x),
                g.apply(p.y), g.apply(q.y), g.apply(r.y),
                tol=self.tol,
            )
        except CoincidentPoints:
            return None

    def join_branches(self, p: TorusPoint, q: TorusPoint, r: TorusPoint):
        """Candidate maps of both branches with their validity flags.

        Used by uniqueness sweeps: in a sound half-classical plane exactly
        one branch is valid for every admissible triple. Where the twisted
        images coincide within tolerance, the twisted branch is invalid
        and its map is None.
        """
        mu = mobius_from_three(p.x, q.x, r.x, p.y, q.y, r.y, tol=self.tol)
        if self.family == "classical":
            return {"pgl": (mu, True)}
        nu = self._twist_branch_solution(p, q, r)
        return {
            "psl": (mu, mu.orientation == 1),
            "twisted": (nu, nu is not None and nu.orientation == -1),
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
        thetas = graph_equation_zeros(c1.graph, c2.graph)
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

        Preconditions: p on c, q off c, p and q non-parallel. Only c's own
        branch of the pencil of circles through p and q can hold a member
        tangent to c at p, as the other reverses c's orientation. So touch
        builds one TwoPointFamily, in c's coordinates (x to y, or f(x) to
        g(y) when c is twisted), and takes its member at the closed-form
        lam* of `_tangency_parameter`, whose sign sets the orientation; on
        half-classical planes it must be c's (+1 for PSL, -1 twisted). The
        member holds p and q by construction (see TwoPointFamily) and is
        returned when its `tangency_separation` is within the tangency
        band. Raises NotFound otherwise, an axiom-of-touching
        counterexample candidate.
        """
        if not self.contains(c, p):
            raise PreconditionViolated("p must lie on the circle")
        if self.contains(c, q):
            raise PreconditionViolated("q must not lie on the circle")
        if parallel(p, q, self.tol) != "none":
            raise PreconditionViolated("p and q must be non-parallel")
        twisted = c.tag == TAG_TWISTED
        anchors = (p.x, p.y, q.x, q.y)
        if twisted:
            anchors = (self.f.apply(p.x), self.g.apply(p.y), self.f.apply(q.x), self.g.apply(q.y))
        fam = TwoPointFamily(*anchors, tol=self.tol)
        lam = _tangency_parameter(c.mobius, fam)
        orientation = fam.base_orientation if lam > 0.0 else -fam.base_orientation
        if not (math.isfinite(lam) and lam != 0.0) or (
            self.is_half_classical and orientation != (-1 if twisted else 1)
        ):
            raise NotFound("lam* gives no member of the carrier's branch")
        try:
            m = fam.member(abs(lam), orientation)
        except PreconditionViolated:
            raise NotFound("the tangent member is singular in floating point") from None
        d = self._twisted_circle(m) if twisted else self.mobius_circle(m)
        far, sep = self.tangency_separation(c, d, p)
        if far or not sep <= self.tangency_band:
            raise NotFound(f"the tangent member's separation {sep:.3e} is beyond the band")
        return d

    # -- tangency measurement ------------------------------------------

    def tangency_separation(self, c: Circle, d: Circle, p: TorusPoint):
        """(has_far_intersections, worst separation from p) for two circles.

        A genuine touch at p shows no far intersections and a separation
        below the tangency band. In shared coordinates c and d are Mobius
        maps A and D through u = p.x there; with e = (-u1, u0),
        det(A h, D h) at h = s u + t e is t (s phi1 + t phi2), where
        phi1 = det(Au, De) + det(Ae, Du) and phi2 = det(Ae, De), so the
        other common point is phi2 u - phi1 e, measured from p in x. The
        shared coordinates are x to y when neither circle is twisted and
        f(x) to g(y) when both are. Equal circles (phi1 = phi2 = 0) and
        circles of different branches, whose opposite orientations cross
        twice, are far.
        """
        twisted = d.tag == TAG_TWISTED
        if (c.tag == TAG_TWISTED) != twisted:
            return True, math.inf
        u = _pair(self.f.apply(p.x) if twisted else p.x)
        e = (-u[1], u[0])
        (au, ae), (du, de) = _images(c.mobius, u), _images(d.mobius, u)
        phi1 = _det(au, de) + _det(ae, du)
        phi2 = _det(ae, de)
        if phi1 == 0.0 and phi2 == 0.0:
            return True, math.inf
        other = ProjPoint(phi2 * u[0] - phi1 * e[0], phi2 * u[1] - phi1 * e[1])
        return False, chordal(self.f_inv.apply(other) if twisted else other, p.x)

    def _comparable_mobius_pair(self, c: Circle, d: Circle):
        """Reduce both circles to Mobius maps in one coordinate, if possible.

        Collapsing with `as_mobius` before reading tags also solves mixed
        pairs exactly where the twists are Mobius (`half:id`); the tag rule
        of `tangency_separation` would scan them, moving points by ~2e-10.
        Touching keeps the tag rule for `FrameMember`'s unsummed action.
        """
        m1, m2 = c.graph.as_mobius(), d.graph.as_mobius()
        if m1 is not None and m2 is not None:
            return m1, m2, lambda u: u
        if c.tag == TAG_TWISTED and d.tag == TAG_TWISTED:
            return c.mobius, d.mobius, self.f_inv.apply
        return None

    def count_tangency_brackets(self, c: Circle, p: TorusPoint, q: TorusPoint) -> int:
        """1 when touch() finds its tangent to c at p through q, 0 on NotFound.

        Nothing in the library calls it: the benchmark's tracer still wraps
        this name. The benchmark change that retires the known-defect
        screening (ROADMAP item 2) drops that span, and the method goes
        after it.
        """
        try:
            self.touch(c, p, q)
        except NotFound:
            return 0
        return 1

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
