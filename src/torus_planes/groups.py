"""Parametrized automorphism families of toroidal circle planes.

Five families act on torus points, all componentwise:

* KernelPlusPSL(mu):  (x, y) -> (x, mu(y)),   fixing every vertical;
* KernelMinusPSL(mu): (x, y) -> (mu(x), y),   fixing every horizontal;
* DiagonalPSL(mu):    (x, y) -> (mu(x), mu(y));
* PhiStd(d, a, b, c): (x, y) -> (a x + b, a^d y + c) for finite d, and
  (x, y) -> (x + b, a y + c) for d = inf;
* PhiTwoFixed(d, a, b, c), d <= 0: (x, y) -> (a x, b y + c) for d = 0 and
  (x, y) -> (a sgn(x) |x|^b, b^d y + c) for d < 0.

Affine formulas extend projectively, so infinity maps to infinity on each
factor and the common fixed points of the Phi families are where the
classification puts them. The sixth family of the classification has a
known action only on the parallel-class sets, so it ships as a pair of
factor maps (`Case3Element`), never as a point map.

Composition laws are closed-form in the parameters; each is locked by a
pointwise double-application oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, FamilyMismatch, PreconditionViolated
from .homeo import CircleHomeo, PowerMap, wrapped_zeros
from .projline import (
    MobiusMap,
    ProjPoint,
    TorusPoint,
    TwoPointFamily,
    chart_h,
    chordal,
    h_from_chart,
    mobius_fixed_points,
    wrap_half,
)
from .planes import MINUS, PLUS, ParallelClass


def _require_psl(mu: MobiusMap) -> MobiusMap:
    if mu.orientation != 1:
        raise ConfigError("family requires a det > 0 (PSL) member")
    return mu


class _FactorwiseElement:
    """Shared plumbing: immutable elements acting through factor_homeos()."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("group elements are immutable")

    def act(self, p: TorusPoint) -> TorusPoint:
        hx, hy = self.factor_homeos()
        return TorusPoint(hx.apply(p.x), hy.apply(p.y))


class _MobiusFamilyElement(_FactorwiseElement):
    """Shared plumbing for the three PSL-parametrized families."""

    __slots__ = ("mu",)
    family: str

    def __init__(self, mu: MobiusMap):
        object.__setattr__(self, "mu", _require_psl(mu))

    @classmethod
    def identity(cls):
        return cls(MobiusMap.identity())

    def is_identity(self, tol: float = 1e-12) -> bool:
        return self.mu.is_identity(tol)

    def compose(self, other):
        if type(other) is not type(self):
            raise FamilyMismatch(
                f"cannot compose {self.family} with {getattr(other, 'family', '?')}"
            )
        return type(self)(self.mu.compose(other.mu))

    def inverse(self):
        return type(self)(self.mu.inverse())

    def __repr__(self):
        return f"{type(self).__name__}({self.mu!r})"


class KernelPlusPSL(_MobiusFamilyElement):
    """PSL acting on the second factor only; every (+)-class is fixed."""

    family = "kernel-plus-psl"

    def factor_homeos(self):
        return CircleHomeo.identity(), CircleHomeo.from_mobius(self.mu)


class KernelMinusPSL(_MobiusFamilyElement):
    """PSL acting on the first factor only; every (-)-class is fixed."""

    family = "kernel-minus-psl"

    def factor_homeos(self):
        return CircleHomeo.from_mobius(self.mu), CircleHomeo.identity()


class DiagonalPSL(_MobiusFamilyElement):
    """PSL acting identically on both factors; fixes the diagonal circle."""

    family = "diagonal-psl"

    def factor_homeos(self):
        h = CircleHomeo.from_mobius(self.mu)
        return h, h


class PhiStd(_FactorwiseElement):
    """The affine family with one fixed point at (inf, inf).

    Finite exponent d couples the y-scale to the x-scale as a^d; d = inf
    decouples them into (x + b, a y + c).
    """

    __slots__ = ("d", "a", "b", "c")
    family = "phi-std"

    def __init__(self, d: float, a: float, b: float, c: float):
        if not (a > 0.0):
            raise ConfigError("PhiStd requires a > 0")
        object.__setattr__(self, "d", float(d))
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))
        object.__setattr__(self, "c", float(c))

    @classmethod
    def identity(cls, d: float):
        return cls(d, 1.0, 0.0, 0.0)

    def is_identity(self, tol: float = 1e-12) -> bool:
        return abs(self.a - 1.0) <= tol and abs(self.b) <= tol and abs(self.c) <= tol

    def _same_family(self, other) -> bool:
        return isinstance(other, PhiStd) and (
            self.d == other.d or (math.isinf(self.d) and math.isinf(other.d))
        )

    def compose(self, other: "PhiStd") -> "PhiStd":
        if not self._same_family(other):
            raise FamilyMismatch("PhiStd elements must share the exponent d")
        if math.isinf(self.d):
            return PhiStd(
                self.d,
                self.a * other.a,
                self.b + other.b,
                self.a * other.c + self.c,
            )
        return PhiStd(
            self.d,
            self.a * other.a,
            self.a * other.b + self.b,
            (self.a ** self.d) * other.c + self.c,
        )

    def inverse(self) -> "PhiStd":
        if math.isinf(self.d):
            return PhiStd(self.d, 1.0 / self.a, -self.b, -self.c / self.a)
        return PhiStd(
            self.d, 1.0 / self.a, -self.b / self.a, -self.c * self.a ** (-self.d)
        )

    def factor_homeos(self):
        if math.isinf(self.d):
            return (
                CircleHomeo.from_mobius(MobiusMap.affine(1.0, self.b)),
                CircleHomeo.from_mobius(MobiusMap.affine(self.a, self.c)),
            )
        return (
            CircleHomeo.from_mobius(MobiusMap.affine(self.a, self.b)),
            CircleHomeo.from_mobius(MobiusMap.affine(self.a ** self.d, self.c)),
        )

    def __repr__(self):
        d = "inf" if math.isinf(self.d) else f"{self.d:g}"
        return f"PhiStd(d={d}, a={self.a:g}, b={self.b:g}, c={self.c:g})"


class PhiTwoFixed(_FactorwiseElement):
    """The family with the two fixed parallel points (inf, inf) and (0, inf).

    For d = 0 the action is (a x, b y + c); for d < 0 the first factor
    twists through the power map, (a sgn(x) |x|^b, b^d y + c).
    """

    __slots__ = ("d", "a", "b", "c")
    family = "phi-two-fixed"

    def __init__(self, d: float, a: float, b: float, c: float):
        if d > 0.0 or math.isinf(d):
            raise ConfigError("PhiTwoFixed requires d <= 0, finite")
        if not (a > 0.0 and b > 0.0):
            raise ConfigError("PhiTwoFixed requires a > 0 and b > 0")
        object.__setattr__(self, "d", float(d))
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))
        object.__setattr__(self, "c", float(c))

    @classmethod
    def identity(cls, d: float):
        return cls(d, 1.0, 1.0, 0.0)

    def is_identity(self, tol: float = 1e-12) -> bool:
        return (
            abs(self.a - 1.0) <= tol
            and abs(self.b - 1.0) <= tol
            and abs(self.c) <= tol
        )

    def _same_family(self, other) -> bool:
        return isinstance(other, PhiTwoFixed) and self.d == other.d

    def compose(self, other: "PhiTwoFixed") -> "PhiTwoFixed":
        if not self._same_family(other):
            raise FamilyMismatch("PhiTwoFixed elements must share the exponent d")
        if self.d == 0.0:
            return PhiTwoFixed(
                self.d,
                self.a * other.a,
                self.b * other.b,
                self.b * other.c + self.c,
            )
        return PhiTwoFixed(
            self.d,
            self.a * other.a ** self.b,
            self.b * other.b,
            (self.b ** self.d) * other.c + self.c,
        )

    def inverse(self) -> "PhiTwoFixed":
        if self.d == 0.0:
            return PhiTwoFixed(self.d, 1.0 / self.a, 1.0 / self.b, -self.c / self.b)
        return PhiTwoFixed(
            self.d,
            self.a ** (-1.0 / self.b),
            1.0 / self.b,
            -self.c * self.b ** (-self.d),
        )

    def factor_homeos(self):
        if self.d == 0.0:
            # the d = 0 member acts as (a x, b y + c), not via b^d = 1
            return (
                CircleHomeo.from_mobius(MobiusMap.scaling(self.a)),
                CircleHomeo.from_mobius(MobiusMap.affine(self.b, self.c)),
            )
        hx = CircleHomeo((PowerMap(self.b), MobiusMap.scaling(self.a)))
        hy = CircleHomeo.from_mobius(MobiusMap.affine(self.b ** self.d, self.c))
        return hx, hy

    def __repr__(self):
        return (
            f"PhiTwoFixed(d={self.d:g}, a={self.a:g}, b={self.b:g}, c={self.c:g})"
        )


def act(g, p: TorusPoint) -> TorusPoint:
    """Apply a group element to a torus point."""
    return g.act(p)


def compose(g1, g2):
    """Closed-form composite with act(compose(g1, g2), p) = g1(g2(p))."""
    try:
        return g1.compose(g2)
    except FamilyMismatch:
        raise
    except AttributeError:
        raise FamilyMismatch("not a group element") from None


# ----------------------------------------------------------------------
# induced actions on the parallel-class sets


@dataclass(frozen=True)
class FactorActionReport:
    """Classification of an induced action on one set of parallel classes."""

    side: str
    action_kind: str  # trivial | SO2-on-circle | L2-on-line | PSL-on-circle
    fixes_every_class: bool
    fixed_classes: tuple


def _classify_factor(h: CircleHomeo) -> str:
    m = h.as_mobius()
    if m is not None:
        if m.is_identity(1e-12):
            return "trivial"
        mat = m.m
        if abs(mat[0, 0] - mat[1, 1]) <= 1e-12 and abs(mat[0, 1] + mat[1, 0]) <= 1e-12:
            return "SO2-on-circle"
        if abs(mat[1, 0]) <= 1e-12:
            return "L2-on-line"
        return "PSL-on-circle"
    # power-map chains are affine conjugated by the power chart
    return "L2-on-line"


def fixed_coordinates(h: CircleHomeo):
    """Fixed points of a circle map: (fixes_everything, points).

    Mobius chains use the exact eigenvector solver; anything else falls
    back to a 512-point chart scan with bisection and tangential-minimum
    refinement. The point at infinity is checked explicitly (the chart
    cannot represent it exactly), and scan artifacts converging to it are
    absorbed: a map contracting toward infinity leaves a visible chordal
    residual at any nearby finite point.
    """
    m = h.as_mobius()
    if m is not None:
        if m.is_identity(1e-12):
            return True, ()
        return False, tuple(mobius_fixed_points(m))

    def delta(theta):
        hh = h_from_chart(theta)
        return wrap_half(chart_h(h.apply_h(hh)) - theta)

    inf = ProjPoint.infinity()
    inf_fixed = chordal(h.apply(inf), inf) <= 1e-9
    thetas = wrapped_zeros(delta, grid=512, tangent_band=1e-7)
    pts = [inf] if inf_fixed else []
    for t in thetas:
        cand = ProjPoint.from_chart(t)
        if chordal(cand, inf) <= 1e-5:
            continue  # the infinity check above owns this neighbourhood
        if chordal(h.apply(cand), cand) <= 1e-8:
            pts.append(cand)
    return False, tuple(pts)


def induced_factor_action(g, side: str):
    """The action induced on (+)- or (-)-parallel-class coordinates.

    Returns the coordinate map together with a report that classifies the
    action and lists the fixed classes located by the coordinate scan.
    """
    if side not in (PLUS, MINUS):
        raise ConfigError("side must be 'plus' or 'minus'")
    hx, hy = g.factor_homeos()
    h = hx if side == PLUS else hy
    fixes_all, pts = fixed_coordinates(h)
    classes = tuple(ParallelClass(side, p) for p in pts)
    report = FactorActionReport(
        side=side,
        action_kind=_classify_factor(h),
        fixes_every_class=fixes_all,
        fixed_classes=classes,
    )
    return h, report


def factor_fixed_sets(g):
    """Fixed coordinates of both factor maps as (fixes_all, points) pairs."""
    hx, hy = g.factor_homeos()
    return fixed_coordinates(hx), fixed_coordinates(hy)


# ----------------------------------------------------------------------
# the factor-action-only family L2 x SO(2)


class Case3Element:
    """One element of the L2 x SO(2) family, shipped as factor maps only.

    No toroidal circle plane with this automorphism type is known, and no
    point-set action is on record, so the element exposes the rotation it
    induces on (-)-classes and the affine map on (+)-classes (the fixed
    class pinned at infinity), never a torus map.
    """

    __slots__ = ("angle", "a", "b")
    family = "case3-factor"

    def __init__(self, angle: float, a: float, b: float):
        if not (a > 0.0):
            raise ConfigError("the affine factor requires a > 0")
        object.__setattr__(self, "angle", float(angle) % (2.0 * math.pi))
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))

    def __setattr__(self, name, value):
        raise AttributeError("group elements are immutable")

    @classmethod
    def identity(cls):
        return cls(0.0, 1.0, 0.0)

    @property
    def plus_map(self) -> CircleHomeo:
        return CircleHomeo.from_mobius(MobiusMap.affine(self.a, self.b))

    @property
    def minus_map(self) -> CircleHomeo:
        return CircleHomeo.from_mobius(
            MobiusMap.rotation(self.angle / (2.0 * math.pi))
        )

    def factor_maps(self):
        return self.plus_map, self.minus_map

    def compose(self, other: "Case3Element") -> "Case3Element":
        if not isinstance(other, Case3Element):
            raise FamilyMismatch("cannot compose across families")
        return Case3Element(
            self.angle + other.angle,
            self.a * other.a,
            self.a * other.b + self.b,
        )

    def inverse(self) -> "Case3Element":
        return Case3Element(-self.angle, 1.0 / self.a, -self.b / self.a)

    def is_identity(self, tol: float = 1e-12) -> bool:
        ang = min(self.angle, 2.0 * math.pi - self.angle)
        return ang <= tol and abs(self.a - 1.0) <= tol and abs(self.b) <= tol

    def __repr__(self):
        return f"Case3Element(angle={self.angle:g}, a={self.a:g}, b={self.b:g})"


# ----------------------------------------------------------------------
# transitivity witnesses


def diagonal_transitivity_witness(src: TorusPoint, dst: TorusPoint) -> DiagonalPSL:
    """A det > 0 diagonal element sending one off-diagonal point to another.

    Solves the two-point problem mu(src.x) = dst.x, mu(src.y) = dst.y and
    selects the orientation-preserving member, witnessing transitivity of
    the diagonal action off the diagonal.
    """
    fam = TwoPointFamily(src.x, dst.x, src.y, dst.y)
    return DiagonalPSL(fam.member(1.0, 1))


# ----------------------------------------------------------------------
# group-element literals

#: literal head of each PSL-parametrized family
PSL_FAMILIES = {"diag": DiagonalPSL, "kplus": KernelPlusPSL, "kminus": KernelMinusPSL}


def _parse_psl_entries(text: str) -> MobiusMap:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("expected four comma-separated matrix entries")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad matrix entry: {exc}") from None
    m = MobiusMap([[a, b], [c, d]])
    if m.orientation != 1:
        raise ConfigError("psl literal requires det > 0")
    return m


def _parse_d(text: str) -> float:
    if text.strip() in ("inf", "+inf", "oo"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad exponent {text!r}: {exc}") from None


def parse_group_literal(literal: str):
    """Parse a group-element literal.

    Formats: `diag:psl:<m00,m01,m10,m11>`, `kplus:psl:<entries>`,
    `kminus:psl:<entries>`, `phi:<d>:<a>:<b>:<c>`, `phi2:<d>:<a>:<b>:<c>`,
    `case3:<angle>:<a>:<b>`.
    """
    parts = literal.strip().split(":")
    try:
        head = parts[0]
        if head in PSL_FAMILIES:
            if len(parts) != 3 or parts[1] != "psl":
                raise ConfigError(f"malformed literal {literal!r}")
            return PSL_FAMILIES[head](_parse_psl_entries(parts[2]))
        if head == "phi":
            if len(parts) != 5:
                raise ConfigError(f"malformed literal {literal!r}")
            return PhiStd(_parse_d(parts[1]), *(float(p) for p in parts[2:]))
        if head == "phi2":
            if len(parts) != 5:
                raise ConfigError(f"malformed literal {literal!r}")
            return PhiTwoFixed(_parse_d(parts[1]), *(float(p) for p in parts[2:]))
        if head == "case3":
            if len(parts) != 4:
                raise ConfigError(f"malformed literal {literal!r}")
            return Case3Element(*(float(p) for p in parts[1:]))
    except ConfigError:
        raise
    except (ValueError, IndexError, PreconditionViolated) as exc:
        raise ConfigError(f"malformed literal {literal!r}: {exc}") from None
    raise ConfigError(f"unknown group family in literal {literal!r}")


def group_literal(g) -> str:
    """Literal round-trip of a group element, for manifests and reports."""
    for head, cls in PSL_FAMILIES.items():
        if type(g) is cls:
            entries = ",".join(f"{v:.12g}" for v in g.mu.m.ravel())
            return f"{head}:psl:{entries}"
    if isinstance(g, PhiStd):
        d = "inf" if math.isinf(g.d) else f"{g.d:.12g}"
        return f"phi:{d}:{g.a:.12g}:{g.b:.12g}:{g.c:.12g}"
    if isinstance(g, PhiTwoFixed):
        return f"phi2:{g.d:.12g}:{g.a:.12g}:{g.b:.12g}:{g.c:.12g}"
    if isinstance(g, Case3Element):
        return f"case3:{g.angle:.12g}:{g.a:.12g}:{g.b:.12g}"
    raise ConfigError(f"not a group element: {g!r}")
