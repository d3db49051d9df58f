"""Parametrized automorphism families of toroidal circle planes.

Six families, each declared once by its class. Five act on torus points,
all componentwise:

* KernelPlusPSL(mu):  (x, y) -> (x, mu(y)),   fixing every vertical;
* KernelMinusPSL(mu): (x, y) -> (mu(x), y),   fixing every horizontal;
* DiagonalPSL(mu):    (x, y) -> (mu(x), mu(y));
* PhiStd(d, a, b, c): (x, y) -> (a x + b, a^d y + c) for finite d, and
  (x, y) -> (x + b, a y + c) for d = inf;
* PhiTwoFixed(d, a, b, c), d <= 0: (x, y) -> (a x, b y + c) for d = 0 and
  (x, y) -> (a sgn(x) |x|^b, b^d y + c) for d < 0.

Affine formulas extend projectively, so infinity maps to infinity on each
factor and the common fixed points of the Phi families are where the
classification puts them. The sixth family of the classification,
L2 x SO(2), has a known action only on the parallel-class sets, so
`Case3Element` has factor maps and no point map.

Every element has `factor_homeos()` (the x- and y-factor circle maps),
`compose`, `inverse` and `identity`. Composition laws are closed-form in
the parameters; each is locked by a pointwise double-application oracle
in the tests.

A class declares its literal head, the numbers its literal carries, how
many of them name the family rather than the element (d for the Phi
families), the remaining numbers of its identity (`identity_params`) and
its fixed-configuration sample; `FAMILIES` maps heads to classes, and
`identity`, `parse_group_literal`, `group_literal`, `family_key_of` and
`family_sample` read only those declarations. One check,
`_require_same_family`, compares the type and the key numbers of two
elements before they compose; it is the only source of FamilyMismatch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    ConfigError,
    FamilyMismatch,
    IdentityMap,
    PreconditionViolated,
    UnsupportedPlane,
)
from .homeo import CircleHomeo, PowerMap
from .projline import (
    EQUALITY_TOL,
    MobiusMap,
    ProjPoint,
    TorusPoint,
    TwoPointFamily,
    _Frozen,
    mobius_fixed_points,
)
from .planes import MINUS, PLUS, ParallelClass


class _GroupElement(_Frozen):
    """An immutable element of one family, declared by its class attributes.

    `head` names the family in literals, written `head:` + `literal_form[0]`
    + the numbers `params()` joined by `literal_form[1]`; `fields` names
    those numbers, so its length is the literal's arity. The first
    `key_arity` of them name the family itself; `identity_params` holds
    the remaining numbers of the identity, and `sample` those of each
    fixed-configuration sample element. `__init__` stores each field as a
    float; the PSL families store their map instead.
    """

    __slots__ = ()
    head: str
    fields: tuple
    identity_params: tuple
    literal_form = ("", ":")
    key_arity = 0
    sample = ()

    def __init__(self, *values):
        for name, value in zip(self.fields, values):
            object.__setattr__(self, name, float(value))

    @classmethod
    def from_params(cls, *values):
        return cls(*values)

    @classmethod
    def identity(cls, *key):
        """The identity of the family that the key numbers (d, if any) name."""
        return cls.from_params(*key, *cls.identity_params)

    def params(self) -> tuple:
        return tuple(getattr(self, name) for name in self.fields)

    def _require_same_family(self, other) -> None:
        k = self.key_arity
        if type(other) is not type(self) or other.params()[:k] != self.params()[:k]:
            raise FamilyMismatch(f"cannot compose {self!r} with {other!r}")

    def __repr__(self):
        args = ", ".join(f"{n}={v:g}" for n, v in zip(self.fields, self.params()))
        return f"{type(self).__name__}({args})"


class _PointElement(_GroupElement):
    """A family acting on torus points, componentwise through factor_homeos()."""

    __slots__ = ()

    def act(self, p: TorusPoint) -> TorusPoint:
        hx, hy = self.factor_homeos()
        return TorusPoint(hx.apply(p.x), hy.apply(p.y))


def require_point_action(g):
    """g itself, when its family acts on torus points; ConfigError otherwise."""
    if not isinstance(g, _PointElement):
        raise ConfigError(f"{g!r} has no known action on torus points")
    return g


_TURN = 0.15 * math.pi  # the rotation MobiusMap.rotation(0.15)


class _MobiusFamilyElement(_PointElement):
    """Shared plumbing for the three PSL-parametrized families."""

    __slots__ = ("mu",)
    fields = ("m00", "m01", "m10", "m11")
    identity_params = (1.0, 0.0, 0.0, 1.0)
    literal_form = ("psl:", ",")
    sample = (
        (2.0, 1.0, 1.0, 1.0),
        (1.0, 1.0, 0.0, 1.0),
        (math.cos(_TURN), math.sin(_TURN), -math.sin(_TURN), math.cos(_TURN)),
        (3.0, 0.0, 0.0, 1.0 / 3.0),
    )

    def __init__(self, mu: MobiusMap):
        if mu.orientation != 1:
            raise ConfigError("family requires a det > 0 (PSL) member")
        object.__setattr__(self, "mu", mu)

    @classmethod
    def from_params(cls, *entries):
        return cls(MobiusMap(entries))

    def params(self) -> tuple:
        return (self.mu.a, self.mu.b, self.mu.c, self.mu.d)

    def compose(self, other):
        self._require_same_family(other)
        return type(self)(self.mu.compose(other.mu))

    def inverse(self):
        return type(self)(self.mu.inverse())

    def __repr__(self):
        return f"{type(self).__name__}({self.mu!r})"


class KernelPlusPSL(_MobiusFamilyElement):
    """PSL acting on the second factor only; every (+)-class is fixed."""

    head = "kplus"

    def factor_homeos(self):
        return CircleHomeo.identity(), CircleHomeo.from_mobius(self.mu)


class KernelMinusPSL(_MobiusFamilyElement):
    """PSL acting on the first factor only; every (-)-class is fixed."""

    head = "kminus"

    def factor_homeos(self):
        return CircleHomeo.from_mobius(self.mu), CircleHomeo.identity()


class DiagonalPSL(_MobiusFamilyElement):
    """PSL acting identically on both factors; fixes the diagonal circle."""

    head = "diag"

    def factor_homeos(self):
        h = CircleHomeo.from_mobius(self.mu)
        return h, h


def _power(base: float, exponent: float) -> float:
    """base ** exponent; PreconditionViolated where a float cannot hold it."""
    try:
        return base ** exponent
    except OverflowError:
        raise PreconditionViolated(f"{base:g} ** {exponent:g} overflows") from None


class _PhiElement(_PointElement):
    """Shared plumbing for the two affine families with exponent d."""

    __slots__ = ("d", "a", "b", "c")
    fields = __slots__
    key_arity = 1


class PhiStd(_PhiElement):
    """The affine family with one fixed point at (inf, inf).

    Finite exponent d couples the y-scale to the x-scale as a^d; d = inf
    decouples them into (x + b, a y + c).
    """

    __slots__ = ()
    head = "phi"
    identity_params = (1.0, 0.0, 0.0)
    sample = ((2.0, 3.0, 1.0), (1.5, 0.5, -1.0), (3.0, 1.25, 2.0))

    def __init__(self, d: float, a: float, b: float, c: float):
        if not (a > 0.0):
            raise ConfigError("PhiStd requires a > 0")
        super().__init__(d, a, b, c)

    def _scales(self) -> tuple:
        """The (x, y) scale factors: (a, a^d), or (1, a) for d = inf."""
        if math.isinf(self.d):
            return 1.0, self.a
        return self.a, _power(self.a, self.d)

    def compose(self, other: "PhiStd") -> "PhiStd":
        self._require_same_family(other)
        sx, sy = self._scales()
        return PhiStd(self.d, self.a * other.a, sx * other.b + self.b, sy * other.c + self.c)

    def inverse(self) -> "PhiStd":
        if math.isinf(self.d):
            return PhiStd(self.d, 1.0 / self.a, -self.b, -self.c / self.a)
        return PhiStd(
            self.d, 1.0 / self.a, -self.b / self.a, -self.c * _power(self.a, -self.d)
        )

    def factor_homeos(self):
        sx, sy = self._scales()
        return (
            CircleHomeo.from_mobius(MobiusMap.affine(sx, self.b)),
            CircleHomeo.from_mobius(MobiusMap.affine(sy, self.c)),
        )


class PhiTwoFixed(_PhiElement):
    """The family with the two fixed parallel points (inf, inf) and (0, inf).

    For d = 0 the action is (a x, b y + c); for d < 0 the first factor
    twists through the power map, (a sgn(x) |x|^b, b^d y + c).
    """

    __slots__ = ()
    head = "phi2"
    identity_params = (1.0, 1.0, 0.0)
    sample = ((2.0, 3.0, 1.0), (1.5, 2.0, -1.0), (3.0, 0.5, 2.0))

    def __init__(self, d: float, a: float, b: float, c: float):
        if d > 0.0 or math.isinf(d):
            raise ConfigError("PhiTwoFixed requires d <= 0, finite")
        if not (a > 0.0 and b > 0.0):
            raise ConfigError("PhiTwoFixed requires a > 0 and b > 0")
        super().__init__(d, a, b, c)

    def compose(self, other: "PhiTwoFixed") -> "PhiTwoFixed":
        self._require_same_family(other)
        if self.d == 0.0:
            return PhiTwoFixed(
                self.d,
                self.a * other.a,
                self.b * other.b,
                self.b * other.c + self.c,
            )
        return PhiTwoFixed(
            self.d,
            self.a * _power(other.a, self.b),
            self.b * other.b,
            _power(self.b, self.d) * other.c + self.c,
        )

    def inverse(self) -> "PhiTwoFixed":
        if self.d == 0.0:
            return PhiTwoFixed(self.d, 1.0 / self.a, 1.0 / self.b, -self.c / self.b)
        return PhiTwoFixed(
            self.d,
            _power(self.a, -1.0 / self.b),
            1.0 / self.b,
            -self.c * _power(self.b, -self.d),
        )

    def factor_homeos(self):
        if self.d == 0.0:
            # the d = 0 member acts as (a x, b y + c), not via b^d = 1
            return (
                CircleHomeo.from_mobius(MobiusMap.scaling(self.a)),
                CircleHomeo.from_mobius(MobiusMap.affine(self.b, self.c)),
            )
        hx = CircleHomeo((PowerMap(self.b), MobiusMap.scaling(self.a)))
        hy = CircleHomeo.from_mobius(MobiusMap.affine(_power(self.b, self.d), self.c))
        return hx, hy


class Case3Element(_GroupElement):
    """One element of the L2 x SO(2) family, known by its factor maps only.

    No toroidal circle plane with this automorphism type is known, and no
    point-set action is on record, so the element has the affine map it
    induces on (+)-classes (the fixed class pinned at infinity) and the
    rotation it induces on (-)-classes, never a torus map.
    """

    __slots__ = ("angle", "a", "b")
    fields = __slots__
    head = "case3"
    identity_params = (0.0, 1.0, 0.0)

    def __init__(self, angle: float, a: float, b: float):
        if not (a > 0.0):
            raise ConfigError("the affine factor requires a > 0")
        super().__init__(float(angle) % (2.0 * math.pi), a, b)

    def factor_homeos(self):
        return (
            CircleHomeo.from_mobius(MobiusMap.affine(self.a, self.b)),
            CircleHomeo.from_mobius(MobiusMap.rotation(self.angle / (2.0 * math.pi))),
        )

    def compose(self, other: "Case3Element") -> "Case3Element":
        self._require_same_family(other)
        return Case3Element(
            self.angle + other.angle,
            self.a * other.a,
            self.a * other.b + self.b,
        )

    def inverse(self) -> "Case3Element":
        return Case3Element(-self.angle, 1.0 / self.a, -self.b / self.a)

    def is_identity(self) -> bool:
        """Whether both factor maps pass `MobiusMap.is_identity`."""
        return all(h.as_mobius().is_identity() for h in self.factor_homeos())


#: literal head -> family class
FAMILIES = {
    cls.head: cls
    for cls in (DiagonalPSL, KernelPlusPSL, KernelMinusPSL, PhiStd, PhiTwoFixed, Case3Element)
}


# ----------------------------------------------------------------------
# induced actions on the parallel-class sets


class FactorActionReport(NamedTuple):
    """Classification of an induced action on one set of parallel classes."""

    side: str
    action_kind: str  # trivial | SO2-on-circle | L2-on-line | PSL-on-circle
    fixes_every_class: bool
    fixed_classes: tuple


def _classify_factor(h: CircleHomeo) -> str:
    m = h.as_mobius()
    if m is not None:
        if m.is_identity():
            return "trivial"
        if abs(m.a - m.d) <= EQUALITY_TOL and abs(m.b + m.c) <= EQUALITY_TOL:
            return "SO2-on-circle"
        if abs(m.c) <= EQUALITY_TOL:
            return "L2-on-line"
        return "PSL-on-circle"
    # power-map chains are affine conjugated by the power chart
    return "L2-on-line"


def fixed_coordinates(h: CircleHomeo):
    """Fixed points of a circle map: (fixes_everything, points).

    Mobius chains use `mobius_fixed_points`, and fix everything exactly
    where it raises IdentityMap (`MobiusMap.is_identity`). The chain
    (PowerMap(b), MobiusMap.scaling(a)), x -> a sgn(x) |x|^b with b != 1,
    fixes infinity, 0, +a^t and -a^t, t = 1/(1 - b), in that order. Each
    root is a homogeneous pair whose small entry, a^-|t| or a^|t|, is at
    most 1, so none overflows; where that entry underflows to 0, only
    (infinity, 0) is returned. Other chains raise PreconditionViolated.
    """
    m = h.as_mobius()
    if m is not None:
        try:
            return False, tuple(mobius_fixed_points(m))
        except IdentityMap:
            return True, ()
    power, scale = h.atoms if len(h.atoms) == 2 else (None, None)
    if not (isinstance(power, PowerMap) and isinstance(scale, MobiusMap)
            and scale.b == scale.c == 0.0 and scale.a / scale.d > 0.0):
        raise PreconditionViolated("fixed points need a Mobius or a scaled power chain")
    a, t = scale.a / scale.d, 1.0 / (1.0 - power.exponent)
    small = a ** (-abs(t) if a >= 1.0 else abs(t))
    pts = (ProjPoint.infinity(), ProjPoint(0.0, 1.0))
    if small == 0.0:
        return False, pts
    root = (1.0, small) if (a >= 1.0) == (t > 0.0) else (small, 1.0)
    return False, pts + (ProjPoint(*root), ProjPoint(-root[0], root[1]))


def induced_factor_action(g, side: str):
    """The action induced on (+)- or (-)-parallel-class coordinates.

    Returns the coordinate map together with a report that classifies the
    action and lists its fixed classes (see `fixed_coordinates`).
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
# group-element literals and family keys


def _split(text: str):
    """(family class, the text after its head) of a literal or family key."""
    head, _, body = text.strip().partition(":")
    cls = FAMILIES.get(head)
    if cls is None:
        raise ConfigError(f"unknown group family in literal {text!r}")
    return cls, body


def _numbers(cls, tokens, text: str) -> list:
    """The numbers of a literal's tokens: finite, except d = inf (or `oo`)."""
    try:
        values = [
            math.inf if name == "d" and tok.strip() == "oo" else float(tok)
            for name, tok in zip(cls.fields, tokens)
        ]
    except ValueError as exc:
        raise ConfigError(f"malformed literal {text!r}: {exc}") from None
    for name, value in zip(cls.fields, values):
        if not (math.isfinite(value) or (name == "d" and value == math.inf)):
            allowed = "finite or inf" if name == "d" else "finite"
            raise ConfigError(f"malformed literal {text!r}: {name} must be {allowed}")
    return values


def parse_group_literal(literal: str):
    """Parse a group-element literal.

    Formats: `diag:psl:<m00,m01,m10,m11>`, `kplus:psl:<entries>`,
    `kminus:psl:<entries>`, `phi:<d>:<a>:<b>:<c>`, `phi2:<d>:<a>:<b>:<c>`,
    `case3:<angle>:<a>:<b>`.
    """
    cls, body = _split(literal)
    tag, sep = cls.literal_form
    tokens = body[len(tag):].split(sep) if body.startswith(tag) else ()
    if len(tokens) != len(cls.fields):
        raise ConfigError(f"malformed literal {literal!r}")
    try:
        return cls.from_params(*_numbers(cls, tokens, literal))
    except PreconditionViolated as exc:
        raise ConfigError(f"malformed literal {literal!r}: {exc}") from None


def group_literal(g) -> str:
    """Literal round-trip of a group element, for manifests and reports."""
    cls = type(g)
    if FAMILIES.get(getattr(cls, "head", None)) is not cls:
        raise ConfigError(f"not a group element: {g!r}")
    tag, sep = cls.literal_form
    return f"{cls.head}:{tag}" + sep.join(f"{v:.12g}" for v in g.params())


def family_key_of(g) -> str:
    """The `family_sample` key of g's family: its literal head, and d."""
    head, *values = group_literal(g).split(":")
    return ":".join([head, *values[: type(g).key_arity]])


def family_sample(key: str):
    """Deterministic non-identity elements of the family a key names.

    The generic parameters (a, b, c) = (2, 3, 1) lead each Phi sample;
    the common fixed configuration is read off the whole sample, since a
    single element may fix more than the group does.
    """
    cls, body = _split(key)
    tokens = body.split(":") if body else []
    if len(tokens) != cls.key_arity:
        raise ConfigError(f"malformed family key {key!r}")
    if not cls.sample:
        raise UnsupportedPlane(f"no fixed-configuration sample for family {key!r}")
    lead = _numbers(cls, tokens, key)
    return [cls.from_params(*lead, *params) for params in cls.sample]
