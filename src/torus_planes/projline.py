"""Numerics on the real projective line and its Mobius transformations.

Each torus factor is a copy of the circle modelled as RP^1: a point is a
homogeneous pair [h0 : h1] with value h0/h1, and [1 : 0] plays infinity.
Every map acts linearly on the homogeneous pair, so infinity needs no
special-casing anywhere. An angle chart (used for plotting and grid scans
only) wraps the circle once around the half-open unit interval, with 0 at
chart 0 and infinity at chart 0.5.

Conventions:

* Canonical point representative: h0^2 + h1^2 = 1 with h1 > 0, or h1 = 0
  and h0 > 0. Distances use the chordal metric min(|p - q|, |p + q|) on
  canonical representatives, so the seam of the sign choice is harmless.
* Mobius matrices are normalized to |det| = 1 and sign-canonicalized by
  making the entry of largest magnitude positive. Orientation is the sign
  of the determinant: +1 exactly for PSL(2,R) members, -1 otherwise.
* A Mobius map is stored as four Python floats, built in Python from a
  flat (a, b, c, d), a nested 2x2 or anything with `.tolist()`. Products
  and the action use the entry formula (a x + b y, ...). One `lift_h`
  serves a pair of floats and a pair of arrays, elementwise, so a point's
  image has the same bits alone, as floats and in any batch.
* Value objects are frozen: `_Frozen` refuses every assignment and deletion.
  The ones built in every trial (points, maps, frame members, chains,
  circles) store each slot through its member descriptor's `__set__`,
  bound by name once after the class (`_set_h0 = ProjPoint.h0.__set__`);
  the rest call `object.__setattr__`.
* Scalar work runs on `math`; numpy is imported only by `MobiusMap.m`,
  so building points and maps and acting with them never loads it.
  `ProjPoint` is the one canonical form, and the chart is read one point
  at a time (`ProjPoint.chart`); their array forms are test references.
* One identity test, `MobiusMap.is_identity`: a map that passes it moves no
  point past 2 EQUALITY_TOL, and `mobius_fixed_points` raises IdentityMap.
* Maps through point pairs have one frame form, lam det(Xp, h) Yq +
  det(Xq, h) Yp: the members of a TwoPointFamily, and the three-point
  solver as the member whose lam the third pair fixes.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .errors import CoincidentPoints, IdentityMap, PreconditionViolated

if TYPE_CHECKING:
    import numpy as np

#: chordal tolerance below which two points count as equal
EQUALITY_TOL = 1e-9

#: |trace^2 - 4 det| below this counts as parabolic (one fixed point)
DISC_BAND = 1e-10

# slack under which a representative already counts as unit-norm; skipping
# the division keeps canonicalization bit-for-bit idempotent
_NORM_SLACK = 4.0 * sys.float_info.epsilon


class _Frozen:
    """Base of the immutable value classes: `__init__` sets each slot once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name}")


class ProjPoint(_Frozen):
    """A point of RP^1 stored as its canonical homogeneous representative."""

    __slots__ = ("h0", "h1")

    def __init__(self, h0: float, h1: float):
        h0 = float(h0)
        h1 = float(h1)
        n = math.hypot(h0, h1)
        if n == 0.0 or not math.isfinite(n):
            raise PreconditionViolated("homogeneous pair must be finite and nonzero")
        if abs(n - 1.0) > _NORM_SLACK:
            h0 /= n
            h1 /= n
        if h1 < 0.0 or (h1 == 0.0 and h0 < 0.0):
            h0, h1 = -h0, -h1
        _set_h0(self, h0 + 0.0)
        _set_h1(self, h1 + 0.0)

    @classmethod
    def from_real(cls, x: float) -> "ProjPoint":
        """Point for a real value; math.inf gives the point at infinity."""
        if math.isinf(x):
            return cls(1.0, 0.0)
        return cls(float(x), 1.0)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(1.0, 0.0)

    @classmethod
    def from_chart(cls, theta: float) -> "ProjPoint":
        alpha = float(theta) * math.pi
        return cls(math.sin(alpha), math.cos(alpha))

    def value(self) -> float:
        """Real value of the point; infinity for [1 : 0]."""
        if self.h1 == 0.0:
            return math.inf
        return self.h0 / self.h1

    def chart(self) -> float:
        theta = (math.atan2(self.h0, self.h1) / math.pi) % 1.0
        # a tiny negative angle rounds up to 1.0 under % 1.0; it is chart 0
        return theta if theta < 1.0 else 0.0

    def __repr__(self):
        if self.h1 == 0.0:
            return "ProjPoint(inf)"
        return f"ProjPoint({self.h0 / self.h1:.12g})"


_set_h0, _set_h1 = ProjPoint.h0.__set__, ProjPoint.h1.__set__


def chordal(p: ProjPoint, q: ProjPoint) -> float:
    """Chordal distance between two projective points."""
    d_minus = math.hypot(p.h0 - q.h0, p.h1 - q.h1)
    d_plus = math.hypot(p.h0 + q.h0, p.h1 + q.h1)
    return d_plus if d_plus < d_minus else d_minus


class TorusPoint(_Frozen):
    """A point of the torus S^1 x S^1, one projective point per factor."""

    __slots__ = ("x", "y")

    def __init__(self, x: ProjPoint, y: ProjPoint):
        _set_x(self, x)
        _set_y(self, y)

    @classmethod
    def from_reals(cls, x: float, y: float) -> "TorusPoint":
        return cls(ProjPoint.from_real(x), ProjPoint.from_real(y))

    def __repr__(self):
        return f"TorusPoint({self.x!r}, {self.y!r})"


_set_x, _set_y = TorusPoint.x.__set__, TorusPoint.y.__set__


def torus_dist(p: TorusPoint, q: TorusPoint) -> float:
    """max of the factor chordal distances."""
    return max(chordal(p.x, q.x), chordal(p.y, q.y))


class MobiusMap(_Frozen):
    """A fractional-linear map of RP^1: a 2x2 real matrix up to scale.

    Built from a flat (a, b, c, d), a nested 2x2 or anything with
    `.tolist()` (an ndarray), flattened in Python, and stored as the floats
    a, b, c, d of [[a, b], [c, d]] with |det| = 1 and the largest-magnitude
    entry positive, so projective equality is entrywise comparison; the
    read-only `m` builds the ndarray, which only perfbench's digest line
    and the tests read. The orientation attribute is sign(det), exact in
    {+1, -1}.
    """

    __slots__ = ("a", "b", "c", "d", "orientation")

    def __init__(self, m):
        try:
            if type(m) is not tuple and hasattr(m, "tolist"):
                m = m.tolist()
            if len(m) == 2:
                (a, b), (c, d) = m
            else:
                a, b, c, d = m
            a, b, c, d = float(a), float(b), float(c), float(d)
        except (TypeError, ValueError) as exc:
            raise PreconditionViolated(f"matrix needs four real entries: {exc}") from None
        det = a * d - b * c
        if not math.isfinite(det) or abs(det) < 1e-250:
            # past ~1e154 the products overflow and below ~1e-125 they fall
            # under the floor: measure again with the largest entry scaled to 1
            s = max(abs(a), abs(b), abs(c), abs(d))
            if 0.0 < s < math.inf:
                a, b, c, d = a / s, b / s, c / s, d / s
                det = a * d - b * c
            if not math.isfinite(det) or abs(det) < 1e-250:
                raise PreconditionViolated("matrix is singular or non-finite")
        r = math.sqrt(abs(det))
        a, b, c, d = a / r, b / r, c / r, d / r
        big = b if abs(b) > abs(a) else a  # the first largest, as argmax
        big = c if abs(c) > abs(big) else big
        big = d if abs(d) > abs(big) else big
        # a unit pair's image has entries |a h0 + b h1| <= 2 |big| and norm
        # at most 2 sqrt(2) |big|, finite for |big| <= 2**1022 (~1.27e308)
        if abs(big) > 2.0 ** 1022:
            raise PreconditionViolated("matrix is so far from conformal that images overflow")
        if big < 0.0:
            a, b, c, d = -a, -b, -c, -d
        _set_a(self, a + 0.0)
        _set_b(self, b + 0.0)
        _set_c(self, c + 0.0)
        _set_d(self, d + 0.0)
        _set_orientation(self, 1 if det > 0.0 else -1)

    @property
    def m(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.a, self.b], [self.c, self.d]])

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls((1.0, 0.0, 0.0, 1.0))

    @classmethod
    def affine(cls, a: float, b: float) -> "MobiusMap":
        """x -> a x + b (a != 0)."""
        return cls((a, b, 0.0, 1.0))

    @classmethod
    def scaling(cls, t: float) -> "MobiusMap":
        return cls.affine(t, 0.0)

    @classmethod
    def rotation(cls, shift: float) -> "MobiusMap":
        """Rotation of the circle by `shift` in chart units (period 1)."""
        beta = shift * math.pi
        c, s = math.cos(beta), math.sin(beta)
        return cls((c, s, -s, c))

    # -- algebra ------------------------------------------------------

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: (self . other)(x) = self(other(x))."""
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return MobiusMap((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def inverse(self) -> "MobiusMap":
        return MobiusMap((self.d, -self.b, -self.c, self.a))

    def is_identity(self) -> bool:
        """Whether the map moves no point farther than point equality can see.

        At det 1 with |b|, |c|, |a - d| <= t = EQUALITY_TOL, a unit pair h has
        det(h, M h) = c h0^2 + (d - a) h0 h1 - b h1^2, at most 1.5 t, and
        |M h| >= 1 - O(t), so no point moves by a chordal distance past ~1.5 t.
        """
        return (self.orientation == 1 and abs(self.b) <= EQUALITY_TOL
                and abs(self.c) <= EQUALITY_TOL and abs(self.a - self.d) <= EQUALITY_TOL)

    # -- action -------------------------------------------------------

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(*self.lift_h((p.h0, p.h1)))

    def lift_h(self, h):
        """The unscaled linear action on a pair (h0, h1) of floats or arrays, to the same kind."""
        h0, h1 = h
        return self.a * h0 + self.b * h1, self.c * h0 + self.d * h1

    def __repr__(self):
        return f"MobiusMap([[{self.a:.6g}, {self.b:.6g}], [{self.c:.6g}, {self.d:.6g}]])"


_set_a, _set_b, _set_c, _set_d = (MobiusMap.a.__set__, MobiusMap.b.__set__,
                                  MobiusMap.c.__set__, MobiusMap.d.__set__)
_set_orientation = MobiusMap.orientation.__set__


def proj_matrix_equal(m1: MobiusMap, m2: MobiusMap, tol: float) -> bool:
    """Projective equality of two maps via their canonical matrices."""
    d_minus = max(abs(m1.a - m2.a), abs(m1.b - m2.b), abs(m1.c - m2.c), abs(m1.d - m2.d))
    d_plus = max(abs(m1.a + m2.a), abs(m1.b + m2.b), abs(m1.c + m2.c), abs(m1.d + m2.d))
    return min(d_minus, d_plus) <= tol


def _frame_entries(lam: float, xp: ProjPoint, xq: ProjPoint, yp: ProjPoint,
                   yq: ProjPoint) -> tuple:
    """Summed entries (a, b, c, d) of h -> lam det(Xp, h) Yq + det(Xq, h) Yp."""
    s0, s1 = lam * yq.h0, lam * yq.h1
    return (yp.h0 * -xq.h1 - s0 * xp.h1, s0 * xp.h0 + yp.h0 * xq.h0,
            yp.h1 * -xq.h1 - s1 * xp.h1, s1 * xp.h0 + yp.h1 * xq.h0)


def _det(p: ProjPoint, q: ProjPoint) -> float:
    return p.h0 * q.h1 - p.h1 * q.h0


def mobius_from_three(
    x1: ProjPoint,
    x2: ProjPoint,
    x3: ProjPoint,
    y1: ProjPoint,
    y2: ProjPoint,
    y3: ProjPoint,
    tol: float = EQUALITY_TOL,
) -> MobiusMap:
    """The unique Mobius map sending x1, x2, x3 to y1, y2, y3.

    It is the frame member lam det(x1, h) y2 + det(x2, h) y1, which sends
    x1 -> y1 and x2 -> y2 for every lam != 0, with lam fixed by the third
    pair; on equal triples lam = -1 and the map is the identity, exactly.
    Raises CoincidentPoints when either triple has a pair within `tol`.
    """
    for triple in ((x1, x2, x3), (y1, y2, y3)):
        a, b, c = triple
        if chordal(a, b) <= tol or chordal(a, c) <= tol or chordal(b, c) <= tol:
            raise CoincidentPoints("triple points must be pairwise distinct")
    lam = -(_det(x2, x3) * _det(y3, y1)) / (_det(x1, x3) * _det(y3, y2))
    return MobiusMap(_frame_entries(lam, x1, x2, y1, y2))


class FrameMember(MobiusMap):
    """The member lam det(Xp, h) Yq + det(Xq, h) Yp of a TwoPointFamily.

    a, b, c, d hold the summed matrix, for the algebra and the orientation;
    `lift_h`, and so `apply`, evaluates the two terms unsummed. det(Xq, Xq)
    is exactly 0 in floats, so Xq's image is a multiple of Yq, and Xp's of
    Yp, however steep the member is.
    """

    __slots__ = ("lam", "xp", "xq", "yp", "yq")

    def __init__(self, lam: float, xp: ProjPoint, xq: ProjPoint, yp: ProjPoint,
                 yq: ProjPoint):
        super().__init__(_frame_entries(lam, xp, xq, yp, yq))
        _set_lam(self, lam)
        _set_xp(self, xp)
        _set_xq(self, xq)
        _set_yp(self, yp)
        _set_yq(self, yq)

    def lift_h(self, h):
        h0, h1 = h
        xp, xq, yp, yq = self.xp, self.xq, self.yp, self.yq
        dp = self.lam * (xp.h0 * h1 - xp.h1 * h0)
        dq = xq.h0 * h1 - xq.h1 * h0
        return dp * yq.h0 + dq * yp.h0, dp * yq.h1 + dq * yp.h1


_set_lam = FrameMember.lam.__set__
_set_xp, _set_xq = FrameMember.xp.__set__, FrameMember.xq.__set__
_set_yp, _set_yq = FrameMember.yp.__set__, FrameMember.yq.__set__


class TwoPointFamily(_Frozen):
    """The one-parameter family of Mobius maps sending x1 -> x2, y1 -> y2.

    In frame form, with det(X, h) = X0 h1 - X1 h0, sources Xp = x1, Xq = y1
    and targets Yp = x2, Yq = y2, member lam != 0 is the FrameMember
    M(lam) h = lam det(Xp, h) Yq + det(Xq, h) Yp. Its determinant is
    lam det(Yq, Yp) det(Xp, Xq), so the sign of lam sets the orientation:
    `base_orientation` = sign(det(Xp, Xq) det(Yq, Yp)) for lam > 0, and
    flipping the sign flips it, which is how the selector picks a member
    of either sign.
    """

    __slots__ = ("xp", "xq", "yp", "yq", "base_orientation")

    def __init__(self, x1: ProjPoint, x2: ProjPoint, y1: ProjPoint, y2: ProjPoint,
                 tol: float = EQUALITY_TOL):
        if chordal(x1, y1) <= tol:
            raise CoincidentPoints("source points coincide")
        if chordal(x2, y2) <= tol:
            raise CoincidentPoints("target points coincide")
        sign = 1 if _det(x1, y1) * _det(y2, x2) > 0.0 else -1
        for name, value in zip(TwoPointFamily.__slots__, (x1, y1, x2, y2, sign)):
            object.__setattr__(self, name, value)

    def member(self, t: float, orientation: int | None = None) -> MobiusMap:
        """The member at parameter t > 0, optionally of a chosen orientation."""
        if t <= 0.0:
            raise PreconditionViolated("family parameter must be positive")
        want = self.base_orientation if orientation is None else orientation
        lam = float(t) if want == self.base_orientation else -float(t)
        m = FrameMember(lam, self.xp, self.xq, self.yp, self.yq)
        if m.orientation != want:  # t past ~1e15 either way: rank one in floats
            raise PreconditionViolated("family member is singular in floating point")
        return m


def mobius_fixed_points(m: MobiusMap):
    """Fixed points of a non-identity Mobius map: zero, one, or two.

    Fixed directions [X : Y] solve A X^2 + B X Y + C Y^2 = 0 with A = c,
    B = d - a, C = -b; the roots [q : A] and [C : q] avoid cancellation.
    |trace^2 - 4 det| below DISC_BAND classifies as parabolic with a single
    fixed point. Raises IdentityMap where `MobiusMap.is_identity` holds.
    """
    if m.is_identity():
        raise IdentityMap("fixed points of the identity are everywhere")
    a, b, c, d = m.a, m.b, m.c, m.d
    big_a, big_b, big_c = c, d - a, -b
    disc = big_b * big_b - 4.0 * big_a * big_c
    if disc < -DISC_BAND:
        return []
    if disc <= DISC_BAND:
        # parabolic: kernel of (m - (tr/2) I), using the larger row
        tau = 0.5 * (a + d)
        r0 = (a - tau, b)
        r1 = (c, d - tau)
        row = r0 if math.hypot(*r0) >= math.hypot(*r1) else r1
        return [ProjPoint(row[1], -row[0])]
    # q != 0 because disc > DISC_BAND
    q = -0.5 * (big_b + (1.0 if big_b >= 0.0 else -1.0) * math.sqrt(disc))
    return [ProjPoint(q, big_a), ProjPoint(big_c, q)]
