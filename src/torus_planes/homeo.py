"""Circle homeomorphisms beyond Mobius maps.

Half-classical planes twist one branch of their circle set by extra
orientation-preserving homeomorphisms of the circle. Two base families are
shipped: PowerMap (x -> sgn(x) |x|^p, the closed-form twist) and
MonotoneSpline (piecewise-linear in the angle chart, for data-driven
twists loaded from knot files). A CircleHomeo is a chain of such atoms
and Mobius maps, evaluated left to right; a circle of the torus is the
graph of one.

Every atom has one action, the lifted `lift_h`, that moves a homogeneous
pair of Python floats continuously, on `math`, without the canonical sign
flip; an atom's `apply` is its float lift of a point, canonicalized by
`ProjPoint`, the one canonical form. `CircleHomeo.apply_h`, the one place
numpy is imported, puts the float lift of each column of an array through
`ProjPoint`, once, after the whole chain. No caller in `src/` is left; it
stays only as a span that perfbench's tracer wraps, and goes when that
span does.
Circles are compared on the lift:
`homeo_sup_distance` is the largest chordal distance between two chains'
lifted images of a grid, on floats at every grid size, with each chain's
twist atoms lifted once per grid and cached (plotting reads the same
cache), and read only up to the first sample past a caller's
`stop_above`; `audit_monotone` lifts its 256 points on floats, so
building and comparing circles loads no numpy.
Along the lifted chart (sin pi theta, cos pi theta) the determinant
s(theta) of two images is a continuous function of period 1 that
vanishes exactly where the graphs meet; it equals
+-sin(pi * chart difference). `graph_equation_zeros` solves it for maps
of opposite orientation, whose graphs meet at the two fixed points of an
orientation-reversing map: a point and its image bracket one fixed point
on each arc between them, and `regula_falsi` refines both brackets on
Python floats, with no grid and no array call.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from functools import lru_cache

from .errors import ConfigError, MonotonicityError, NotFound, PreconditionViolated
from .projline import MobiusMap, ProjPoint, _Frozen

#: chart-space width to which crossing brackets are refined
BISECT_TOL = 1e-11

#: evaluations after which `regula_falsi` stops, for brackets too wide in floats
_BISECT_STEPS = 201

#: entries of the cache of grids lifted through a chain's twist atoms
TWIST_LIFTS = 16


def _lift_chart_float(theta: float) -> tuple:
    """The unit pair (sin pi theta, cos pi theta) of one chart value, on floats."""
    alpha = theta * math.pi
    return math.sin(alpha), math.cos(alpha)


class PowerMap(_Frozen):
    """x -> sgn(x) |x|^p on the real chart; fixes 0 and infinity.

    Acts on homogeneous pairs componentwise, (X, Y) -> (sgn(X) |X|^p,
    sgn(Y) |Y|^p), which agrees with the chart formula and is continuous
    through infinity. Orientation-preserving for every exponent p > 0.
    """

    __slots__ = ("exponent",)
    orientation = 1

    def __init__(self, exponent: float):
        exponent = float(exponent)
        if not (exponent > 0.0) or not math.isfinite(exponent):
            raise ConfigError("PowerMap exponent must be positive and finite")
        object.__setattr__(self, "exponent", exponent)

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(*self.lift_h((p.h0, p.h1)))

    def lift_h(self, h: tuple) -> tuple:
        """sgn(v) |v|^p of each entry of a pair of floats."""
        e = self.exponent
        h0, h1 = h
        return (math.copysign(abs(h0) ** e, h0) if h0 else 0.0,
                math.copysign(abs(h1) ** e, h1) if h1 else 0.0)

    def inverse(self) -> "PowerMap":
        return PowerMap(1.0 / self.exponent)

    def is_identity(self) -> bool:
        return self.exponent == 1.0

    def __repr__(self):
        return f"PowerMap({self.exponent:g})"


class MonotoneSpline(_Frozen):
    """Piecewise-linear circle homeomorphism through knot pairs.

    Knots are (x, y) point pairs, strictly monotone in the angle chart and
    winding exactly once, so the map is an orientation-preserving circle
    homeomorphism. Linear interpolation in the chart keeps the inverse
    exact: it is the spline with swapped knots. The lifted chart tables
    `_tx` and `_ty` are lists of floats, built in Python. The inverse is
    built on its first use and kept, and its own inverse is this spline.
    """

    __slots__ = ("knots", "_tx", "_ty", "_inverse")
    orientation = 1

    def __init__(self, knots):
        knots = list(knots)
        if len(knots) < 2:
            raise MonotonicityError("need at least two knots")
        knots = sorted(((x, y) for x, y in knots), key=lambda k: k[0].chart())  # stable
        tx = [x.chart() for x, _ in knots]
        ty = [y.chart() for _, y in knots]
        gaps_x = [b - a for a, b in zip(tx, tx[1:] + [tx[0] + 1.0])]
        gaps_y = [(b - a) % 1.0 for a, b in zip(ty, ty[1:] + [ty[0]])]
        if min(gaps_x) <= 1e-12:
            raise MonotonicityError("knot x-coordinates must be distinct")
        if min(gaps_y) <= 1e-12 or max(gaps_y) >= 1.0:
            raise MonotonicityError("knot y-coordinates must be strictly monotone")
        # differences around the cycle of ty sum to 0, and each residue mod 1
        # adds an integer: positive gaps make 1 turn or at least 2, up to ulps
        if math.fsum(gaps_y) >= 1.5:
            raise MonotonicityError("knots must wind exactly once around the circle")
        # lifted tables with a duplicated wrap-around segment; ty climbs by
        # the running sum of its gaps, as a cumulative sum does
        ty_lift, climbed = [ty[0]], 0.0
        for gap in gaps_y:
            climbed += gap
            ty_lift.append(ty[0] + climbed)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_tx", tx + [tx[0] + 1.0])
        object.__setattr__(self, "_ty", ty_lift)
        object.__setattr__(self, "_inverse", None)

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(*self.lift_h((p.h0, p.h1)))

    def lift_h(self, h: tuple) -> tuple:
        """The lifted table on the double cover x = atan2(h0, h1) / pi, on floats.

        F(x) = interp(x - k) + k with k = floor(x - tx[0]) turns a full
        turn of x into a full turn of F, so the image pair is continuous
        wherever the input pair is. interp is `numpy.interp`'s formula,
        slope * (t - tx[j]) + ty[j], with its slope and its end values.
        """
        tx, ty = self._tx, self._ty
        x = math.atan2(h[0], h[1]) / math.pi
        if math.isnan(x):  # math.floor raises on nan
            return math.nan, math.nan
        k = float(math.floor(x - tx[0]))
        t = x - k
        j = bisect_right(tx, t) - 1
        if j >= len(tx) - 1:  # numpy.interp's end values
            y = ty[-1]
        elif j < 0:
            y = ty[0]
        elif t == tx[j]:
            y = ty[j]
        else:
            y = (ty[j + 1] - ty[j]) / (tx[j + 1] - tx[j]) * (t - tx[j]) + ty[j]
        return _lift_chart_float(y + k)

    def inverse(self) -> "MonotoneSpline":
        if self._inverse is None:
            inverse = MonotoneSpline([(y, x) for x, y in self.knots])
            object.__setattr__(inverse, "_inverse", self)
            object.__setattr__(self, "_inverse", inverse)
        return self._inverse

    def __repr__(self):
        return f"MonotoneSpline({len(self.knots)} knots)"


Atom = MobiusMap | PowerMap | MonotoneSpline


class CircleHomeo(_Frozen):
    """A homeomorphism of the circle given as a chain of atoms.

    The chain is evaluated left to right: chain [f, g] means apply f
    first, then g. Orientation is the product of atom orientations,
    computed exactly from the atoms' discrete flags.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        _set_atoms(self, tuple(atoms))

    @classmethod
    def identity(cls) -> "CircleHomeo":
        return cls(())

    @classmethod
    def from_mobius(cls, m: MobiusMap) -> "CircleHomeo":
        return cls((m,))

    @classmethod
    def power(cls, exponent: float) -> "CircleHomeo":
        return cls((PowerMap(exponent),))

    @property
    def orientation(self) -> int:
        o = 1
        for atom in self.atoms:
            o *= atom.orientation
        return o

    def apply(self, p: ProjPoint) -> ProjPoint:
        for atom in self.atoms:
            p = atom.apply(p)
        return p

    def apply_h(self, h):
        """Canonical images of pairs (2, ...): each column's float lift, as a `ProjPoint`.

        Raises PreconditionViolated when an image is not finite and nonzero.
        """
        import numpy as np

        h = np.asarray(h, dtype=float)
        try:
            images = [ProjPoint(*self.lift_h(pair)) for pair in zip(*h.reshape(2, -1).tolist())]
        except OverflowError:  # a power of an entry past the float range
            raise PreconditionViolated("homogeneous pair must be finite and nonzero") from None
        return np.array([(p.h0, p.h1) for p in images]).T.reshape(h.shape)

    def lift_h(self, h: tuple) -> tuple:
        """Unit-norm images of a pair of floats, never sign-flipped: continuous in h.

        An image pair that rounds to (0, 0) becomes (nan, nan).
        """
        for atom in self.atoms:
            x, y = atom.lift_h(h)
            n = math.hypot(x, y)
            h = (x / n, y / n) if n else (math.nan, math.nan)
        return h

    def compose(self, first: "CircleHomeo") -> "CircleHomeo":
        """self after first."""
        return CircleHomeo(first.atoms + self.atoms)

    def inverse(self) -> "CircleHomeo":
        return CircleHomeo(tuple(a.inverse() for a in reversed(self.atoms)))

    def as_mobius(self) -> MobiusMap | None:
        """Collapse to a single Mobius map when the chain allows it."""
        m = MobiusMap.identity()
        for atom in self.atoms:
            if isinstance(atom, MobiusMap):
                m = atom.compose(m)
            elif isinstance(atom, PowerMap) and atom.is_identity():
                continue
            else:
                return None
        return m

    def audit_monotone(self) -> None:
        """Check images of a 256-point grid stay cyclically (anti-)ordered.

        Each step between consecutive lifted images is the signed angle
        atan2(-det, dot) in chart units, so images that round to the same
        chart value still advance. Raises MonotonicityError on violation or
        a step that is not finite (a lift that rounds to 0/0); a failed
        audit means the chain does not describe a circle homeomorphism.
        The grid is lifted on floats.
        """
        a = [self.lift_h(h) for h in _float_grid(256)]
        b = a[1:] + [(-a[0][0], -a[0][1])]  # the lift of theta = 1
        o = self.orientation
        steps = [o * math.atan2(-(x0 * y1 - x1 * y0), x0 * y0 + x1 * y1) / math.pi
                 for (x0, x1), (y0, y1) in zip(a, b)]
        # steps in (0, 1] (angles over pi) from a lift to its negation, pi mod
        # 2 pi away, sum to an odd integer up to ~256 ulps: 1 when below 2
        winding = math.fsum(steps)
        if not (all(step > 0.0 for step in steps) and winding < 2.0):  # nan fails
            raise MonotonicityError(
                f"images of 256 grid points are not cyclically ordered "
                f"(orientation {self.orientation:+d}, winding {winding:.6f})"
            )

    def __repr__(self):
        if not self.atoms:
            return "CircleHomeo(identity)"
        return "CircleHomeo[" + " -> ".join(repr(a) for a in self.atoms) + "]"


_set_atoms = CircleHomeo.atoms.__set__


@lru_cache(maxsize=8)
def _float_grid(grid_size: int) -> tuple:
    """The lifted grid j / grid_size as float pairs, bit for bit numpy's sin and cos of it."""
    return tuple(_lift_chart_float(j / grid_size) for j in range(grid_size))


def _lift_all(atoms: tuple, grid: tuple) -> tuple:
    """The float pairs of `grid` sent through `atoms`, each by `CircleHomeo.lift_h`."""
    if not atoms:
        return grid
    lift = CircleHomeo(atoms).lift_h
    return tuple(lift(h) for h in grid)


@lru_cache(maxsize=TWIST_LIFTS)
def _twist_lift(twist: tuple, grid_size: int) -> tuple:
    """The grid j / grid_size lifted through the twist atoms `twist`.

    Atoms hash by identity, so the circles of one plane, whose chains start
    with the plane's own twist atoms, share one entry. A lift with a
    non-finite pair (an image that rounds to (0, 0) is nan after
    `CircleHomeo.lift_h`) raises PreconditionViolated and is not cached.
    """
    lift = _lift_all(twist, _float_grid(grid_size))
    if not math.isfinite(sum(x + y for x, y in lift)):  # nan or inf in any pair
        raise PreconditionViolated("homogeneous pair must be finite and nonzero")
    return lift


def _split_twist(h: CircleHomeo) -> tuple:
    """(leading non-Mobius atoms, the rest) of a chain."""
    atoms = h.atoms
    k = 0
    while k < len(atoms) and not isinstance(atoms[k], MobiusMap):
        k += 1
    return atoms[:k], atoms[k:]


def homeo_sup_distance(h1: CircleHomeo, h2: CircleHomeo, grid_size: int, *,
                       stop_above: float = math.inf) -> float:
    """Max chordal distance between the lifted images of the grid j / grid_size.

    Either sign of an image counts; a non-finite one raises
    PreconditionViolated. Each chain's leading twist atoms lift the grid
    once, cached (`_twist_lift`). When both chains end in one plain
    `MobiusMap`, the two maps, their normalizations and the distance run
    in one loop on floats; any other tail is lifted point by point through
    `CircleHomeo.lift_h`. Both routes have the bits of `lift_h` applied to
    the whole chain.

    The loop on two Mobius tails returns at the first sample farther apart
    than `stop_above`, with that sample's distance: above the bound, but
    maybe short of the full maximum. A caller that only compares the
    result with the bound gets the full grid's decision: the samples not
    read can only raise the maximum, or raise PreconditionViolated. That
    needs a non-finite twist lift, which `_twist_lift` refuses when it is
    built, or a Mobius image that rounds to (0, 0). No image of a
    `MobiusMap` overflows, but a map whose rows are parallel to within
    rounding (entries past about 5e7, at det 1) can send a pair to exactly
    (0, 0); only there may a bounded call return where the full one
    raises. The other route reads every sample whatever the bound.
    """
    if not (isinstance(grid_size, numbers.Integral) and grid_size >= 3):
        raise ConfigError(f"grid_size must be an integer of at least 3, got {grid_size!r}")
    (twist1, tail1), (twist2, tail2) = _split_twist(h1), _split_twist(h2)
    grid1, grid2 = _twist_lift(twist1, grid_size), _twist_lift(twist2, grid_size)
    if (len(tail1) == 1 and type(tail1[0]) is MobiusMap
            and len(tail2) == 1 and type(tail2[0]) is MobiusMap):
        m1, m2 = tail1[0], tail2[0]
        a, b, c, d = m1.a, m1.b, m1.c, m1.d
        e, f, g, k = m2.a, m2.b, m2.c, m2.d
        hypot = math.hypot
        distance = total = 0.0
        try:
            for (x0, x1), (y0, y1) in zip(grid1, grid2):
                u0 = a * x0 + b * x1
                u1 = c * x0 + d * x1
                n = hypot(u0, u1)
                u0 /= n
                u1 /= n
                v0 = e * y0 + f * y1
                v1 = g * y0 + k * y1
                n = hypot(v0, v1)
                v0 /= n
                v1 /= n
                minus, plus = hypot(u0 - v0, u1 - v1), hypot(u0 + v0, u1 + v1)
                dist = plus if plus < minus else minus  # min(minus, plus), without the call
                total += dist
                if dist > distance:
                    distance = dist
                    if dist > stop_above:
                        break
        except ZeroDivisionError:  # an image that rounds to (0, 0)
            total = math.nan
    else:
        images1, images2 = _lift_all(tail1, grid1), _lift_all(tail2, grid2)
        dists = [min(math.hypot(a0 - b0, a1 - b1), math.hypot(a0 + b0, a1 + b1))
                 for (a0, a1), (b0, b1) in zip(images1, images2)]
        distance, total = max(dists), sum(dists)
    if not math.isfinite(total):  # a nan image makes both hypots nan
        raise PreconditionViolated("homogeneous pair must be finite and nonzero")
    return distance


def load_spline_knots(path) -> MonotoneSpline:
    """Load a spline twist from a plain-text knot file.

    One `x y` pair per line in the real chart, `inf` allowed; blank lines
    and `#` comments are skipped. The pairs must describe a strictly
    monotone circle map or the file is rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read knot file {path}: {exc}") from None
    knots = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise MonotonicityError(f"{path}:{lineno}: expected `x y`")
        try:
            xv = float(parts[0])
            yv = float(parts[1])
        except ValueError as exc:
            raise MonotonicityError(f"{path}:{lineno}: {exc}") from None
        if math.isnan(xv) or math.isnan(yv):
            raise MonotonicityError(f"{path}:{lineno}: nan is not a point")
        knots.append((ProjPoint.from_real(xv), ProjPoint.from_real(yv)))
    return MonotoneSpline(knots)


# ----------------------------------------------------------------------
# chart-space zero finding


def regula_falsi(fn, brackets):
    """Refine sign-change brackets (lo, hi, flo, fhi) of a float function; [(root, fn(root))].

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971), one bracket
    at a time, with one call of fn on a Python float per step. Brackets
    are wider than BISECT_TOL, and flo and fhi are not both zero. A step
    evaluates fn at the secant point of the bracket, or at its midpoint
    where the secant point falls outside (a non-finite end value, or end
    values of one sign), kept at least BISECT_TOL / 2 inside either end.
    The point replaces lo when (fn < 0) == (flo < 0), hi when not, and the
    value of an end kept for a second step running is halved in the
    secant, so both ends close in on a simple crossing. A bracket stops
    at the point just evaluated when its value is zero or not finite, or
    at step _BISECT_STEPS; when it is at most BISECT_TOL wide, its end
    with the smaller |fn| is the root, within BISECT_TOL of the crossing.
    """
    out = []
    for lo, hi, flo, fhi in brackets:
        slo, shi = flo, fhi  # the end values the secant uses, halved by the Illinois rule
        kept = 0  # +1 after a step that kept lo, -1 after one that kept hi
        for _ in range(_BISECT_STEPS):
            mid = lo - slo * (hi - lo) / (shi - slo)
            if not lo <= mid <= hi:  # a nan end value, or ends of one sign
                mid = 0.5 * (lo + hi)
            # half of BISECT_TOL in from either end, so that a secant point on
            # the crossing, in floats, ends the bracket in one more step
            mid = min(max(mid, lo + 0.5 * BISECT_TOL), hi - 0.5 * BISECT_TOL)
            fm = fn(mid)
            if fm == 0.0 or not math.isfinite(fm):
                break
            if (fm < 0.0) == (flo < 0.0):  # fm keeps flo's sign class
                lo, flo, slo = mid, fm, fm
                if kept == -1:
                    shi *= 0.5
                kept = -1
            else:
                hi, fhi, shi = mid, fm, fm
                if kept == 1:
                    slo *= 0.5
                kept = 1
            if hi - lo <= BISECT_TOL:
                mid, fm = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
                break
        out.append((mid, fm))
    return out


def wrapped_zeros(fn, lo, hi, flo, fhi):
    """The two crossing zeros in [0, 1), sorted, of a function of period 1.

    fn crosses zero once on each arc, (lo, hi) and (hi, lo + 1), where
    lo < hi < lo + 1 and flo = fn(lo) and fhi = fn(hi) have opposite
    signs; the value at lo + 1 is flo, by the period. `regula_falsi`
    refines each arc to BISECT_TOL on Python floats.
    """
    roots = regula_falsi(fn, [(lo, hi, flo, fhi), (hi, lo + 1.0, fhi, flo)])
    return sorted(root % 1.0 for root, _ in roots)


def crossing_function(lhs: CircleHomeo, rhs: CircleHomeo):
    """s(theta) = det(lhs lifted, rhs lifted) along the lifted chart, on floats.

    Continuous with period 1 (both lifts are antiperiodic), zero exactly
    where the graphs of lhs and rhs meet, and equal to
    +-sin(pi * (lhs chart - rhs chart)). theta is a Python float.
    """

    def s(theta):
        h = _lift_chart_float(theta)
        a, b = lhs.lift_h(h), rhs.lift_h(h)
        return a[0] * b[1] - a[1] * b[0]

    return s


#: start charts of the crossing brackets, in order: x = 1, -1, 0. Power twists
#: are flat in floats at 0 and infinity (charts 0 and 1/2), where an image may
#: land on a float zero of the crossing function; at +-1 their slope is p
_STARTS = (0.25, 0.75, 0.0)


def graph_equation_zeros(lhs: CircleHomeo, rhs: CircleHomeo):
    """Chart positions, sorted, where the graphs of maps of opposite orientation cross.

    The graphs meet at the fixed points of h = lhs^-1 rhs, which reverses
    orientation. A lift H of h is decreasing with H(t + 1) = H(t) - 1, so
    H(t) - t falls by 2 per turn: h has exactly two fixed points, one on
    each arc between any point x and h(x), and the crossing function
    changes sign once on each arc. The first start chart lo whose image's
    chart hi, unwrapped into (lo, lo + 1), gives values of opposite signs
    brackets both crossings for `wrapped_zeros`. Raises
    PreconditionViolated for maps of one orientation, and NotFound when
    no start gives opposite signs in floats.
    """
    if lhs.orientation == rhs.orientation:
        raise PreconditionViolated("graphs to cross must be of maps of opposite orientation")
    fn = crossing_function(lhs, rhs)
    h = lhs.inverse().compose(rhs)
    for lo in _STARTS:
        hi = lo + (h.apply(ProjPoint.from_chart(lo)).chart() - lo) % 1.0
        flo, fhi = fn(lo), fn(hi)
        if flo * fhi < 0.0:
            return wrapped_zeros(fn, lo, hi, flo, fhi)
    raise NotFound("no start chart and its image bracket the crossings")
