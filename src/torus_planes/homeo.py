"""Circle homeomorphisms beyond Mobius maps.

Half-classical planes twist one branch of their circle set by extra
orientation-preserving homeomorphisms of the circle. Two base families are
shipped: PowerMap (x -> sgn(x) |x|^p, the closed-form twist) and
MonotoneSpline (piecewise-linear in the angle chart, for data-driven
twists loaded from knot files). A CircleHomeo is a chain of such atoms
and Mobius maps, evaluated left to right; a circle of the torus is the
graph of one.

Root finding against these maps is bisection in the angle chart on
sign-change brackets collected from a grid scan; monotone pieces make the
brackets reliable and nothing here needs a derivative. `bisect` evaluates
the midpoints of several levels per call and returns what serial bisection
returns. Tangential zeros (a graph touching without crossing) are caught
by refining local minima of the scanned values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, MonotonicityError
from .projline import (
    MobiusMap,
    ProjPoint,
    chart_h,
    chordal_h,
    h_from_chart,
    normalize_h,
    wrap_half,
)

#: default scan resolution for bracket collection
SCAN_GRID = 512

#: chart-space width to which brackets are refined
BISECT_TOL = 1e-11

#: bisection steps whose midpoints `bisect` evaluates in one call
BISECT_LEVELS = 4


class PowerMap:
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

    def __setattr__(self, name, value):
        raise AttributeError("PowerMap is immutable")

    def apply(self, p: ProjPoint) -> ProjPoint:
        e = self.exponent
        return ProjPoint(
            math.copysign(abs(p.h0) ** e, p.h0) if p.h0 != 0.0 else 0.0,
            math.copysign(abs(p.h1) ** e, p.h1) if p.h1 != 0.0 else 0.0,
        )

    def apply_h(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        out = np.sign(h) * np.abs(h) ** self.exponent
        return normalize_h(out)

    def inverse(self) -> "PowerMap":
        return PowerMap(1.0 / self.exponent)

    def is_identity(self) -> bool:
        return self.exponent == 1.0

    def __repr__(self):
        return f"PowerMap({self.exponent:g})"


class MonotoneSpline:
    """Piecewise-linear circle homeomorphism through knot pairs.

    Knots are (x, y) point pairs, strictly monotone in the angle chart and
    winding exactly once, so the map is an orientation-preserving circle
    homeomorphism. Linear interpolation in the chart keeps the inverse
    exact: it is the spline with swapped knots.
    """

    __slots__ = ("knots", "_tx", "_ty")
    orientation = 1

    def __init__(self, knots):
        knots = list(knots)
        if len(knots) < 2:
            raise MonotonicityError("need at least two knots")
        tx = np.array([x.chart() for x, _ in knots])
        ty = np.array([y.chart() for _, y in knots])
        order = np.argsort(tx, kind="stable")
        tx, ty = tx[order], ty[order]
        gaps_x = np.diff(np.append(tx, tx[0] + 1.0))
        gaps_y = (np.diff(np.append(ty, ty[0])) % 1.0)
        if np.any(gaps_x <= 1e-12):
            raise MonotonicityError("knot x-coordinates must be distinct")
        if np.any(gaps_y <= 1e-12) or np.any(gaps_y >= 1.0):
            raise MonotonicityError("knot y-coordinates must be strictly monotone")
        if abs(gaps_y.sum() - 1.0) > 1e-9:
            raise MonotonicityError("knots must wind exactly once around the circle")
        object.__setattr__(self, "knots", [(knots[i][0], knots[i][1]) for i in order])
        # lifted tables with a duplicated wrap-around segment
        object.__setattr__(self, "_tx", np.append(tx, tx[0] + 1.0))
        ty_lift = np.concatenate([[ty[0]], ty[0] + np.cumsum(gaps_y)])
        object.__setattr__(self, "_ty", ty_lift)

    def __setattr__(self, name, value):
        raise AttributeError("MonotoneSpline is immutable")

    def _eval_chart(self, theta: np.ndarray) -> np.ndarray:
        tx, ty = self._tx, self._ty
        t = (np.asarray(theta, dtype=float) - tx[0]) % 1.0 + tx[0]
        j = np.clip(np.searchsorted(tx, t, side="right") - 1, 0, len(tx) - 2)
        s = (t - tx[j]) / (tx[j + 1] - tx[j])
        return (ty[j] + s * (ty[j + 1] - ty[j])) % 1.0

    def apply(self, p: ProjPoint) -> ProjPoint:
        theta = self._eval_chart(np.array([p.chart()]))[0]
        return ProjPoint.from_chart(theta)

    def apply_h(self, h: np.ndarray) -> np.ndarray:
        return h_from_chart(self._eval_chart(chart_h(h)))

    def inverse(self) -> "MonotoneSpline":
        return MonotoneSpline([(y, x) for x, y in self.knots])

    def is_identity(self) -> bool:
        return False

    def __repr__(self):
        return f"MonotoneSpline({len(self.knots)} knots)"


Atom = MobiusMap | PowerMap | MonotoneSpline


class CircleHomeo:
    """A homeomorphism of the circle given as a chain of atoms.

    The chain is evaluated left to right: chain [f, g] means apply f
    first, then g. Orientation is the product of atom orientations,
    computed exactly from the atoms' discrete flags.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        object.__setattr__(self, "atoms", tuple(atoms))

    def __setattr__(self, name, value):
        raise AttributeError("CircleHomeo is immutable")

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

    def apply_h(self, h: np.ndarray) -> np.ndarray:
        h = normalize_h(h)
        for atom in self.atoms:
            h = atom.apply_h(h)
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

        Raises MonotonicityError on violation; a failed audit means the
        chain does not describe a circle homeomorphism.
        """
        h = h_from_chart(np.arange(256) / 256)
        theta = chart_h(self.apply_h(h))
        steps = (np.diff(np.append(theta, theta[0])) % 1.0)
        if self.orientation == -1:
            steps = (-steps) % 1.0
        winding = steps.sum()
        if np.any(steps <= 0.0) or abs(winding - 1.0) > 1e-6:
            raise MonotonicityError(
                f"images of 256 grid points are not cyclically ordered "
                f"(orientation {self.orientation:+d}, winding {winding:.6f})"
            )

    def __repr__(self):
        if not self.atoms:
            return "CircleHomeo(identity)"
        return "CircleHomeo[" + " -> ".join(repr(a) for a in self.atoms) + "]"


def homeo_sup_distance(h1: CircleHomeo, h2: CircleHomeo, grid_size: int) -> float:
    """Max chordal distance between images over a chart grid."""
    if grid_size < 3:
        raise ConfigError("grid_size must be at least 3")
    h = h_from_chart(np.arange(grid_size) / grid_size)
    return float(np.max(chordal_h(h1.apply_h(h), h2.apply_h(h))))


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


def bisect(fn, lo: float, hi: float, flo: float, *, atol: float = 0.0,
           rtol: float = 0.0, cap: int = 200, geometric: bool = False):
    """Bisect a sign-change bracket of an array-valued fn; (root, fn(root)).

    Each step evaluates fn at the arithmetic (or geometric) midpoint of
    [lo, hi] and stops there when the value is zero or not finite or when
    hi - lo <= atol + rtol * hi; else the midpoint replaces lo when
    (fn < 0) == (flo < 0), hi when not. Step `cap` + 1 only evaluates. One
    call to fn takes the midpoints of BISECT_LEVELS steps, so the result is
    serial bisection's exactly when fn gives an element the same bits in
    every batch.
    """
    midpoint = (lambda a, b: np.sqrt(a * b)) if geometric else (lambda a, b: 0.5 * (a + b))
    steps = cap + 1
    while True:
        depth = min(BISECT_LEVELS, steps)
        n = 1 << depth
        pts = np.empty(n + 1)
        pts[0], pts[n] = lo, hi
        for stride in (n >> k for k in range(depth)):  # coarsest level first
            pts[stride // 2::stride] = midpoint(pts[0:n:stride], pts[stride::stride])
        vals = np.asarray(fn(pts[1:n]), dtype=float).tolist()
        pts = pts.tolist()
        i, j = 0, n
        for _ in range(depth):
            k = (i + j) // 2
            mid, fm = pts[k], vals[k - 1]
            steps -= 1
            if (steps == 0 or fm == 0.0 or not math.isfinite(fm)
                    or hi - lo <= atol + rtol * hi):
                return mid, fm
            if (fm < 0.0) == (flo < 0.0):  # fm keeps flo's sign class
                i, lo = k, mid
            else:
                j, hi = k, mid


def _refine_minimum(fn, lo: float, hi: float):
    """Golden-section minimum of |fn| over [lo, hi], to BISECT_TOL."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = abs(float(fn(c))), abs(float(fn(d)))
    while b - a > BISECT_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = abs(float(fn(c)))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = abs(float(fn(d)))
    t = c if fc < fd else d
    return t, min(fc, fd)


def wrapped_zeros(
    fn,
    grid: int = SCAN_GRID,
    tangent_band: float = 1e-7,
):
    """Zeros in [0, 1) of a chart-periodic function with values in [-1/2, 1/2).

    `fn` must accept scalar or array chart arguments and return wrapped
    differences. Sign-change brackets from a grid scan are bisected to
    BISECT_TOL; grid-local minima of |fn| below `tangent_band` are refined
    as tangential zeros. Jumps of magnitude >= 0.5 are treated as seam
    artifacts, not crossings.
    """
    theta = np.arange(grid) / grid
    vals = np.asarray(fn(theta), dtype=float)
    nxt = np.roll(vals, -1)
    genuine = np.abs(nxt - vals) < 0.5
    sign_flip = (vals == 0.0) | (np.sign(vals) != np.sign(nxt))
    crossing = genuine & sign_flip
    zeros = []

    def accept(root: float, froot: float) -> None:
        # a bisected sign change can also be the wrap seam of the
        # difference (values jump across +-1/2 without vanishing); a
        # genuine zero is recognized by actually being small there
        if abs(froot) < 0.01:
            zeros.append(root % 1.0)

    for i in np.nonzero(crossing)[0]:
        lo = theta[i]
        hi = theta[i] + 1.0 / grid
        flo = vals[i]
        if flo == 0.0:
            zeros.append(lo)
            continue
        accept(*bisect(fn, lo, hi, flo, atol=BISECT_TOL))
    # steep cells: subdivide to separate genuine fast crossings from the
    # wrap-around seam, which keeps jumping +-1 however far we zoom
    for i in np.nonzero(sign_flip & ~genuine)[0]:
        stack = [(theta[i], theta[i] + 1.0 / grid, vals[i], nxt[i], 0)]
        while stack:
            lo, hi, flo, fhi, depth = stack.pop()
            if flo == 0.0:
                zeros.append(lo % 1.0)
                continue
            if (flo < 0.0) == (fhi < 0.0) and fhi != 0.0:
                continue
            if abs(flo - fhi) < 0.5:
                accept(*bisect(fn, lo, hi, flo, atol=BISECT_TOL))
                continue
            if depth >= 12:
                continue
            mid = 0.5 * (lo + hi)
            fmid = float(fn(mid))
            stack.append((lo, mid, flo, fmid, depth + 1))
            stack.append((mid, hi, fmid, fhi, depth + 1))
    # tangential zeros: local minima of |fn| below the band, away from crossings
    mag = np.abs(vals)
    local_min = (mag <= np.roll(mag, 1)) & (mag <= np.roll(mag, -1))
    candidates = np.nonzero(local_min & (mag < tangent_band))[0]
    for i in candidates:
        if crossing[i] or crossing[(i - 1) % grid]:
            continue
        lo = theta[i] - 1.0 / grid
        hi = theta[i] + 1.0 / grid
        t, fmin = _refine_minimum(fn, lo, hi)
        if fmin < tangent_band:
            zeros.append(t % 1.0)
    # dedupe cyclically
    zeros.sort()
    out = []
    for z in zeros:
        if out and min(abs(z - out[-1]), 1.0 - abs(z - out[-1])) < 1e-9:
            continue
        out.append(z)
    if len(out) >= 2 and (1.0 - abs(out[-1] - out[0])) < 1e-9:
        out.pop()
    return out


def graph_equation_zeros(
    lhs: CircleHomeo,
    rhs: CircleHomeo,
    grid: int = SCAN_GRID,
    tangent_band: float = 1e-7,
):
    """Chart positions where the graphs of two circle maps agree."""

    def delta(theta):
        h = h_from_chart(theta)
        return wrap_half(chart_h(lhs.apply_h(h)) - chart_h(rhs.apply_h(h)))

    return wrapped_zeros(delta, grid=grid, tangent_band=tangent_band)
