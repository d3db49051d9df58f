"""Shared sampling and oracle helpers for the test suite."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from torus_planes import (
    CircleHomeo,
    MobiusMap,
    MonotoneSpline,
    PowerMap,
    ProjPoint,
    TorusPoint,
    TwoPointFamily,
    chordal,
    classical_plane,
    half_classical_plane,
    parse_plane_spec,
)
from torus_planes.errors import PreconditionViolated
from torus_planes.homeo import BISECT_TOL
from torus_planes.projline import _NORM_SLACK


def normalize_h(h):
    """`ProjPoint`'s canonical form on arrays, shape (2, ...) -> (2, ...): the reference."""
    h = np.asarray(h, dtype=float)
    n = np.hypot(h[0], h[1])
    if np.any(n == 0.0) or not np.all(np.isfinite(n)):
        raise PreconditionViolated("homogeneous pair must be finite and nonzero")
    scale = np.where(np.abs(n - 1.0) <= _NORM_SLACK, 1.0, n)
    out = h / scale
    flip = (out[1] < 0.0) | ((out[1] == 0.0) & (out[0] < 0.0))
    out = np.where(flip, -out, out)
    return out + 0.0


def chart_h(h):
    """Angle chart of homogeneous pairs: theta in [0, 1), infinity at 0.5."""
    h = np.asarray(h, dtype=float)
    theta = (np.arctan2(h[0], h[1]) / math.pi) % 1.0
    # a tiny negative angle rounds up to 1.0 under % 1.0; it is chart 0
    return np.where(theta < 1.0, theta, 0.0)


def lift_chart(theta):
    """Unit pairs (sin pi theta, cos pi theta): continuous, with no sign flip."""
    alpha = np.asarray(theta, dtype=float) * math.pi
    return np.stack([np.sin(alpha), np.cos(alpha)])


def h_from_chart(theta):
    """Inverse of the angle chart, returns canonical pairs of shape (2, ...)."""
    return normalize_h(lift_chart(theta))


def wrap_half(x):
    """Wrap a chart difference into [-0.5, 0.5)."""
    return (np.asarray(x, dtype=float) + 0.5) % 1.0 - 0.5


def rng_for(seed, trial=0):
    return np.random.default_rng((seed, trial))


def random_proj_point(rng) -> ProjPoint:
    return ProjPoint.from_chart(rng.random())


def random_separated_points(rng, count, separation=1e-3):
    pts = []
    while len(pts) < count:
        cand = random_proj_point(rng)
        if all(chordal(cand, p) >= separation for p in pts):
            pts.append(cand)
    return pts


def random_triple(rng, separation=1e-3):
    xs = random_separated_points(rng, 3, separation)
    ys = random_separated_points(rng, 3, separation)
    return [TorusPoint(x, y) for x, y in zip(xs, ys)]


def spline_plane(rng):
    """A twelve-knot spline twist with chart slopes between 1/3 and 3."""
    gx, gy = rng.uniform(0.5, 1.5, 12), rng.uniform(0.5, 1.5, 12)
    tx = (np.cumsum(gx / gx.sum()) + rng.random()) % 1.0
    ty = (np.cumsum(gy / gy.sum()) + rng.random()) % 1.0
    knots = [(ProjPoint.from_chart(a), ProjPoint.from_chart(b)) for a, b in zip(tx, ty)]
    return half_classical_plane(CircleHomeo((MonotoneSpline(knots),)))


# the four benchmark planes, the spline one drawn from the rng
SEEDED_PLANES = {
    "classical": lambda rng: classical_plane(),
    "power-2": lambda rng: parse_plane_spec("half:power:2"),
    "power-1/3": lambda rng: parse_plane_spec("half:power:" + repr(1.0 / 3.0)),
    "spline": spline_plane,
}


def random_psl(rng) -> MobiusMap:
    while True:
        m = rng.normal(size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det > 0.1:
            return MobiusMap(m)


def assert_columns_match_batch(fn, h):
    """fn of each single column of h (2, n) has the bits of its column in fn(h)."""
    batch = fn(h)
    for k in range(h.shape[1]):
        assert fn(h[:, k]).tobytes() == batch[:, k].tobytes()


def spline_eval_chart(spline, theta):
    """The spline's chart table looked up on arrays: a reference independent of its lift."""
    tx, ty = np.asarray(spline._tx), np.asarray(spline._ty)
    t = (np.asarray(theta, dtype=float) - tx[0]) % 1.0 + tx[0]
    j = np.clip(np.searchsorted(tx, t, side="right") - 1, 0, len(tx) - 2)
    s = (t - tx[j]) / (tx[j + 1] - tx[j])
    return (ty[j] + s * (ty[j + 1] - ty[j])) % 1.0


def canonical_chain_action(chain, h):
    """Reference chain action on pairs (2, ...): normalize_h after every atom.

    Independent of the float lifts under test for twists: splines are
    evaluated through the canonical chart with `spline_eval_chart`, and
    power maps by their own formula on arrays. Mobius maps act on arrays.
    """
    h = normalize_h(h)
    for atom in chain.atoms:
        if isinstance(atom, MonotoneSpline):
            h = h_from_chart(spline_eval_chart(atom, chart_h(h)))
        elif isinstance(atom, PowerMap):
            h = normalize_h(np.sign(h) * np.abs(h) ** atom.exponent)
        else:
            h = normalize_h(atom.lift_h(h))
    return h


def reference_sup_distance(h1, h2, grid_size):
    """The canonical-chart sup distance on arrays: normalize_h after every atom."""
    h = h_from_chart(np.arange(grid_size) / grid_size)
    a, b = canonical_chain_action(h1, h), canonical_chain_action(h2, h)
    chordal = np.minimum(np.hypot(a[0] - b[0], a[1] - b[1]), np.hypot(a[0] + b[0], a[1] + b[1]))
    return float(np.max(chordal))


def serial_sup_distance(h1, h2, grid_size):
    """The lifted sup distance one grid point at a time, each lifted by the whole chain.

    Each point j / grid_size is lifted on floats and sent through
    `CircleHomeo.lift_h`; the distance is the max over points of the min of
    the two hypots, as `homeo_sup_distance` defines it. nan when an image is.
    """
    distance = 0.0
    for j in range(grid_size):
        alpha = j / grid_size * math.pi
        h = (math.sin(alpha), math.cos(alpha))
        (a0, a1), (b0, b1) = h1.lift_h(h), h2.lift_h(h)
        d = min(math.hypot(a0 - b0, a1 - b1), math.hypot(a0 + b0, a1 + b1))
        if math.isnan(d):
            return math.nan
        distance = max(distance, d)
    return distance


def random_pgl(rng) -> MobiusMap:
    while True:
        m = rng.normal(size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) > 0.1:
            return MobiusMap(m)


# ----------------------------------------------------------------------
# the pencil of circles through two points, branch by branch


@dataclass(frozen=True)
class PencilBranch:
    """One branch of the pencil of circles through two points."""

    name: str
    family: TwoPointFamily
    sign: int  # the orientation its members take
    circle: Callable  # parameter t > 0 -> the member's circle


def pencil_branches(plane, p, q):
    """Reference: every branch of the pencil of circles through p and q.

    The classical plane has one family in x to y, with members of either
    orientation. A half-classical plane has its PSL family in x to y and
    its twisted family in f(x) to g(y). Touch builds only the carrier's
    branch; the reference builds them all, to look for tangents across
    from the carrier too.
    """

    def branch(name, fam, sign):
        wrap = plane._twisted_circle if name == "twisted" else plane.mobius_circle
        return PencilBranch(name, fam, sign, lambda t: wrap(fam.member(t, sign)))

    fam_xy = TwoPointFamily(p.x, p.y, q.x, q.y, tol=plane.tol)
    if plane.family != "half-classical":
        return [branch("pgl-positive", fam_xy, 1), branch("pgl-negative", fam_xy, -1)]
    f, g = plane.f.apply, plane.g.apply
    fam_uv = TwoPointFamily(f(p.x), g(p.y), f(q.x), g(q.y), tol=plane.tol)
    return [branch("psl", fam_xy, 1), branch("twisted", fam_uv, -1)]


# ----------------------------------------------------------------------
# one-point-per-call root and minimum finders for the reference scans


def serial_bisect(fn, lo, hi, flo, atol=0.0, rtol=0.0, cap=200, geometric=False):
    """Reference: one midpoint per call; returns (root, fn(root), calls)."""
    for step in range(cap + 1):
        mid = math.sqrt(lo * hi) if geometric else 0.5 * (lo + hi)
        fm = float(fn(np.array([mid]))[0])
        if (step == cap or fm == 0.0 or not math.isfinite(fm)
                or hi - lo <= atol + rtol * hi):
            return mid, fm, step + 1
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid


def golden_minimum(fn, lo, hi, tol):
    """Golden-section minimum of |fn| over [lo, hi], to width tol; (t, |fn(t)|)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = abs(float(fn(c))), abs(float(fn(d)))
    while b - a > tol:
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


# ----------------------------------------------------------------------
# independent cross-ratio oracle on the extended real line


def composed_frame_from_three(x1, x2, x3, y1, y2, y3) -> MobiusMap:
    """Reference three-point solver: two frame maps composed through (inf, 0, 1).

    The frame map of (p0, p1, p2) sends (inf, 0, 1) to them; its columns are
    representatives of p0 and p1 scaled so that 1 lands on p2.
    """

    def frame(p0, p1, p2):
        det = p0.h0 * p1.h1 - p1.h0 * p0.h1
        mu = (p2.h0 * p1.h1 - p1.h0 * p2.h1) / det
        lam = (p0.h0 * p2.h1 - p2.h0 * p0.h1) / det
        return MobiusMap((mu * p0.h0, lam * p1.h0, mu * p0.h1, lam * p1.h1))

    return frame(y1, y2, y3).compose(frame(x1, x2, x3).inverse())


def cross_ratio_to_standard(x1, x2, x3):
    """The elementary chart map sending (x1, x2, x3) to (0, 1, inf).

    Pure extended-real arithmetic, independent of the homogeneous-frame
    solver under test.
    """

    def ratio(num, den):
        if math.isinf(num) and math.isinf(den):
            raise ValueError("indeterminate")
        if den == 0.0:
            return math.inf
        if math.isinf(num):
            return math.inf
        if math.isinf(den):
            return 0.0
        return num / den

    def s(x):
        if math.isinf(x1):
            # limit of ((x - x1)(x2 - x3)) / ((x - x3)(x2 - x1))
            return ratio(x2 - x3, x - x3) if not math.isinf(x) else 0.0
        if math.isinf(x2):
            return ratio(x - x1, x - x3) if not math.isinf(x) else 1.0
        if math.isinf(x3):
            return ratio(x - x1, x2 - x1) if not math.isinf(x) else math.inf
        if math.isinf(x):
            return ratio(x2 - x3, x2 - x1)
        return ratio((x - x1) * (x2 - x3), (x - x3) * (x2 - x1))

    return s


# ----------------------------------------------------------------------
# tangency read on the graphs, by chart scan


def array_crossing_function(lhs, rhs):
    """Reference crossing function on arrays: det(lhs lifted, rhs lifted) along the lifted chart.

    Continuous with period 1 and zero exactly where the graphs meet, for
    maps of either orientation. The library solves it for maps of
    opposite orientation only; the tangency reading below scans pairs of
    one branch, which the library never scans. The chains are lifted one
    float point at a time.
    """

    def s(theta):
        theta = np.asarray(theta, dtype=float)
        out = np.empty(theta.shape)
        for i, t in np.ndenumerate(theta):
            alpha = float(t) * math.pi
            h = (math.sin(alpha), math.cos(alpha))
            (a0, a1), (b0, b1) = lhs.lift_h(h), rhs.lift_h(h)
            out[i] = a0 * b1 - a1 * b0
        return out[()]

    return s


def grid_crossing_zeros(lhs, rhs, grid=512):
    """Reference: every sign change of the crossing function on a grid, bisected.

    Two crossings within one grid cell are not found.
    """
    s = array_crossing_function(lhs, rhs)
    theta = np.arange(grid + 1) / grid
    vals = s(theta)
    a, b = vals[:-1], vals[1:]
    flip = (a == 0.0) | ((a < 0.0) != (b < 0.0))
    return [serial_bisect(s, theta[i], theta[i + 1], a[i], atol=BISECT_TOL)[0] % 1.0
            for i in np.nonzero(flip)[0]]


def _near_gap_offsets(c, d, p):
    """Signed chart offsets of all crossings near p, p's own zero removed.

    Both circles pass through p, so their crossing function has a known
    zero there; dividing it by sin(pi (theta - theta_p)) leaves every
    other crossing (including the tangency contact itself) as a simple
    zero that stays solvable arbitrarily close to p. Returns a list of
    offsets, empty when no crossing lies within the search window.
    """
    theta_p = p.x.chart()
    s = array_crossing_function(c.graph, d.graph)

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
        root, residual, _ = serial_bisect(g, us[i], us[i + 1], a[i], cap=60)
        if math.isfinite(residual):  # not converged onto theta_p itself
            offsets.append(root - theta_p)
    return offsets


def graph_tangency_separation(c, d, p):
    """Reference (far, separation) of two circles through p, read on their graphs.

    Independent of the shared-coordinate formula under test: a scan of the
    crossing function for crossings away from p combined with the factored
    near-p solver for the pair merging at p. Reads 0.0 when no crossing is
    found near p.
    """
    theta_p = p.x.chart()
    # crossings only: near a shared pole two graphs get chordally close
    # without meeting, and counting such dips would fabricate far
    # intersections for a genuinely tangent pair
    s = array_crossing_function(c.graph, d.graph)
    far = []
    for z in grid_crossing_zeros(c.graph, d.graph):
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
    offsets = _near_gap_offsets(c, d, p)
    if not offsets:
        return False, 0.0
    worst_off = max(offsets, key=abs)
    return False, chordal(ProjPoint.from_chart(theta_p + worst_off), p.x)
