"""Randomized property harness for plane axioms and group-action claims.

Each suite runs seeded trials against a plane (and possibly a group
element) and produces a VerifyReport: pass/fail, the worst residual, and
a counterexample list carrying full inputs so any failure can be replayed
in isolation. Reports are deterministic: trial i draws only from the RNG
substream keyed by (seed, i), numpy's SeedSequence + PCG64 stream
reproduced bit for bit in pure Python (`pcg64`), so reruns of the same
configuration give byte-identical payloads (wall time is excluded from
the canonical form).

A trial-based suite is `sample(plane, rng)`, which draws a trial's inputs
as library objects (the entry point binds suite arguments such as the
group element into them), and `check(plane, inputs)`, which returns
`(residual, reasons)`; a non-empty `reasons` fails the trial. Both read
only the plane, the inputs and this module's constants, so a suite's run,
control and recheck apply one check. Touching's sampler and check also
read a one-entry memo of the carrier join (`_carrier`), keyed by the point
objects: the check reuses the circle its sampler joined, and a recheck's
deserialised points join afresh. Inputs are serialised only for
counterexamples, and `recheck_counterexample` runs the check on them.

Every suite has a paired negative control, a deliberately broken run that
must fail from its first trial on; a passing control fails the whole run.
The registry gives each control's plane and trial cap (a twisted control
plane is built once per process and shared, as planes are immutable), and
`negative_control=True` selects the suite's broken variant where the plane
or group does not already carry it. Controls are how the harness
distinguishes "the property holds" from "the test is vacuous".
"""

from __future__ import annotations

import json
import math
import numbers
import time
from functools import cache, lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .errors import (
    ConfigError,
    NoBranch,
    ParallelInput,
    PlaneGeometryError,
    SamplingExhausted,
    UnsupportedPlane,
)
from .groups import (
    DiagonalPSL,
    KernelMinusPSL,
    KernelPlusPSL,
    family_key_of,
    family_sample,
    fixed_coordinates,
    group_literal,
    parse_group_literal,
    require_point_action,
)
from .homeo import CircleHomeo, homeo_sup_distance
from .pcg64 import PCG64Stream
from .planes import (
    PLUS,
    TAG_TWISTED,
    PlaneModel,
    classical_plane,
    half_classical_plane,
    parallel,
)
from .projline import (
    EQUALITY_TOL,
    MobiusMap,
    ProjPoint,
    TorusPoint,
    chordal,
    mobius_from_three,
    torus_dist,
)

SCHEMA = "torus-planes/verify-report/v1"
#: grid of the sup distance by which a permuted rejoin must agree
REJOIN_GRID = 64
#: least chordal distance between the sampled coordinates of a trial
SEPARATION = 1e-3
#: joining-stress: nearly degenerate triples, checked against a loose bound
STRESS_SEPARATION, STRESS_THRESHOLD = 1e-7, 1e-5
#: automorphism: sup distance by which g's image of a circle must match
IMAGE_TOL = 1e-8
#: touching: least membership residual of q on the carrier
OFF_CIRCLE_MARGIN = 1e-2


class TrialConfig(NamedTuple("TrialConfig", [("seed", int), ("trials", int)])):
    """Seed and trial count: same config, plane, suite => same report."""

    __slots__ = ()

    def __new__(cls, seed: int = 42, trials: int = 200):
        for name, value, least in (("seed", seed, 0), ("trials", trials, 1)):
            if type(value) is not int and not isinstance(value, numbers.Integral) or value < least:
                raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
        return super().__new__(cls, seed, trials)

    def rng_for(self, trial: int) -> PCG64Stream:
        """Trial's stream: the draws of numpy.random.default_rng((seed, trial)), without numpy."""
        return PCG64Stream((int(self.seed), int(trial)))


class VerifyReport:
    """Outcome of one suite run; fails exactly when counterexamples exist.

    Mutable: the CLI sets `manifest` before writing the report.
    """

    __slots__ = ("suite", "plane", "seed", "trials", "passed", "max_residual",
                 "counterexamples", "runtime_ms", "statistics", "negative_control", "manifest")

    def __init__(self, suite: str, plane: str, seed: int, trials: int, passed: bool,
                 max_residual: float, counterexamples: list, runtime_ms: float,
                 statistics: dict | None = None, negative_control: bool = False,
                 manifest: dict | None = None):
        self.suite, self.plane, self.seed, self.trials = suite, plane, seed, trials
        self.passed, self.max_residual = passed, max_residual
        self.counterexamples, self.runtime_ms = counterexamples, runtime_ms
        self.statistics = {} if statistics is None else statistics
        self.negative_control, self.manifest = negative_control, manifest

    def payload(self, include_runtime: bool = True) -> dict:
        out = {
            "schema": SCHEMA,
            "suite": self.suite,
            "plane": self.plane,
            "seed": self.seed,
            "trials": self.trials,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "counterexamples": self.counterexamples,
            "statistics": self.statistics,
            "negative_control": self.negative_control,
        }
        if self.manifest is not None:
            out["manifest"] = self.manifest
        if include_runtime:
            out["runtime_ms"] = self.runtime_ms
        return out

    def canonical_json(self) -> str:
        """Deterministic serialization: the wall-time field is excluded."""
        return json.dumps(self.payload(include_runtime=False), sort_keys=True, indent=2)

    def full_json(self) -> str:
        return json.dumps(self.payload(include_runtime=True), sort_keys=True, indent=2)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.full_json())
            fh.write("\n")


_MAX_COUNTEREXAMPLES = 20
_CE_FIELDS = {"trial", "reason", "residual"}  # counterexample keys that are not inputs


def _run_trials(
    suite: str,
    plane: PlaneModel,
    cfg: TrialConfig,
    sample: Callable,
    check: Callable,
    statistics: dict,
    negative_control: bool,
    keep_residual: bool = False,
) -> VerifyReport:
    """Run `check(plane, sample(plane, rng_i))` for every trial i.

    With `keep_residual`, a counterexample also records its finite residual.
    """
    t0 = time.perf_counter()
    counterexamples = []
    dropped = 0
    max_residual = 0.0
    for i in range(cfg.trials):
        try:
            inputs = sample(plane, cfg.rng_for(i))
        except SamplingExhausted as exc:
            inputs, residual, reasons = {}, math.inf, [str(exc)]
        else:
            residual, reasons = check(plane, inputs)
        if math.isfinite(residual):
            max_residual = max(max_residual, residual)
        if not reasons:
            continue
        if len(counterexamples) == _MAX_COUNTEREXAMPLES:
            dropped += 1
            continue
        ce = {"trial": i, **{k: _ser(v) for k, v in inputs.items()}}
        ce["reason"] = "; ".join(reasons)
        if keep_residual and math.isfinite(residual):
            ce["residual"] = residual
        counterexamples.append(ce)
    if dropped:
        statistics["counterexamples_dropped"] = dropped
    return VerifyReport(
        suite=suite,
        plane=plane.describe(),
        seed=cfg.seed,
        trials=cfg.trials,
        passed=not counterexamples,
        max_residual=max_residual,
        counterexamples=counterexamples,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        statistics=statistics,
        negative_control=negative_control,
    )


# ----------------------------------------------------------------------
# sampling


_MAX_DRAWS = 1000


def sample_proj_point(rng) -> ProjPoint:
    return ProjPoint.from_chart(rng.random())


def _random_torus_point(rng) -> TorusPoint:
    return TorusPoint(sample_proj_point(rng), sample_proj_point(rng))


def _draw(rng, make: Callable, accept: Callable):
    """The first `make(rng)` that `accept` takes, within _MAX_DRAWS draws."""
    for _ in range(_MAX_DRAWS):
        cand = make(rng)
        if accept(cand):
            return cand
    raise SamplingExhausted(f"sampling exhausted: {_MAX_DRAWS} draws rejected")


def _sample_separated(rng, count: int, separation: float) -> list[ProjPoint]:
    pts: list[ProjPoint] = []

    def separated(c):
        for p in pts:
            if not chordal(c, p) >= separation:
                return False
        return True

    for _ in range(count):
        pts.append(_draw(rng, sample_proj_point, separated))
    return pts


def sample_triple(rng, separation: float) -> list[TorusPoint]:
    """Three pairwise non-parallel torus points, coordinates separated.

    `rng` is anything with `random()`: a trial's PCG64Stream or a numpy Generator.
    """
    xs = _sample_separated(rng, 3, separation)
    ys = _sample_separated(rng, 3, separation)
    return [TorusPoint(x, y) for x, y in zip(xs, ys)]


def _sample_points(plane, rng, separation=None) -> dict:
    return {"points": sample_triple(rng, separation or SEPARATION)}


def _sample_reversing(plane, rng, separation=None) -> dict:
    """A triple whose x and y cyclic orders disagree, so it joins on the twisted branch.

    Where they agree, the map x -> y through the triple keeps orientation;
    then p and q trade y coordinates, which reverses the y order.
    """
    p, q, r = sample_triple(rng, separation or SEPARATION)
    if mobius_from_three(p.x, q.x, r.x, p.y, q.y, r.y).orientation == 1:
        p, q = TorusPoint(p.x, q.y), TorusPoint(q.x, p.y)
    return {"points": [p, q, r]}


def _ser(value):
    """JSON form of a trial input: a point, a list of points or a group element."""
    if isinstance(value, TorusPoint):
        return [[value.x.h0, value.x.h1], [value.y.h0, value.y.h1]]
    if isinstance(value, list):
        return [_ser(v) for v in value]
    return group_literal(value)


def _deser(obj):
    if isinstance(obj, str):
        return parse_group_literal(obj)
    if isinstance(obj[0][0], list):
        return [_deser(v) for v in obj]
    return TorusPoint(ProjPoint(*obj[0]), ProjPoint(*obj[1]))


# ----------------------------------------------------------------------
# joining


def _check_joining(plane, inputs, threshold=None):
    """Join the triple: membership (within `threshold`, else plane.tol), set, branch, rejoin."""
    p, q, r = inputs["points"]
    try:
        circle = plane.join(p, q, r)
    except (NoBranch, ParallelInput) as exc:
        return math.inf, [f"join failed: {exc}"]
    residual = max(plane.membership_residual(circle, pt) for pt in (p, q, r))
    valid = sum(1 for _, ok in plane.join_branches(p, q, r).values() if ok)
    reasons = []
    if residual > (threshold or plane.tol):
        reasons.append(f"membership residual {residual:.3e}")
    if not plane.circle_in_set(circle):
        reasons.append("circle not in the plane's circle set")
    if valid != 1:
        reasons.append(f"branch uniqueness violated ({valid} branches valid)")
    if plane.family == "classical":
        again = plane.join(r, p, q)
        agreement = homeo_sup_distance(circle.graph, again.graph, REJOIN_GRID)
        if agreement > plane.uniq_tol:
            reasons.append(f"permuted rejoin disagrees by {agreement:.3e}")
    return residual, reasons


_check_stress = partial(_check_joining, threshold=STRESS_THRESHOLD)


def verify_joining(
    plane: PlaneModel,
    cfg: TrialConfig,
    stress: bool = False,
    negative_control: bool = False,
) -> VerifyReport:
    """Axiom of Joining at trial scale.

    Per trial: a pairwise-non-parallel triple is joined; the circle must
    contain the points within tolerance, lie in the plane's circle set,
    and be the only branch solution. The stress variant samples nearly
    degenerate triples and only reports conditioning, with a loose bound.
    The negative control draws twisted-branch triples only.
    """
    separation = STRESS_SEPARATION if stress else SEPARATION
    return _run_trials(
        "joining-stress" if stress else "joining",
        plane,
        cfg,
        partial(_sample_reversing if negative_control else _sample_points,
                separation=separation),
        _check_stress if stress else _check_joining,
        {"separation": separation, "threshold": STRESS_THRESHOLD if stress else plane.tol},
        negative_control,
        keep_residual=True,
    )


# ----------------------------------------------------------------------
# touching


_SLOPE_BOUNDS = (0.05, 20.0)


def _conditioned(plane: PlaneModel, x: ProjPoint) -> bool:
    """Whether the twist's chart slope at x (central difference) is in bounds."""
    eps = 1e-4
    theta = x.chart()
    lo = plane.f.apply(ProjPoint.from_chart(theta - eps)).chart()
    hi = plane.f.apply(ProjPoint.from_chart(theta + eps)).chart()
    slope = abs(float((hi - lo + 0.5) % 1.0 - 0.5)) / (2.0 * eps)
    return _SLOPE_BOUNDS[0] <= slope <= _SLOPE_BOUNDS[1]


@lru_cache(maxsize=1)
def _carrier(plane, p, q, r):
    """`plane.join(p, q, r)`, kept for the last triple, keyed by the objects.

    A trial's check hits its sampler's join; a recheck's deserialised points
    join afresh. A join that raises is not kept: the check raises it again.
    """
    return plane.join(p, q, r)


def _sample_touching(plane, rng) -> dict:
    """A carrier triple, a conditioned anchor p on its circle, q well off it."""
    base = sample_triple(rng, SEPARATION)
    try:
        circle = _carrier(plane, *base)
    except (NoBranch, ParallelInput):
        return {"points": base}  # the check reports the failed carrier join
    p = circle.point_at(_draw(rng, sample_proj_point, lambda x: _conditioned(plane, x)))
    q = _draw(rng, _random_torus_point, lambda q: (
        parallel(p, q, SEPARATION) == "none"
        and plane.membership_residual(circle, q) >= OFF_CIRCLE_MARGIN
        and _conditioned(plane, q.x)
    ))
    return {"points": base, "p": p, "q": q}


def _sample_secant_claim(plane, rng) -> dict:
    """The negative control: a third point r whose secant is claimed tangent."""
    inputs = _sample_touching(plane, rng)
    if "p" in inputs:
        p, q = inputs["p"], inputs["q"]
        r = _draw(rng, _random_torus_point, lambda r: (
            parallel(p, r, SEPARATION) == "none"
            and parallel(q, r, SEPARATION) == "none"
        ))
        inputs["claimed_points"] = [p, q, r]
    return inputs


def _check_touching(plane, inputs):
    """The tangent (or claimed circle) must pass q and meet the carrier only at p."""
    try:
        circle = _carrier(plane, *inputs["points"])
    except (NoBranch, ParallelInput) as exc:
        return math.inf, [f"carrier join failed: {exc}"]
    p, q, claimed = inputs["p"], inputs["q"], inputs.get("claimed_points")
    try:
        tangent = plane.join(*claimed) if claimed else plane.touch(circle, p, q)
    except PlaneGeometryError as exc:
        return math.inf, [f"{'claim join' if claimed else 'touch'} failed: {exc}"]
    far, sep = plane.tangency_separation(circle, tangent, p)
    residual_q = plane.membership_residual(tangent, q)
    reasons = []
    if far:
        reasons.append("intersection far from p remains")
    if sep > plane.tangency_band:
        reasons.append(f"tangency separation {sep:.3e} beyond band")
    if residual_q > plane.tol:
        reasons.append(f"q membership residual {residual_q:.3e}")
    return max(sep, residual_q), reasons


def verify_touching(
    plane: PlaneModel,
    cfg: TrialConfig,
    negative_control: bool = False,
) -> VerifyReport:
    """Axiom of Touching at trial scale.

    Per trial: a circle c, a point p on it and a point q off it are
    sampled; touch() must produce a circle through p and q meeting c only
    at p (within the tangency band).

    Sampling keeps the anchors away from the twist's critical points
    (chart slope of f outside the bounds): there the tangency exists but
    its double root lives beyond double-precision resolution in torus
    coordinates, which is conditioning, not geometry.

    The negative control claims a secant circle through p, q and a third
    point as the tangent, and the tangency assertions must catch it.
    """
    return _run_trials(
        "touching",
        plane,
        cfg,
        _sample_secant_claim if negative_control else _sample_touching,
        _check_touching,
        {
            "tangency_band": plane.tangency_band,
            "off_circle_margin": OFF_CIRCLE_MARGIN,
            "twist_slope_bounds": list(_SLOPE_BOUNDS),
        },
        negative_control,
    )


# ----------------------------------------------------------------------
# automorphisms


_HALF_STEP = CircleHomeo.from_mobius(MobiusMap.rotation(1.0 / 32.0))  # j/16 -> (j + 1/2)/16


def _check_automorphism(plane, inputs):
    """Carrier points of the joined circle must map onto the re-joined image."""
    triple, g = inputs["points"], inputs["group"]
    try:
        circle = plane.join(*triple)
        images = [g.act(pt) for pt in triple]
        image = plane.join(*images)
    except (NoBranch, ParallelInput) as exc:
        return math.inf, [f"join failed: {exc}"]
    hx, hy = g.factor_homeos()  # g(x, c(x)) lies on the image iff image . hx = hy . c
    residual = homeo_sup_distance(image.graph.compose(hx).compose(_HALF_STEP),
                                  hy.compose(circle.graph).compose(_HALF_STEP), 16)
    reasons = []
    if residual > IMAGE_TOL:
        reasons.append(f"image circle residual {residual:.3e}")
    a = TorusPoint(triple[0].x, triple[1].y)
    if parallel(images[0], g.act(a)) != PLUS:
        reasons.append("(+)-parallelity not preserved")
    b = TorusPoint(triple[1].x, triple[0].y)
    if parallel(images[0], g.act(b)) != "minus":
        reasons.append("(-)-parallelity not preserved")
    return residual, reasons


def verify_automorphism(
    plane: PlaneModel,
    g,
    cfg: TrialConfig,
    negative_control: bool = False,
) -> VerifyReport:
    """Circles map to circles under g, checked through re-joined images.

    Per trial: join a random triple c, push it through g and join the images;
    g must carry c's points at the 16 abscissae (j + 1/2) / 16 onto the image:
    one sup distance between the chains image . hx and hy . c, for g's factor
    maps (hx, hy). Parallel classes must map to parallel classes of the same
    kind. A g without a point action (`Case3Element`) is a ConfigError.
    The negative control draws twisted-branch triples only.
    """
    require_point_action(g)
    sample = _sample_reversing if negative_control else _sample_points
    return _run_trials(
        "automorphism",
        plane,
        cfg,
        lambda plane, rng: {**sample(plane, rng), "group": g},
        _check_automorphism,
        {"group": group_literal(g), "threshold": IMAGE_TOL},
        negative_control,
        keep_residual=True,
    )


# ----------------------------------------------------------------------
# rigidity


def _identity_deviation(m: MobiusMap) -> float:
    return min(max(abs(m.a - 1.0), abs(m.b), abs(m.c), abs(m.d - 1.0)),
               max(abs(m.a + 1.0), abs(m.b), abs(m.c), abs(m.d + 1.0)))


def _check_rigidity(plane, inputs, shift: int = 0):
    """Both coordinate maps fixing the triple must be the identity.

    Identity is `MobiusMap.is_identity`; the residual is the larger
    entry distance of the two maps to +-I. `shift` cyclically permutes
    the targets; the negative control uses 1.
    """
    p, q, r = inputs["points"]
    xs, ys = (p.x, q.x, r.x), (p.y, q.y, r.y)
    mu = mobius_from_three(*xs, *xs[shift:], *xs[:shift])
    nu = mobius_from_three(*ys, *ys[shift:], *ys[:shift])
    deviation = max(_identity_deviation(mu), _identity_deviation(nu))
    if not (mu.is_identity() and nu.is_identity()):
        return deviation, [f"non-identity solution, deviation {deviation:.3e}"]
    return deviation, []


def verify_rigidity(
    plane: PlaneModel,
    cfg: TrialConfig,
    negative_control: bool = False,
) -> VerifyReport:
    """Class-preserving automorphisms fixing three points are the identity.

    Coordinatewise candidates (mu, nu) fixing a pairwise-non-parallel
    triple are solved from the three-point constraints on each factor;
    both must come out as the identity. Only defined for the classical
    plane, where the class-preserving automorphisms are exactly the
    coordinatewise Mobius pairs. The negative control permutes the targets.
    """
    if plane.family != "classical":
        raise UnsupportedPlane("rigidity enumeration needs the classical plane")
    return _run_trials(
        "rigidity",
        plane,
        cfg,
        _sample_points,
        partial(_check_rigidity, shift=1 if negative_control else 0),
        {"form": "(+)-class-preserving corollary"},
        negative_control,
    )


# ----------------------------------------------------------------------
# fixed configurations


def _common_factor_fixed(elements, side_index: int):
    """(fixes_all, the first non-identity factor's fixed points that every factor keeps)."""
    factors = [el.factor_homeos()[side_index] for el in elements]
    for fixes_all, pts in map(fixed_coordinates, factors):
        if not fixes_all:
            return False, tuple(
                p for p in pts
                if all(chordal(h.apply(p), p) <= EQUALITY_TOL for h in factors)
            )
    return True, ()


_EXPECTED_CONFIG = {
    "diag": {"points": [], "plus": [], "minus": [], "diagonal_fixed": True},
    "kplus": {"points": [], "plus": "all", "minus": []},
    "kminus": {"points": [], "plus": [], "minus": "all"},
    "phi": {"points": [[math.inf, math.inf]], "plus": [math.inf], "minus": [math.inf]},
    "phi2": {
        "points": [[0.0, math.inf], [math.inf, math.inf]],
        "plus": [0.0, math.inf],
        "minus": [math.inf],
    },
}


def _same_set(found, expected, dist) -> bool:
    """Whether each found element is within EQUALITY_TOL of an expected one, and back."""
    return (
        len(found) == len(expected)
        and all(any(dist(f, e) <= EQUALITY_TOL for e in expected) for f in found)
        and all(any(dist(f, e) <= EQUALITY_TOL for f in found) for e in expected)
    )


def verify_fixed_configuration(
    family_key: str,
    cfg: TrialConfig,
    negative_control: bool = False,
) -> VerifyReport:
    """Common fixed elements of a family sample match its classification.

    The actions are componentwise, so fixed points are products of the
    factor maps' common fixed coordinates, each map's solved in closed form
    (`groups.fixed_coordinates`). Fixed points, fixed parallel classes and,
    for the diagonal family, the invariant diagonal circle are compared
    against the case labels of the classification. The negative control
    compares a Phi family against the other Phi family's label, and any
    other family against the Phi label.
    """
    elements = family_sample(family_key)
    expect_key = type(elements[0]).head
    if negative_control:
        expect_key = "phi2" if expect_key == "phi" else "phi"
    expected = _EXPECTED_CONFIG[expect_key]
    counterexamples = []
    t0 = time.perf_counter()

    fx_all, fx_pts = _common_factor_fixed(elements, 0)
    fy_all, fy_pts = _common_factor_fixed(elements, 1)
    for sign, side, fixes_all, pts in (("+", "plus", fx_all, fx_pts),
                                       ("-", "minus", fy_all, fy_pts)):
        want = expected[side]
        if want == "all" or fixes_all:
            matches = want == "all" and fixes_all
        else:
            exp_pts = [ProjPoint.from_real(v) for v in want]
            matches = _same_set(pts, exp_pts, chordal)
        if not matches:
            counterexamples.append(
                {
                    "reason": f"fixed ({sign})-classes mismatch",
                    "found": "all" if fixes_all else [p.value() for p in pts],
                    "expected": want,
                }
            )

    # fixed points: products of commonly fixed factor coordinates
    if fx_all or fy_all:
        found_points = []  # a kernel family fixes whole classes, never isolated points
    else:
        found_points = [TorusPoint(x, y) for x in fx_pts for y in fy_pts]
    exp_points = [TorusPoint.from_reals(*xy) for xy in expected["points"]]
    if not _same_set(found_points, exp_points, torus_dist):
        counterexamples.append(
            {
                "reason": "common fixed points mismatch",
                "found": [[p.x.value(), p.y.value()] for p in found_points],
                "expected": expected["points"],
            }
        )

    max_residual = 0.0
    if expected.get("diagonal_fixed"):
        # the diagonal is setwise invariant under every sampled element...
        for el in elements:
            for k in range(16):
                pt = el.act(TorusPoint.from_reals(*2 * (math.tan(1.2 * k - 7.0),)))
                drift = chordal(pt.x, pt.y)
                max_residual = max(max_residual, drift)
                if drift > EQUALITY_TOL:
                    counterexamples.append(
                        {"reason": "diagonal not setwise fixed",
                         "element": group_literal(el), "drift": drift}
                    )
                    break
        # ...and no sampled non-diagonal circle is fixed by the whole family
        plane = classical_plane()
        rng = cfg.rng_for(0)
        for _ in range(12):
            circle = plane.join(*sample_triple(rng, SEPARATION))
            if all(
                max(
                    plane.membership_residual(circle, el.act(
                        circle.point_at(ProjPoint.from_chart((j + 0.5) / 8.0))
                    ))
                    for j in range(8)
                )
                <= 1e-6
                for el in elements
            ):
                diag = plane.mobius_circle(MobiusMap.identity())
                if (homeo_sup_distance(circle.graph, diag.graph, 64, stop_above=plane.uniq_tol)
                        > plane.uniq_tol):
                    counterexamples.append(
                        {"reason": "unexpected invariant circle found"}
                    )

    return VerifyReport(
        suite="fixed-configuration",
        plane=f"family:{family_key}",
        seed=cfg.seed,
        trials=len(elements),
        passed=not counterexamples,
        max_residual=max_residual,
        counterexamples=counterexamples,
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
        statistics={"sampled_elements": len(elements)},
        negative_control=negative_control,
    )


# ----------------------------------------------------------------------
# derived planes


_INF_BASE = TorusPoint.from_reals(math.inf, math.inf)


def _sample_derived(plane, rng, base: TorusPoint) -> dict:
    """Two derived points off the base cross, not equal to each other."""
    a = _draw(rng, _random_torus_point, lambda a: parallel(a, base, SEPARATION) == "none")
    b = _draw(rng, _random_torus_point, lambda b: (
        parallel(b, base, SEPARATION) == "none" and parallel(a, b) != "both"))
    return {"a": a, "b": b, "base": base}


def _check_derived(plane, inputs, shift_base: bool = False):
    """The line through a and b must re-join identically with swapped points.

    `shift_base` rejoins at a shifted base; the negative control sets it.
    """
    a, b, base = inputs["a"], inputs["b"], inputs["base"]
    line = plane.derived_line_through(base, a, b)
    rel = parallel(a, b)
    if line.kind != "circle":
        expected_kind = "plus-class" if rel == PLUS else "minus-class"
        if line.kind != expected_kind:
            return math.inf, ["parallel case misclassified"]
        return 0.0, []
    if rel != "none":
        return math.inf, ["circle returned for parallel pair"]
    if shift_base:
        base = TorusPoint(
            ProjPoint.from_chart(base.x.chart() + 0.11),
            ProjPoint.from_chart(base.y.chart() + 0.23),
        )
    other = plane.derived_line_through(base, b, a)
    if other.kind != "circle":
        return math.inf, ["permuted rejoin changed kind"]
    distance = homeo_sup_distance(line.circle.graph, other.circle.graph, REJOIN_GRID)
    if distance > plane.uniq_tol:
        return distance, [f"permuted rejoin disagrees by {distance:.3e}"]
    return distance, []


def verify_derived_plane(
    plane: PlaneModel,
    base: TorusPoint,
    cfg: TrialConfig,
    negative_control: bool = False,
) -> VerifyReport:
    """Unique derived-plane lines through random point pairs.

    Per trial: two derived points off the base cross; the line through
    them must re-join identically under permuted arguments, and the
    parallel-class cases must stay disjoint from the circle cases. The
    negative control rejoins against a shifted base, which must disagree.
    """
    return _run_trials(
        "derived-plane",
        plane,
        cfg,
        partial(_sample_derived, base=base),
        partial(_check_derived, shift_base=negative_control),
        {"base": [base.x.value(), base.y.value()]},
        negative_control,
    )


# ----------------------------------------------------------------------
# counterexample recheck


def recheck_counterexample(suite: str, plane: PlaneModel, ce: dict) -> bool:
    """Re-verify a counterexample in isolation.

    Runs the suite's own check, the one its run applied, on the
    counterexample's inputs. Returns True when the violation reproduces;
    sound reports only carry counterexamples that do. The check is the
    suite's sound one, so a negative control whose breakage lies in its
    check (rigidity, derived-plane) does not reproduce.
    """
    spec = SUITES.get(suite)
    if spec is None or spec.check is None or ce.keys() <= _CE_FIELDS:
        raise UnsupportedPlane(f"no trial inputs to recheck for suite {suite!r}")
    inputs = {k: _deser(v) for k, v in ce.items() if k not in _CE_FIELDS}
    return bool(spec.check(plane, inputs)[1])


# ----------------------------------------------------------------------
# registry


class SuiteSpec(NamedTuple):
    """How the CLI and callers reach one suite's entry point and control.

    `run(plane, cfg, group)` calls the `verify_<suite>` function named
    `entry` with `bind(plane, group)` as its leading arguments and
    `options` as keywords. `control(cfg)` calls it with `options` and
    `negative_control=True` on `control_args()`, the control's plane (and
    group or base), with the trials capped at `control_trials`; a control
    that builds a twisted plane builds it once. `check` is the trial check
    the run applies and `recheck_counterexample` replays.
    """

    name: str
    entry: str
    bind: Callable
    control_args: Callable[[], tuple]
    control_trials: int | None = None
    check: Callable | None = None
    options: Mapping = MappingProxyType({})  # read-only, so sharing it is safe

    def run(self, plane, cfg: TrialConfig, group=None) -> VerifyReport:
        # looked up at call time, so a wrapper installed on the module is used
        return globals()[self.entry](*self.bind(plane, group), cfg, **self.options)

    def control(self, cfg: TrialConfig) -> VerifyReport:
        if self.control_trials is not None:
            cfg = TrialConfig(cfg.seed, min(cfg.trials, self.control_trials))
        return globals()[self.entry](*self.control_args(), cfg, negative_control=True,
                                     **self.options)


def _plane_only(plane, group):
    return (plane,)


# the automorphism suite's group when none is given, per plane family
_MU = MobiusMap((2.0, 1.0, 1.0, 1.0))
_DEFAULT_GROUPS = {"classical": DiagonalPSL(_MU), "half-classical": KernelPlusPSL(_MU)}


def _plane_and_group(plane, group):
    return plane, group if group is not None else _DEFAULT_GROUPS[plane.family]


_NEGATION = MobiusMap((-1.0, 0.0, 0.0, 1.0))  # x -> -x, det < 0


class _CorruptedTwistPlane(PlaneModel):
    """The joining control's plane: twisted joins use nu . (x -> -x), det > 0."""

    __slots__ = ()

    def describe(self) -> str:
        return super().describe() + "[corrupted-twisted-branch]"

    def join(self, p, q, r):
        circle = super().join(p, q, r)
        if circle.tag != TAG_TWISTED:
            return circle
        return self._twisted_circle(circle.mobius.compose(_NEGATION))


@cache
def _power_two_plane():
    """The touching and automorphism controls' plane, built once: planes are immutable."""
    return half_classical_plane(CircleHomeo.power(2.0))


_JOINING = SuiteSpec(
    "joining", "verify_joining", _plane_only,
    # every control triple joins on the twisted branch, which this plane breaks
    cache(lambda: (_CorruptedTwistPlane("half-classical", CircleHomeo.power(2.0)),)), 60,
    _check_joining,
)

SUITES = {
    "joining": _JOINING,
    "joining-stress": _JOINING._replace(name="joining-stress", check=_check_stress,
                                        options={"stress": True}),
    # secant circles claimed as tangents must be caught
    "touching": SuiteSpec(
        "touching", "verify_touching", _plane_only,
        lambda: (_power_two_plane(),), 10,
        _check_touching,
    ),
    # the wrong-side kernel on a twisted plane
    "automorphism": SuiteSpec(
        "automorphism", "verify_automorphism", _plane_and_group,
        lambda: (_power_two_plane(), KernelMinusPSL(MobiusMap.affine(1.0, 1.0))),
        40,
        _check_automorphism,
    ),
    # cyclically permuted targets must be caught
    "rigidity": SuiteSpec(
        "rigidity", "verify_rigidity", _plane_only, lambda: (classical_plane(),), 20,
        _check_rigidity,
    ),
    # a family checked against the wrong case label
    "fixed-configuration": SuiteSpec(
        "fixed-configuration", "verify_fixed_configuration",
        lambda plane, group: (family_key_of(group) if group is not None else "diag",),
        lambda: ("phi:2",),
    ),
    # rejoin against a shifted base must disagree
    "derived-plane": SuiteSpec(
        "derived-plane", "verify_derived_plane", lambda plane, group: (plane, _INF_BASE),
        lambda: (classical_plane(), _INF_BASE), 20, _check_derived,
    ),
}
