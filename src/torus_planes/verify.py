"""Randomized property harness for plane axioms and group-action claims.

Each suite runs seeded trials against a plane (and possibly a group
element) and produces a VerifyReport: pass/fail, the worst residual, and
a counterexample list carrying full inputs so any failure can be replayed
in isolation. Reports are deterministic: trial i draws only from the RNG
substream keyed by (seed, i), so reruns of the same configuration give
byte-identical payloads (wall time is excluded from the canonical form).

A trial-based suite is `sample(plane, rng, cfg)`, which draws a trial's
inputs as library objects (the entry point binds suite arguments such as
the group element into them), and `check(plane, inputs, cfg)`, which
returns `(residual, reasons)`; a non-empty `reasons` fails the trial.
Inputs are serialised only for counterexamples, and
`recheck_counterexample` runs the check on deserialised ones.

Every suite has a paired negative control, a deliberately broken run that
must fail from its first trial on; a passing control fails the whole run.
The registry gives each control's plane and trial cap, and
`negative_control=True` selects the suite's broken variant where the plane
or group does not already carry it. Controls are how the harness
distinguishes "the property holds" from "the test is vacuous".
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

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
from .homeo import SCAN_GRID, CircleHomeo, homeo_sup_distance
from .planes import (
    PLUS,
    TAG_TWISTED,
    PlaneModel,
    classical_plane,
    half_classical_plane,
    parallel,
)
from .projline import (
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


@dataclass(frozen=True)
class TrialConfig:
    """Deterministic trial plan: same config, plane, suite => same report."""

    seed: int = 42
    trials: int = 200
    separation: float = 1e-3
    tol: float | None = None

    def __post_init__(self):
        for name, least in (("seed", 0), ("trials", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
        for name in ("separation", "tol"):
            value = getattr(self, name)
            if value is None and name == "tol":
                continue
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")

    def rng_for(self, trial: int) -> np.random.Generator:
        return np.random.default_rng((int(self.seed), int(trial)))


@dataclass
class VerifyReport:
    """Outcome of one suite run; fails exactly when counterexamples exist."""

    suite: str
    plane: str
    seed: int
    trials: int
    passed: bool
    max_residual: float
    counterexamples: list
    runtime_ms: float
    statistics: dict = field(default_factory=dict)
    negative_control: bool = False
    manifest: dict | None = None

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
    """Run `check(plane, sample(plane, rng_i, cfg), cfg)` for every trial i.

    With `keep_residual`, a counterexample also records its finite residual.
    """
    t0 = time.perf_counter()
    counterexamples = []
    dropped = 0
    max_residual = 0.0
    for i in range(cfg.trials):
        try:
            inputs = sample(plane, cfg.rng_for(i), cfg)
        except SamplingExhausted as exc:
            inputs, residual, reasons = {}, math.inf, [str(exc)]
        else:
            residual, reasons = check(plane, inputs, cfg)
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


def sample_proj_point(rng: np.random.Generator) -> ProjPoint:
    return ProjPoint.from_chart(rng.random())


def _random_torus_point(rng: np.random.Generator) -> TorusPoint:
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
    for _ in range(count):
        pts.append(_draw(rng, sample_proj_point,
                         lambda c: all(chordal(c, p) >= separation for p in pts)))
    return pts


def sample_triple(rng: np.random.Generator, separation: float) -> list[TorusPoint]:
    """Three pairwise non-parallel torus points, coordinates separated."""
    xs = _sample_separated(rng, 3, separation)
    ys = _sample_separated(rng, 3, separation)
    return [TorusPoint(x, y) for x, y in zip(xs, ys)]


def _sample_points(plane, rng, cfg) -> dict:
    return {"points": sample_triple(rng, cfg.separation)}


def _sample_reversing(plane, rng, cfg) -> dict:
    """A triple whose x and y cyclic orders disagree, so it joins on the twisted branch.

    Where they agree, the map x -> y through the triple keeps orientation;
    then p and q trade y coordinates, which reverses the y order.
    """
    p, q, r = sample_triple(rng, cfg.separation)
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


def _check_joining(plane, inputs, cfg):
    """Join the triple: membership, circle set, unique branch, permuted rejoin."""
    p, q, r = inputs["points"]
    try:
        circle = plane.join(p, q, r)
    except (NoBranch, ParallelInput) as exc:
        return math.inf, [f"join failed: {exc}"]
    residual = max(plane.membership_residual(circle, pt) for pt in (p, q, r))
    threshold = cfg.tol if cfg.tol is not None else plane.tol
    valid = sum(1 for _, ok in plane.join_branches(p, q, r).values() if ok)
    reasons = []
    if residual > threshold:
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
    separation = 1e-7 if stress else cfg.separation
    threshold = cfg.tol if cfg.tol is not None else (1e-5 if stress else plane.tol)
    return _run_trials(
        "joining-stress" if stress else "joining",
        plane,
        replace(cfg, separation=separation, tol=threshold),
        _sample_reversing if negative_control else _sample_points,
        _check_joining,
        {"separation": separation, "threshold": threshold},
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


def _off_margin(cfg: TrialConfig) -> float:
    return max(10.0 * cfg.separation, 1e-2)


def _sample_touching(plane, rng, cfg) -> dict:
    """A carrier triple, a conditioned anchor p on its circle, q well off it."""
    base = sample_triple(rng, cfg.separation)
    try:
        circle = plane.join(*base)
    except (NoBranch, ParallelInput):
        return {"points": base}  # the check reports the failed carrier join
    margin = _off_margin(cfg)
    p = circle.point_at(_draw(rng, sample_proj_point, lambda x: _conditioned(plane, x)))
    q = _draw(rng, _random_torus_point, lambda q: (
        parallel(p, q, cfg.separation) == "none"
        and plane.membership_residual(circle, q) >= margin
        and _conditioned(plane, q.x)
    ))
    return {"points": base, "p": p, "q": q}


def _sample_secant_claim(plane, rng, cfg) -> dict:
    """The negative control: a third point r whose secant is claimed tangent."""
    inputs = _sample_touching(plane, rng, cfg)
    if "p" in inputs:
        p, q = inputs["p"], inputs["q"]
        r = _draw(rng, _random_torus_point, lambda r: (
            parallel(p, r, cfg.separation) == "none"
            and parallel(q, r, cfg.separation) == "none"
        ))
        inputs["claimed_points"] = [p, q, r]
    return inputs


def _check_touching(plane, inputs, cfg):
    """The tangent (or claimed circle) must pass q and meet the carrier only at p."""
    try:
        circle = plane.join(*inputs["points"])
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
            "off_circle_margin": _off_margin(cfg),
            "twist_slope_bounds": list(_SLOPE_BOUNDS),
        },
        negative_control,
    )


# ----------------------------------------------------------------------
# automorphisms


_HALF_STEP = CircleHomeo.from_mobius(MobiusMap.rotation(1.0 / 32.0))  # j/16 -> (j + 1/2)/16


def _check_automorphism(plane, inputs, cfg):
    """Carrier points of the joined circle must map onto the re-joined image."""
    triple, g = inputs["points"], inputs["group"]
    try:
        circle = plane.join(*triple)
        image = plane.join(*(g.act(pt) for pt in triple))
    except (NoBranch, ParallelInput) as exc:
        return math.inf, [f"join failed: {exc}"]
    hx, hy = g.factor_homeos()  # g(x, c(x)) lies on the image iff image . hx = hy . c
    residual = homeo_sup_distance(image.graph.compose(hx).compose(_HALF_STEP),
                                  hy.compose(circle.graph).compose(_HALF_STEP), 16)
    reasons = []
    if residual > (cfg.tol if cfg.tol is not None else 1e-8):
        reasons.append(f"image circle residual {residual:.3e}")
    a = TorusPoint(triple[0].x, triple[1].y)
    if parallel(g.act(triple[0]), g.act(a)) != PLUS:
        reasons.append("(+)-parallelity not preserved")
    b = TorusPoint(triple[1].x, triple[0].y)
    if parallel(g.act(triple[0]), g.act(b)) != "minus":
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
        lambda plane, rng, cfg: {**sample(plane, rng, cfg), "group": g},
        _check_automorphism,
        {"group": group_literal(g), "threshold": cfg.tol if cfg.tol is not None else 1e-8},
        negative_control,
        keep_residual=True,
    )


# ----------------------------------------------------------------------
# rigidity


def _identity_deviation(m: MobiusMap) -> float:
    return min(max(abs(m.a - 1.0), abs(m.b), abs(m.c), abs(m.d - 1.0)),
               max(abs(m.a + 1.0), abs(m.b), abs(m.c), abs(m.d + 1.0)))


def _check_rigidity(plane, inputs, cfg, shift: int = 0):
    """Both coordinate maps fixing the triple must be the identity.

    `shift` cyclically permutes the targets; the negative control uses 1.
    """
    p, q, r = inputs["points"]
    xs, ys = (p.x, q.x, r.x), (p.y, q.y, r.y)
    mu = mobius_from_three(*xs, *xs[shift:], *xs[:shift])
    nu = mobius_from_three(*ys, *ys[shift:], *ys[:shift])
    deviation = max(_identity_deviation(mu), _identity_deviation(nu))
    if deviation > 1e-9:
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
    """(fixes_all, common fixed coordinates) across a family sample."""
    factors = [el.factor_homeos()[side_index] for el in elements]
    scans = [pts for all_fixed, pts in map(fixed_coordinates, factors) if not all_fixed]
    if not scans:
        return True, ()
    candidates = [
        p for p in scans[0]
        if all(any(chordal(p, q) <= 1e-7 for q in pts) for pts in scans[1:])
    ]
    return False, tuple(
        p for p in candidates if all(chordal(h.apply(p), p) <= 1e-7 for h in factors)
    )


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


def _same_set(found, expected, near) -> bool:
    """Whether each found element is near an expected one, and vice versa."""
    return (
        len(found) == len(expected)
        and all(any(near(f, e) for e in expected) for f in found)
        and all(any(near(f, e) for f in found) for e in expected)
    )


def verify_fixed_configuration(
    family_key: str,
    cfg: TrialConfig,
    negative_control: bool = False,
) -> VerifyReport:
    """Common fixed elements of a family sample match its classification.

    Factor maps are scanned on a 512-point coordinate grid (the product
    scan covers the 512 x 512 torus grid plus the infinity cross, since
    the actions are componentwise); fixed points, fixed parallel classes
    and, for the diagonal family, the invariant diagonal circle are
    compared against the case labels of the classification. The negative
    control compares a Phi family against the other Phi family's label, and
    any other family against the Phi label.
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
            matches = _same_set(pts, exp_pts, lambda f, e: chordal(f, e) <= 1e-7)
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
    if not _same_set(found_points, exp_points, lambda f, e: torus_dist(f, e) <= 1e-7):
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
                if drift > 1e-9:
                    counterexamples.append(
                        {"reason": "diagonal not setwise fixed",
                         "element": group_literal(el), "drift": drift}
                    )
                    break
        # ...and no sampled non-diagonal circle is fixed by the whole family
        plane = classical_plane()
        rng = cfg.rng_for(0)
        for _ in range(12):
            circle = plane.join(*sample_triple(rng, cfg.separation))
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
                if homeo_sup_distance(circle.graph, diag.graph, 64) > plane.uniq_tol:
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
        statistics={"factor_scan_grid": SCAN_GRID, "sampled_elements": len(elements)},
        negative_control=negative_control,
    )


# ----------------------------------------------------------------------
# derived planes


_INF_BASE = TorusPoint.from_reals(math.inf, math.inf)


def _sample_derived(plane, rng, cfg, base: TorusPoint) -> dict:
    """Two derived points off the base cross, not equal to each other."""

    def off_base(pt):
        return (chordal(pt.x, base.x) >= cfg.separation
                and chordal(pt.y, base.y) >= cfg.separation)

    a = _draw(rng, _random_torus_point, off_base)
    b = _draw(rng, _random_torus_point, lambda b: off_base(b) and parallel(a, b) != "both")
    return {"a": a, "b": b, "base": base}


def _check_derived(plane, inputs, cfg, shift_base: bool = False):
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

    Runs the suite's check on the counterexample's inputs, under the
    default TrialConfig. Returns True when the violation reproduces; sound
    reports only carry counterexamples that do. The check is the suite's
    sound one, so a negative control whose breakage lies in its check
    (rigidity, derived-plane) does not reproduce.
    """
    spec = SUITES.get(suite)
    if spec is None or spec.check is None or ce.keys() <= _CE_FIELDS:
        raise UnsupportedPlane(f"no trial inputs to recheck for suite {suite!r}")
    inputs = {k: _deser(v) for k, v in ce.items() if k not in _CE_FIELDS}
    return bool(spec.check(plane, inputs, TrialConfig())[1])


# ----------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class SuiteSpec:
    """How the CLI and callers reach one suite's entry point and control.

    `run(plane, cfg, group)` calls the `verify_<suite>` function named
    `entry` with `bind(plane, group)` as its leading arguments and
    `options` as keywords. `control(cfg)` calls it with
    `negative_control=True` on `control_args()`, the control's plane (and
    group or base), with the trials capped at `control_trials`. `check` is
    the trial check that `recheck_counterexample` replays.
    """

    name: str
    entry: str
    bind: Callable
    control_args: Callable[[], tuple]
    control_trials: int | None = None
    check: Callable | None = None
    options: dict = field(default_factory=dict)

    def run(self, plane, cfg: TrialConfig, group=None) -> VerifyReport:
        # looked up at call time, so a wrapper installed on the module is used
        return globals()[self.entry](*self.bind(plane, group), cfg, **self.options)

    def control(self, cfg: TrialConfig) -> VerifyReport:
        if self.control_trials is not None:
            cfg = replace(cfg, trials=min(cfg.trials, self.control_trials))
        return globals()[self.entry](*self.control_args(), cfg, negative_control=True)


def _plane_only(plane, group):
    return (plane,)


def _plane_and_group(plane, group):
    if group is None:
        m = MobiusMap([[2.0, 1.0], [1.0, 1.0]])
        group = DiagonalPSL(m) if plane.family == "classical" else KernelPlusPSL(m)
    return plane, group


class _CorruptedTwistPlane(PlaneModel):
    """The joining control's plane: twisted joins use nu . (x -> -x), det > 0."""

    __slots__ = ()

    def describe(self) -> str:
        return super().describe() + "[corrupted-twisted-branch]"

    def join(self, p, q, r):
        circle = super().join(p, q, r)
        if circle.tag != TAG_TWISTED:
            return circle
        return self._twisted_circle(circle.mobius.compose(MobiusMap.scaling(-1.0)))


_JOINING = SuiteSpec(
    "joining", "verify_joining", _plane_only,
    # every control triple joins on the twisted branch, which this plane breaks
    lambda: (_CorruptedTwistPlane("half-classical", CircleHomeo.power(2.0)),), 60, _check_joining,
)

SUITES = {
    "joining": _JOINING,
    "joining-stress": replace(_JOINING, name="joining-stress", options={"stress": True}),
    # secant circles claimed as tangents must be caught
    "touching": SuiteSpec(
        "touching", "verify_touching", _plane_only,
        lambda: (half_classical_plane(CircleHomeo.power(2.0)),), 10,
        _check_touching,
    ),
    # the wrong-side kernel on a twisted plane
    "automorphism": SuiteSpec(
        "automorphism", "verify_automorphism", _plane_and_group,
        lambda: (
            half_classical_plane(CircleHomeo.power(2.0)),
            KernelMinusPSL(MobiusMap.affine(1.0, 1.0)),
        ),
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
