"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line. Trial counts, seeds, and tolerances
are pinned here; loosening any of them is a spec change, not a fix.
"""

import json
import math

import numpy as np

from torus_planes import (
    CircleHomeo,
    DiagonalPSL,
    KernelMinusPSL,
    KernelPlusPSL,
    MobiusMap,
    PhiStd,
    PhiTwoFixed,
    ProjPoint,
    TorusPoint,
    chordal,
    classical_plane,
    diagonal_transitivity_witness,
    half_classical_plane,
    homeo_sup_distance,
    recheck_counterexample,
    torus_dist,
)
from torus_planes.verify import (
    SUITES,
    TrialConfig,
    verify_automorphism,
    verify_fixed_configuration,
    verify_joining,
    verify_rigidity,
    verify_touching,
)

from helpers import random_psl, rng_for

pt = TorusPoint.from_reals
INF = math.inf

SEED = 42


def _report_line(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} ({detail})")


def test_criterion_1_joining_suite():
    planes = [
        ("classical", classical_plane()),
        ("half(power:1/3)", half_classical_plane(CircleHomeo.power(1.0 / 3.0))),
        ("half(power:2)", half_classical_plane(CircleHomeo.power(2.0))),
        ("half(power:3)", half_classical_plane(CircleHomeo.power(3.0))),
    ]
    cfg = TrialConfig(seed=SEED, trials=1000)
    ok = True
    details = []
    for label, plane in planes:
        report = verify_joining(plane, cfg)
        uniqueness_violations = sum(
            1 for ce in report.counterexamples if "branch uniqueness" in ce["reason"]
        )
        good = (
            report.passed
            and report.max_residual < 1e-9
            and uniqueness_violations == 0
            and report.runtime_ms < 10_000.0
        )
        ok = ok and good
        details.append(
            f"{label}: residual {report.max_residual:.2e}, {report.runtime_ms:.0f} ms"
        )
        assert report.passed, (label, report.counterexamples[:2])
        assert report.max_residual < 1e-9, label
        assert uniqueness_violations == 0, label
        assert report.runtime_ms < 10_000.0, label
    _report_line(1, "joining, 1000 trials x 4 planes", ok, "; ".join(details))


def test_criterion_2_touching_suite():
    classical = classical_plane()
    report_c = verify_touching(classical, TrialConfig(seed=SEED, trials=500))
    half2 = half_classical_plane(CircleHomeo.power(2.0))
    report_h = verify_touching(half2, TrialConfig(seed=SEED, trials=200))
    # every counterexample must persist full inputs and re-verify at 10x
    for plane, report in ((classical, report_c), (half2, report_h)):
        for ce in report.counterexamples:
            assert "points" in ce and "p" in ce and "q" in ce
            assert recheck_counterexample("touching", plane, ce)
    ok = report_c.passed and report_h.passed
    _report_line(
        2,
        "touching, classical 500 + half(power:2) 200",
        ok,
        f"classical residual {report_c.max_residual:.2e}, "
        f"half residual {report_h.max_residual:.2e}, "
        f"counterexamples {len(report_c.counterexamples)}+{len(report_h.counterexamples)}",
    )
    assert report_c.passed, report_c.counterexamples[:2]
    assert report_h.passed, report_h.counterexamples[:2]


def test_criterion_3_kernel_action_realized():
    plane = half_classical_plane(CircleHomeo.power(2.0))
    cfg = TrialConfig(seed=SEED, trials=200)
    g = KernelPlusPSL(MobiusMap([[2.0, 1.0], [1.0, 1.0]]))
    report = verify_automorphism(plane, g, cfg)
    control = verify_automorphism(
        plane, KernelMinusPSL(MobiusMap([[1.0, 1.0], [0.0, 1.0]])), cfg,
        negative_control=True,
    )
    ok = report.passed and not control.passed and len(control.counterexamples) >= 1
    _report_line(
        3,
        "one-factor kernel action on half(power:2)",
        ok,
        f"kplus residual {report.max_residual:.2e}; "
        f"kminus counterexamples {len(control.counterexamples)}",
    )
    assert report.passed, report.counterexamples[:2]
    assert not control.passed and control.counterexamples


def test_criterion_4_diagonal_action_realized():
    plane = classical_plane()
    cfg = TrialConfig(seed=SEED, trials=200)
    rng = rng_for(SEED, 9000)
    report = verify_automorphism(plane, DiagonalPSL(random_psl(rng)), cfg)
    assert report.passed, report.counterexamples[:2]

    # the diagonal is a circle: joins of random diagonal triples are the
    # identity graph
    identity_circle = plane.mobius_circle(MobiusMap.identity())
    worst_sup = 0.0
    joined = 0
    while joined < 50:
        thetas = sorted(rng.random(3))
        if min(np.diff(thetas)) < 1e-3 or thetas[0] + 1.0 - thetas[2] < 1e-3:
            continue
        points = [
            TorusPoint(ProjPoint.from_chart(t), ProjPoint.from_chart(t))
            for t in thetas
        ]
        circle = plane.join(*points)
        worst_sup = max(
            worst_sup, homeo_sup_distance(circle.graph, identity_circle.graph, 64)
        )
        joined += 1
    assert worst_sup < 1e-9

    # 100 off-diagonal transitivity witnesses with det > 0
    witnesses = 0
    while witnesses < 100:
        src = TorusPoint(ProjPoint.from_chart(rng.random()), ProjPoint.from_chart(rng.random()))
        dst = TorusPoint(ProjPoint.from_chart(rng.random()), ProjPoint.from_chart(rng.random()))
        if chordal(src.x, src.y) < 1e-2 or chordal(dst.x, dst.y) < 1e-2:
            continue
        witness = diagonal_transitivity_witness(src, dst)
        assert witness.mu.orientation == 1
        assert torus_dist(witness.act(src), dst) < 1e-9
        witnesses += 1

    _report_line(
        4,
        "diagonal action on the classical plane",
        True,
        f"suite residual {report.max_residual:.2e}, diagonal sup {worst_sup:.2e}, "
        f"{witnesses} transitivity witnesses",
    )


def test_criterion_5_fixed_configurations():
    cfg = TrialConfig(seed=SEED, trials=200)
    details = []
    for d in (0.0, -1.0, -2.0):
        report = verify_fixed_configuration(f"phi2:{d:g}", cfg)
        assert report.passed, (d, report.counterexamples)
        details.append(f"phi2 d={d:g} ok")
    for d in ("inf", "0", "1", "2"):
        report = verify_fixed_configuration(f"phi:{d}", cfg)
        assert report.passed, (d, report.counterexamples)
        details.append(f"phi d={d} ok")
    # the generic element itself fixes the claimed points exactly
    for d in (0.0, -1.0, -2.0):
        g = PhiTwoFixed(d, 2.0, 3.0, 1.0)
        for fixed in (pt(INF, INF), pt(0, INF)):
            assert torus_dist(g.act(fixed), fixed) < 1e-12
    for d in (math.inf, 0.0, 1.0, 2.0):
        g = PhiStd(d, 2.0, 3.0, 1.0)
        assert torus_dist(g.act(pt(INF, INF)), pt(INF, INF)) < 1e-12
    _report_line(5, "fixed configurations, closed forms", True, "; ".join(details))


def _phi_like_sample(rng, family, d):
    if family == "phi":
        return PhiStd(d, rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1))
    return PhiTwoFixed(
        d, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-1, 1)
    )


def _recover_params(family, d, g1, g2):
    """Parameters of g1 . g2 recovered purely from double application."""

    def image(x, y):
        return g1.act(g2.act(pt(x, y)))

    x0 = image(0.0, 0.0)
    x1 = image(1.0, 1.0)
    if family == "phi":
        if math.isinf(d):
            b = x0.x.value()
            c = x0.y.value()
            a = x1.y.value() - c
        else:
            b = x0.x.value()
            a = x1.x.value() - b
            c = x0.y.value()
        return a, b, c
    if d == 0.0:
        a = x1.x.value()
        c = x0.y.value()
        b = x1.y.value() - c
        return a, b, c
    a = x1.x.value()
    xe = image(math.e, 0.0)
    b = math.log(xe.x.value() / a)
    c = x0.y.value()
    return a, b, c


def test_criterion_6_group_laws():
    rng = rng_for(SEED, 6000)
    probes = [pt(rng.normal(), rng.normal()) for _ in range(6)]

    def random_member(family):
        if family == "kplus":
            return KernelPlusPSL(random_psl(rng))
        if family == "kminus":
            return KernelMinusPSL(random_psl(rng))
        if family == "diag":
            return DiagonalPSL(random_psl(rng))
        if family == "phi":
            return PhiStd(2.0, rng.uniform(0.5, 2.0), rng.normal(), rng.normal())
        return PhiTwoFixed(-1.0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.normal())

    worst = 0.0
    for family in ("kplus", "kminus", "diag", "phi", "phi2"):
        for _ in range(20):
            a, b, c = (random_member(family) for _ in range(3))
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            inv = a.inverse()
            for p in probes:
                worst = max(worst, torus_dist(left.act(p), right.act(p)))
                worst = max(worst, torus_dist(a.compose(b).act(p), a.act(b.act(p))))
                worst = max(worst, torus_dist(a.compose(inv).act(p), p))
    assert worst < 1e-10

    # composition laws match the double-application oracle in parameters
    param_worst = 0.0
    for family, ds in (("phi", (math.inf, 0.0, 1.0, 2.0)), ("phi2", (0.0, -1.0, -2.0))):
        for d in ds:
            for _ in range(10):
                g1 = _phi_like_sample(rng, family, d)
                g2 = _phi_like_sample(rng, family, d)
                comp = g1.compose(g2)
                rec = _recover_params(family, d, g1, g2)
                for got, expect in zip(rec, (comp.a, comp.b, comp.c)):
                    param_worst = max(
                        param_worst, abs(got - expect) / max(1.0, abs(expect))
                    )
    assert param_worst < 1e-12
    _report_line(
        6,
        "group laws, five families",
        True,
        f"pointwise residual {worst:.2e}, parameter residual {param_worst:.2e}",
    )


def test_criterion_7_rigidity():
    report = verify_rigidity(classical_plane(), TrialConfig(seed=SEED, trials=100))
    _report_line(
        7,
        "rigidity, 100 fixed triples",
        report.passed,
        f"max identity deviation {report.max_residual:.2e}",
    )
    assert report.passed, report.counterexamples[:2]


def test_criterion_8_determinism():
    plane = classical_plane()
    half2 = half_classical_plane(CircleHomeo.power(2.0))
    pairs = [
        ("joining", lambda: verify_joining(plane, TrialConfig(seed=SEED, trials=200))),
        ("touching", lambda: verify_touching(half2, TrialConfig(seed=SEED, trials=20))),
        (
            "automorphism",
            lambda: verify_automorphism(
                plane,
                DiagonalPSL(MobiusMap([[2.0, 1.0], [1.0, 1.0]])),
                TrialConfig(seed=SEED, trials=50),
            ),
        ),
        (
            "negative-control",
            lambda: SUITES["automorphism"].control(TrialConfig(seed=SEED, trials=20)),
        ),
    ]
    for label, runner in pairs:
        first = runner().canonical_json()
        second = runner().canonical_json()
        assert first == second, f"{label} not byte-identical"
        json.loads(first)  # well-formed
    _report_line(8, "determinism, double-run diff", True, f"{len(pairs)} suites byte-identical")
