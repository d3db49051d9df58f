import json
import math

import pytest

from torus_planes import (
    CircleHomeo,
    ConfigError,
    MobiusMap,
    NoBranch,
    ParallelInput,
    ProjPoint,
    SamplingExhausted,
    TorusPoint,
    UnsupportedPlane,
    classical_plane,
    half_classical_plane,
    parse_plane_spec,
    recheck_counterexample,
)
from torus_planes.groups import DiagonalPSL, KernelPlusPSL, parse_group_literal
from torus_planes.planes import TAG_PSL, TAG_TWISTED
from torus_planes.verify import (
    SUITES,
    TrialConfig,
    _check_automorphism,
    _check_touching,
    _sample_reversing,
    sample_triple,
    verify_automorphism,
    verify_derived_plane,
    verify_fixed_configuration,
    verify_joining,
    verify_rigidity,
    verify_touching,
)

from helpers import SEEDED_PLANES, random_triple, rng_for

CFG = TrialConfig(seed=42, trials=60)
pt = TorusPoint.from_reals


@pytest.fixture(scope="module")
def classical():
    return classical_plane()


@pytest.fixture(scope="module")
def half2():
    return half_classical_plane(CircleHomeo.power(2))


class TestSampling:
    def test_triples_respect_separation(self):
        from torus_planes import chordal

        for trial in range(50):
            rng = CFG.rng_for(trial)
            a, b, c = sample_triple(rng, 1e-3)
            for u in (a, b, c):
                for v in (a, b, c):
                    if u is v:
                        continue
                    assert chordal(u.x, v.x) >= 1e-3
                    assert chordal(u.y, v.y) >= 1e-3

    def test_rng_streams_are_per_trial(self):
        assert CFG.rng_for(3).random() == CFG.rng_for(3).random()
        assert CFG.rng_for(3).random() != CFG.rng_for(4).random()

    def test_unreachable_separation_fails_instead_of_hanging(self, classical):
        # chordal distance is at most sqrt(2), so no second point is ever accepted
        report = verify_joining(classical, TrialConfig(trials=2, separation=1.5))
        assert not report.passed
        assert [ce["trial"] for ce in report.counterexamples] == [0, 1]
        assert all("sampling exhausted" in ce["reason"] for ce in report.counterexamples)
        with pytest.raises(SamplingExhausted):
            sample_triple(CFG.rng_for(0), 1.5)


class TestSuitesPass:
    def test_joining(self, classical, half2):
        assert verify_joining(classical, CFG).passed
        assert verify_joining(half2, CFG).passed

    def test_collapsed_twisted_images_fail_the_join(self):
        # x^9 maps distinct points of some triples within the tolerance;
        # a trial that needs the twisted branch then fails its join
        plane = parse_plane_spec("half:power:9")
        cfg = TrialConfig(seed=1, trials=200)
        report = verify_joining(plane, cfg)
        collapsed = []
        for i in range(cfg.trials):
            branches = plane.join_branches(*sample_triple(cfg.rng_for(i), cfg.separation))
            if not branches["psl"][1] and branches["twisted"][0] is None:
                collapsed.append(i)
        assert collapsed
        assert [ce["trial"] for ce in report.counterexamples] == collapsed
        assert all(ce["reason"].startswith("join failed") for ce in report.counterexamples)

    def test_joining_stress_reports_conditioning(self, classical):
        report = verify_joining(classical, TrialConfig(seed=42, trials=30), stress=True)
        assert report.suite == "joining-stress"
        assert report.statistics["separation"] == 1e-7

    def test_touching(self, classical, half2):
        cfg = TrialConfig(seed=42, trials=25)
        assert verify_touching(classical, cfg).passed
        assert verify_touching(half2, cfg).passed

    def test_touching_trial_where_the_twist_merges_p_and_q(self):
        # f = x^20 maps p.x and q.x within tol of each other, so the twisted
        # branch's family cannot be built; the carrier is PSL, and touching
        # on its own branch must not need it
        plane = parse_plane_spec("half:power:20")
        points = [pt(0.3555512775969055, 0.806271759323538),
                  pt(-0.4225394180995248, -1.061965446525834),
                  pt(0.6055108321138744, 7.754624744306137)]
        circle = plane.join(*points)
        assert circle.tag == TAG_PSL
        p = circle.point_at(ProjPoint.from_real(-0.20795380693606588))
        q = pt(-0.34331147830969216, -5.169007467721856)
        inputs = {"points": points, "p": p, "q": q}
        sep, reasons = _check_touching(plane, inputs, TrialConfig())
        assert reasons == [] and sep <= plane.tangency_band

    def test_automorphism(self, classical, half2):
        cfg = TrialConfig(seed=42, trials=25)
        g = DiagonalPSL(MobiusMap([[2.0, 1.0], [1.0, 1.0]]))
        assert verify_automorphism(classical, g, cfg).passed
        g2 = KernelPlusPSL(MobiusMap([[2.0, 1.0], [1.0, 1.0]]))
        assert verify_automorphism(half2, g2, cfg).passed

    def test_rigidity(self, classical, half2):
        assert verify_rigidity(classical, CFG).passed
        with pytest.raises(UnsupportedPlane):
            verify_rigidity(half2, CFG)

    def test_fixed_configuration_families(self):
        for key in ("diag", "kplus", "kminus", "phi:2", "phi:inf", "phi2:0", "phi2:-1"):
            report = verify_fixed_configuration(key, CFG)
            assert report.passed, (key, report.counterexamples)

    def test_derived_plane(self, classical, half2):
        base = pt(math.inf, math.inf)
        assert verify_derived_plane(classical, base, CFG).passed
        assert verify_derived_plane(half2, base, TrialConfig(seed=42, trials=30)).passed


def control(suite, cfg=CFG):
    """A suite's negative control, run the way the CLI runs it."""
    return SUITES[suite].control(cfg)


class TestNegativeControls:
    def test_every_suite_has_a_control(self):
        for name, spec in SUITES.items():
            assert callable(spec.control), name

    # every control fails on its first trial; (42, 60) is the CLI-sized run
    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("seed, trials", [(1, 1), (2, 1), (3, 1), (39, 5), (42, 60)])
    def test_control_fails(self, suite, seed, trials):
        report = control(suite, TrialConfig(seed=seed, trials=trials))
        assert not report.passed and report.negative_control
        assert report.counterexamples

    @pytest.mark.parametrize("seed", [1, 2, 3, 39])
    def test_control_triples_join_on_the_twisted_branch(self, half2, seed):
        cfg = TrialConfig(seed=seed)
        for i in range(20):
            p, q, r = _sample_reversing(half2, cfg.rng_for(i), cfg)["points"]
            assert half2.join(p, q, r).tag == TAG_TWISTED

    def test_no_branch_reported_on_corrupted_set(self):
        bad = SUITES["joining"].control_args()[0]
        c = bad.join(pt(0, 0), pt(1, -1), pt(math.inf, math.inf))
        assert not bad.circle_in_set(c)
        assert bad.membership_residual(c, pt(1, -1)) > 1e-3


class TestReports:
    def test_fail_iff_counterexamples(self, classical):
        good = verify_joining(classical, TrialConfig(seed=42, trials=20))
        assert good.passed and not good.counterexamples
        bad = control("joining", TrialConfig(seed=42, trials=20))
        assert not bad.passed and bad.counterexamples

    def test_payload_schema(self, classical):
        report = verify_joining(classical, TrialConfig(seed=42, trials=10))
        payload = json.loads(report.full_json())
        for key in ("schema", "suite", "plane", "seed", "trials", "pass",
                    "max_residual", "counterexamples", "runtime_ms"):
            assert key in payload
        assert payload["pass"] is True
        assert payload["suite"] == "joining"

    def test_determinism_excluding_runtime(self, classical, half2):
        cfg = TrialConfig(seed=7, trials=30)
        a = verify_joining(classical, cfg).canonical_json()
        b = verify_joining(classical, cfg).canonical_json()
        assert a == b
        cfg_t = TrialConfig(seed=7, trials=8)
        assert (
            verify_touching(half2, cfg_t).canonical_json()
            == verify_touching(half2, cfg_t).canonical_json()
        )

    def test_different_seed_changes_payload(self, classical):
        a = verify_joining(classical, TrialConfig(seed=1, trials=20)).canonical_json()
        b = verify_joining(classical, TrialConfig(seed=2, trials=20)).canonical_json()
        assert a != b

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -1), ("seed", 1.5), ("seed", "7"), ("seed", None),
         ("trials", 2.5), ("trials", "5"), ("separation", "x"), ("separation", None),
         ("tol", "x"), ("tol", [1])],
    )
    def test_counts_must_be_integers_in_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrialConfig(**{field: value})

    def test_monotone_tolerance(self, classical):
        tight = verify_joining(classical, TrialConfig(seed=42, trials=50, tol=1e-9))
        loose = verify_joining(classical, TrialConfig(seed=42, trials=50, tol=1e-6))
        assert tight.passed and loose.passed


class TestRecheck:
    @pytest.mark.parametrize(
        "suite, reproduces",
        [
            ("joining", True),
            ("joining-stress", True),
            ("touching", True),
            ("automorphism", True),
            # their breakage lies in the check, which recheck replays soundly
            ("rigidity", False),
            ("derived-plane", False),
        ],
    )
    def test_control_counterexamples_recheck(self, suite, reproduces):
        spec = SUITES[suite]
        report = spec.control(TrialConfig(seed=42, trials=20))
        plane = spec.control_args()[0]
        assert report.counterexamples
        if suite == "touching":
            assert "claimed_points" in report.counterexamples[0]
        for ce in report.counterexamples[:3]:
            replayed = recheck_counterexample(suite, plane, ce)
            assert replayed is reproduces

    def test_fixed_configuration_has_nothing_to_replay(self):
        report = control("fixed-configuration")
        ce = report.counterexamples[0]
        with pytest.raises(UnsupportedPlane):
            recheck_counterexample("fixed-configuration", classical_plane(), ce)

    def test_sound_reports_have_nothing_to_recheck(self, classical):
        report = verify_joining(classical, TrialConfig(seed=42, trials=30))
        assert report.counterexamples == []


# the group literals of the benchmark's cli-verify workload
BENCHMARK_GROUPS = ("phi:2:3:1:1", "phi2:-1:2:3:1", "diag:psl:2,1,1,1", "kplus:psl:1,1,0,1")


def probe_residual(plane, circle, image, g):
    """The scalar reference: g-images of 16 carrier points against the image."""
    residual = 0.0
    for j in range(16):
        carrier = circle.point_at(ProjPoint.from_chart((j + 0.5) / 16.0))
        residual = max(residual, plane.membership_residual(image, g.act(carrier)))
    return residual


@pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
def test_automorphism_residual_matches_the_probe_loop(name):
    rng = rng_for(213)
    plane = SEEDED_PLANES[name](rng)
    outcomes = set()
    for literal in (None, *BENCHMARK_GROUPS):
        group = None if literal is None else parse_group_literal(literal)
        _, g = SUITES["automorphism"].bind(plane, group)
        for _ in range(8):
            triple = random_triple(rng)
            residual, _ = _check_automorphism(plane, {"points": triple, "group": g}, CFG)
            try:
                circle = plane.join(*triple)
                image = plane.join(*(g.act(p) for p in triple))
            except (NoBranch, ParallelInput):
                assert residual == math.inf
                continue
            want = probe_residual(plane, circle, image, g)
            assert abs(residual - want) <= 1e-12
            assert (residual > 1e-8) == (want > 1e-8)
            outcomes.add(want > 1e-8)
    assert outcomes == {False, True}  # both sides of the threshold are covered
