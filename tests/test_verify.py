import json
import math

import numpy as np
import pytest

from torus_planes import (
    CircleHomeo,
    ConfigError,
    MobiusMap,
    NoBranch,
    ParallelInput,
    PlaneModel,
    ProjPoint,
    SamplingExhausted,
    TorusPoint,
    UnsupportedPlane,
    classical_plane,
    half_classical_plane,
    parse_plane_spec,
    recheck_counterexample,
)
from torus_planes.groups import DiagonalPSL, KernelMinusPSL, KernelPlusPSL, parse_group_literal
from torus_planes import verify
from torus_planes.planes import TAG_CLASSICAL, TAG_PSL, TAG_TWISTED, parallel
from torus_planes.verify import (
    SEPARATION,
    STRESS_SEPARATION,
    STRESS_THRESHOLD,
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

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, (7 << 32) | 5, 2**70])
    def test_trial_stream_is_numpys_default_rng(self, seed):
        # seeds past 32 bits take several SeedSequence words, as the
        # benchmark's (seed << 32) | op trial seeds do
        for trial in (0, 1, 199, 2**33):
            ours = TrialConfig(seed=seed, trials=1).rng_for(trial)
            ref = np.random.default_rng((seed, trial))
            assert [ours.random() for _ in range(50)] == [ref.random() for _ in range(50)]

    def test_sample_triple_accepts_a_numpy_generator(self):
        ours = sample_triple(TrialConfig(seed=5).rng_for(3), SEPARATION)
        ref = sample_triple(np.random.default_rng((5, 3)), SEPARATION)
        assert [verify._ser(p) for p in ours] == [verify._ser(p) for p in ref]

    def test_unreachable_separation_fails_instead_of_hanging(self, classical, monkeypatch):
        # chordal distance is at most sqrt(2), so no second point is ever accepted
        monkeypatch.setattr(verify, "SEPARATION", 1.5)
        report = verify_joining(classical, TrialConfig(trials=2))
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
            branches = plane.join_branches(*sample_triple(cfg.rng_for(i), SEPARATION))
            if not branches["psl"][1] and branches["twisted"][0] is None:
                collapsed.append(i)
        assert collapsed
        assert [ce["trial"] for ce in report.counterexamples] == collapsed
        assert all(ce["reason"].startswith("join failed") for ce in report.counterexamples)

    def test_joining_stress_reports_conditioning(self, classical):
        report = verify_joining(classical, TrialConfig(seed=42, trials=30), stress=True)
        assert report.suite == "joining-stress"
        assert report.statistics == {"separation": 1e-7, "threshold": 1e-5}

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
        sep, reasons = _check_touching(plane, inputs)
        assert reasons == [] and sep <= plane.tangency_band

    @pytest.mark.parametrize("spec, tag", [("classical", TAG_CLASSICAL),
                                           ("half:power:2", TAG_TWISTED)])
    @pytest.mark.parametrize("delta, beyond", [(1e-4, True), (1e-7, False)])
    def test_claimed_secant_against_the_tangency_band(self, spec, tag, delta, beyond):
        # a claim through p, q and r, delta further along the carrier in the
        # chart, meets the carrier again at r, about pi delta from p: 3.1e-4
        # is beyond the 1e-6 band and trips its reason alone, 3.1e-7 is within
        plane = parse_plane_spec(spec)
        points = [pt(0, 0), pt(1, -1), pt(2, -3)]
        carrier = plane.join(*points)
        assert carrier.tag == tag
        p, r = (carrier.point_at(ProjPoint.from_chart(t)) for t in (0.3, 0.3 + delta))
        q = pt(-2, 5)
        inputs = {"points": points, "p": p, "q": q, "claimed_points": [p, q, r]}
        sep, reasons = _check_touching(plane, inputs)
        assert sep == pytest.approx(math.pi * delta, rel=1e-2)
        if beyond:
            assert reasons == [f"tangency separation {sep:.3e} beyond band"]
        else:
            assert reasons == []

    @pytest.mark.parametrize("spec", ["classical", "half:power:2"])
    def test_a_tangent_claim_that_misses_q_trips_q_membership_alone(self, spec):
        # the claim is the tangent to c at p through a second point q2, so
        # it touches c at p and trips only the reason for the missed q
        plane = parse_plane_spec(spec)
        for trial in range(10):
            rng = CFG.rng_for(trial)
            inputs = verify._sample_touching(plane, rng)
            circle, p = plane.join(*inputs["points"]), inputs["p"]
            q2 = verify._draw(rng, verify._random_torus_point, lambda q2: (
                parallel(p, q2, SEPARATION) == "none"
                and plane.membership_residual(circle, q2) >= verify.OFF_CIRCLE_MARGIN
                and verify._conditioned(plane, q2.x)))
            tangent = plane.touch(circle, p, q2)
            r2 = verify._draw(rng, lambda rng: tangent.point_at(verify.sample_proj_point(rng)),
                              lambda r2: parallel(p, r2, SEPARATION) == "none"
                              and parallel(q2, r2, SEPARATION) == "none")
            _, reasons = _check_touching(plane, {**inputs, "claimed_points": [p, q2, r2]})
            residual_q = plane.membership_residual(plane.join(p, q2, r2), inputs["q"])
            assert reasons == [f"q membership residual {residual_q:.3e}"]

    def test_automorphism_threshold_from_both_sides(self, half2):
        # an x-side translation does not commute with the power twist: the
        # image misses by ~4.9 delta, within IMAGE_TOL at delta = 1e-9 and
        # beyond it at 1e-7
        cfg = TrialConfig(seed=1, trials=20)
        within = verify_automorphism(half2, KernelMinusPSL(MobiusMap.affine(1.0, 1e-9)), cfg)
        assert within.passed and 1e-9 < within.max_residual < verify.IMAGE_TOL
        beyond = verify_automorphism(half2, KernelMinusPSL(MobiusMap.affine(1.0, 1e-7)), cfg)
        assert not beyond.passed and beyond.max_residual > 10.0 * verify.IMAGE_TOL
        assert all(ce["reason"].startswith("image circle residual")
                   for ce in beyond.counterexamples)

    def test_swapped_parallel_classes_trip_both_parallelity_reasons(self, classical):
        # no library family can: each acts componentwise, so it keeps both classes
        class Swap:
            def act(self, p):
                return TorusPoint(p.y, p.x)

            def factor_homeos(self):
                return CircleHomeo.identity(), CircleHomeo.identity()

        triple = [pt(0, 0), pt(1, 2), pt(3, -1)]
        residual, reasons = _check_automorphism(classical, {"points": triple, "group": Swap()})
        assert reasons == [f"image circle residual {residual:.3e}",
                           "(+)-parallelity not preserved", "(-)-parallelity not preserved"]

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

    def test_rigidity_decides_with_is_identity(self, classical, monkeypatch):
        # a det-1 scaling with a - d = 1.5e-9 is within EQUALITY_TOL of the
        # identity entrywise but is not the identity by `is_identity`
        m = MobiusMap.scaling(1.0 + 1.5e-9)
        assert not m.is_identity() and verify._identity_deviation(m) <= verify.EQUALITY_TOL
        monkeypatch.setattr(verify, "mobius_from_three", lambda *points: m)
        points = [pt(0, 0), pt(1, 1), pt(2, 3)]
        residual, reasons = verify._check_rigidity(classical, {"points": points})
        assert reasons and residual == verify._identity_deviation(m)

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

    @pytest.mark.parametrize("suite", ["joining", "joining-stress", "touching", "automorphism"])
    def test_twisted_control_plane_is_built_once(self, suite):
        # planes are immutable, so every control run shares one
        assert SUITES[suite].control_args()[0] is SUITES[suite].control_args()[0]

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
            p, q, r = _sample_reversing(half2, cfg.rng_for(i))["points"]
            assert half2.join(p, q, r).tag == TAG_TWISTED

    def test_stress_control_is_a_stress_run(self):
        # the control runs with its suite's options: stress sampling and threshold
        report = control("joining-stress", TrialConfig(seed=3, trials=5))
        assert report.suite == "joining-stress" and report.negative_control
        assert report.statistics["separation"] == STRESS_SEPARATION == 1e-7
        assert report.statistics["threshold"] == STRESS_THRESHOLD == 1e-5
        assert report.counterexamples[0]["trial"] == 0

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
         ("trials", 2.5), ("trials", "5")],
    )
    def test_counts_must_be_integers_in_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrialConfig(**{field: value})

    def test_config_is_a_seed_and_a_trial_count(self):
        assert TrialConfig._fields == ("seed", "trials")
        assert TrialConfig() == TrialConfig(42, 200)

    def test_report_manifest_can_be_set(self, classical):
        report = verify_joining(classical, TrialConfig(seed=1, trials=2))
        assert report.manifest is None
        report.manifest = {"seed": 1}
        assert json.loads(report.full_json())["manifest"] == {"seed": 1}

    def test_suite_options_are_not_shared_mutable_state(self):
        assert SUITES["joining-stress"].options == {"stress": True}
        with pytest.raises(TypeError):
            SUITES["joining"].options["stress"] = True

    def test_monotone_tolerance(self):
        cfg = TrialConfig(seed=42, trials=50)
        tight = verify_joining(classical_plane(tol=1e-9), cfg)
        loose = verify_joining(classical_plane(tol=1e-6), cfg)
        assert tight.passed and loose.passed
        assert tight.statistics["threshold"] == 1e-9 and loose.statistics["threshold"] == 1e-6


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

    def test_recheck_replays_the_runs_check(self):
        # a residual above the plane's tolerance and within the stress
        # threshold fails joining's check and passes joining-stress's
        plane = classical_plane(tol=1e-15)
        report = verify_joining(plane, TrialConfig(seed=1, trials=50))
        ce = next(ce for ce in report.counterexamples
                  if ce["reason"].startswith("membership residual") and "; " not in ce["reason"])
        assert 1e-15 < ce["residual"] <= 1e-5
        assert recheck_counterexample("joining", plane, ce) is True
        assert recheck_counterexample("joining-stress", plane, ce) is False

    def test_fixed_configuration_has_nothing_to_replay(self):
        report = control("fixed-configuration")
        ce = report.counterexamples[0]
        with pytest.raises(UnsupportedPlane):
            recheck_counterexample("fixed-configuration", classical_plane(), ce)

    def test_sound_reports_have_nothing_to_recheck(self, classical):
        report = verify_joining(classical, TrialConfig(seed=42, trials=30))
        assert report.counterexamples == []


def counted_joins(monkeypatch) -> list:
    """The planes of every `PlaneModel.join` call from here on, one entry a call."""
    calls, join = [], PlaneModel.join

    def counted(plane, p, q, r):
        calls.append(plane)
        return join(plane, p, q, r)

    monkeypatch.setattr(PlaneModel, "join", counted)
    return calls


class TestSharedCarrier:
    """A touching trial's sampler and check read one carrier join."""

    @pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
    # the control also joins its claim
    @pytest.mark.parametrize("negative_control, joins_per_trial", [(False, 1), (True, 2)])
    def test_a_touching_trial_joins_its_carrier_once(self, name, negative_control,
                                                     joins_per_trial, monkeypatch):
        plane = SEEDED_PLANES[name](rng_for(214))
        calls = counted_joins(monkeypatch)
        report = verify_touching(plane, TrialConfig(seed=3, trials=12), negative_control)
        assert report.passed is not negative_control
        assert len(calls) == joins_per_trial * 12 and set(calls) == {plane}

    @pytest.mark.parametrize("name", sorted(SEEDED_PLANES))
    @pytest.mark.parametrize("negative_control", [False, True])
    def test_reports_match_a_join_on_every_read(self, name, negative_control, monkeypatch):
        plane = SEEDED_PLANES[name](rng_for(215))
        cfg = TrialConfig(seed=9, trials=20)
        first = verify_touching(plane, cfg, negative_control).canonical_json()
        assert verify_touching(plane, cfg, negative_control).canonical_json() == first
        monkeypatch.setattr(verify, "_carrier", lambda plane, p, q, r: plane.join(p, q, r))
        assert verify_touching(plane, cfg, negative_control).canonical_json() == first

    def test_a_failed_carrier_join_is_joined_again_by_the_check(self, monkeypatch):
        # x^9 collapses the twisted images of some triples (see the joining
        # suite's test); their carrier join raises in the sampler and again
        # in the check, which reports it
        plane = parse_plane_spec("half:power:9")
        cfg = TrialConfig(seed=1, trials=200)
        calls = counted_joins(monkeypatch)
        report = verify_touching(plane, cfg)
        failed = [ce for ce in report.counterexamples
                  if ce["reason"].startswith("carrier join failed: ")]
        assert failed and all(ce.keys() == {"trial", "points", "reason"} for ce in failed)
        assert "counterexamples_dropped" not in report.statistics
        assert len(calls) == cfg.trials + len(failed)

    def test_a_control_counterexample_rechecks_after_another_run(self, monkeypatch):
        spec = SUITES["touching"]
        plane = spec.control_args()[0]
        report = spec.control(TrialConfig(seed=42, trials=10))
        assert report.counterexamples
        verify_touching(plane, TrialConfig(seed=5, trials=3))  # the memo now holds its triple
        calls = counted_joins(monkeypatch)
        for ce in report.counterexamples[:3]:
            assert recheck_counterexample("touching", plane, ce) is True
        # deserialised points miss the memo: carrier and claim are joined afresh
        assert len(calls) == 2 * len(report.counterexamples[:3])


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
            residual, _ = _check_automorphism(plane, {"points": triple, "group": g})
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
