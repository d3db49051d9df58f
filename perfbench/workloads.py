"""The four benchmark workloads.

Each workload maps an op index k to one unit of work and returns an
`OpResult`. The latency covers only the library call or the child process;
result checks and digests are computed outside it.

* `incidence`, `tangency`: one op is one suite trial, run through the public
  `SUITES` registry with `TrialConfig(seed=trial_seed(seed, k), trials=1)`,
  so no input repeats. A negative-control call is one op per control trial;
  its trials share the call's latency equally.
* `interactive`: one op is one public call on a pool of seeded inputs built
  before timing; the pool is reused, as a library user reuses a working set.
* `cli-verify`: one op is one cold `torus-planes` process.

`failed` marks an op that reported a failure. `problem` names an output
that contradicts what the seed determines, and makes the run incorrect:
a failed suite trial, a negative control that passes, a wrong interactive
answer, an unexpected exit, or a result that differs from its screening
run. `check` is the result that re-runs are compared with.

Three known defects fail at a low rate: a touching result that misses q by
just over the tolerance (or whose pencil scan finds no bracket), a
chart-scan intersection that misses a crossing on a steep piece of a graph,
and a negative control of fewer than 20 trials that finds no
counterexample. Inputs that can meet one are screened, untimed, before
they are timed: `screen(k)` runs op k's inputs once, and the interactive
pool runs each candidate once as it is built. Screening returns
`(defect, where, trials, failed trials)` tallies, which the run checks
against a binomial limit of each defect's known rate and counts in
`error_rate`. An op whose screening run met a defect is skipped, and a pool
candidate that met one is replaced, so no timed op fails by a known defect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

import torus_planes as tp
from torus_planes.verify import sample_triple

from inputs import rng_for, trial_seed

OpResult = namedtuple("OpResult", "latency trials failed check digest problem note",
                      defaults=(None,))
VACUOUS_CONTROL_TRIALS = 20  # a negative control this short may find no counterexample

TAG_TWISTED = "half-classical-twisted"
CONTROL_TRIALS = 200  # the CLI's default; each control caps it at its own size


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def interleave(entries, extra):
    """Spread `extra` evenly through `entries`."""
    out = list(entries)
    step = len(out) // (len(extra) + 1)
    for i, item in enumerate(extra):
        out.insert((i + 1) * step + i, item)
    return out


class Workload:
    """Defaults for a workload none of whose inputs can meet a known defect."""

    build_known = ()  # known-defect tallies from screening the inputs at build time
    rejected = 0  # build-time candidates replaced because they met a known defect

    def screen(self, k):
        """Known-defect tallies of op k's inputs, from an untimed run; None if none apply."""
        return None


# ----------------------------------------------------------------------
# suite workloads


class SuiteWorkload(Workload):
    """Suite trials on the plane matrix, with each suite's negative control.

    Every touching run, trial or control, is screened: touching trials meet
    the touching defect, and its control is capped at 10 trials.
    """

    def __init__(self, name, seed, planes, combos, controls, rounds):
        self.name = name
        self.seed = seed
        self.planes = planes
        trials = [("trial", label, suite) for _ in range(rounds) for label, suite in combos]
        self.schedule = interleave(trials, [("control", None, s) for s in controls])
        self.digest_prefix = len(self.schedule)
        self.screened = {}  # op index -> (known-defect tallies, check of the screening run)

    def _call(self, k):
        """The op's report, or the PlaneGeometryError it raised."""
        kind, label, suite = self.schedule[k % len(self.schedule)]
        spec = tp.SUITES[suite]
        try:
            if kind == "trial":
                return spec.run(self.planes[label],
                                tp.TrialConfig(seed=trial_seed(self.seed, k), trials=1), None)
            return spec.control(tp.TrialConfig(seed=trial_seed(self.seed, k),
                                               trials=CONTROL_TRIALS))
        except tp.PlaneGeometryError as exc:
            return exc

    def screen(self, k):
        kind, label, suite = self.schedule[k % len(self.schedule)]
        if suite != "touching":
            return None
        if k not in self.screened:
            report = self._call(k)
            known = ()
            if isinstance(report, tp.PlaneGeometryError):
                check = ("raised", type(report).__name__)
            else:
                check = (report.passed, len(report.counterexamples))
                if kind == "trial":
                    known = (("touching", label, report.trials, len(report.counterexamples)),)
                elif report.trials < VACUOUS_CONTROL_TRIALS:
                    known = (("vacuous negative control", suite, 1, int(report.passed)),)
            self.screened[k] = (known, check)
        return self.screened[k][0]

    def run_op(self, k, digest=False):
        kind = self.schedule[k % len(self.schedule)][0]
        start = time.perf_counter()
        report = self._call(k)
        latency = time.perf_counter() - start
        if isinstance(report, tp.PlaneGeometryError):
            note = f"{type(report).__name__}: {report}"
            return OpResult(latency, 1, True, ("raised", type(report).__name__), None,
                            f"{self.outcome_key(k)} raised {note}", note)
        failed = report.passed if kind == "control" else not report.passed
        check = (report.passed, len(report.counterexamples))
        note = problem = None
        if failed:
            note = ("control passed" if kind == "control"
                    else report.counterexamples[0].get("reason", "?"))
            problem = f"{self.outcome_key(k)}: {note}"
        if k in self.screened and self.screened[k][1] != check:
            problem = (f"op {k} ({self.outcome_key(k)}) gave {check}, its screening run "
                       f"gave {self.screened[k][1]}")
        return OpResult(latency, report.trials, failed, check,
                        sha256(report.canonical_json()) if digest else None, problem, note)

    def outcome_key(self, k):
        kind, label, suite = self.schedule[k % len(self.schedule)]
        return f"{suite} negative control" if kind == "control" else f"{suite} on {label}"


def incidence(seed, planes):
    combos = [(label, suite) for label in planes
              for suite in ("joining", "automorphism", "derived-plane")]
    combos.append(("classical", "rigidity"))
    controls = ("joining", "automorphism", "derived-plane", "rigidity")
    return SuiteWorkload("incidence", seed, planes, combos, controls, rounds=40)


def tangency(seed, planes):
    combos = [(label, "touching") for label in planes]
    return SuiteWorkload("tangency", seed, planes, combos, ("touching",), rounds=50)


# ----------------------------------------------------------------------
# interactive


def _route(c1, c2) -> str:
    twisted = (c1.tag == TAG_TWISTED, c2.tag == TAG_TWISTED)
    if twisted == (False, False):
        return "quadratic"
    if twisted == (True, True):
        return "twisted"
    return "scan"


def _twist_slope_ok(plane, x) -> bool:
    """The touching suite's anchor conditioning: f's chart slope in [0.05, 20]."""
    eps = 1e-4
    theta = x.chart()
    lo = plane.f.apply(tp.ProjPoint.from_chart(theta - eps)).chart()
    hi = plane.f.apply(tp.ProjPoint.from_chart(theta + eps)).chart()
    slope = abs((hi - lo + 0.5) % 1.0 - 0.5) / (2.0 * eps)
    return 0.05 <= slope <= 20.0


def _random_point(rng):
    return tp.TorusPoint(tp.ProjPoint.from_chart(rng.random()),
                         tp.ProjPoint.from_chart(rng.random()))


def _attempts(what):
    for attempt in range(10_000):
        yield attempt
    raise RuntimeError(f"could not sample {what}")


def _touch_input(plane, rng):
    circle = plane.join(*sample_triple(rng, 1e-3))
    for _ in _attempts("a touch anchor"):
        x0 = tp.ProjPoint.from_chart(rng.random())
        if _twist_slope_ok(plane, x0):
            break
    p = circle.point_at(x0)
    for _ in _attempts("a touch target"):
        q = _random_point(rng)
        if (tp.parallel(p, q, 1e-3) == "none"
                and plane.membership_residual(circle, q) >= 1e-2
                and _twist_slope_ok(plane, q.x)):
            return ("touch", plane, circle, p, q)


def _intersect_input(plane, route, rng):
    """Two circles sharing exactly the two points a and b, on a given route."""
    for _ in _attempts(f"a {route} intersection"):
        c1 = plane.join(*sample_triple(rng, 1e-3))
        ta, tb = rng.random(2)
        a = c1.point_at(tp.ProjPoint.from_chart(ta))
        b = c1.point_at(tp.ProjPoint.from_chart(tb))
        r = _random_point(rng)
        if (min(abs(ta - tb), 1.0 - abs(ta - tb)) < 0.05
                or tp.chordal(a.y, b.y) < 0.05
                or tp.parallel(a, r, 1e-2) != "none"
                or tp.parallel(b, r, 1e-2) != "none"
                or plane.membership_residual(c1, r) < 1e-2):
            continue
        c2 = plane.join(a, b, r)
        if _route(c1, c2) == route:
            return ("intersect", plane, c1, c2, (a, b))


def _svg_input(plane, rng):
    circles = [("circle", plane.join(*sample_triple(rng, 1e-3))) for _ in range(3)]
    classes = [("pclass", tp.ParallelClass(kind, tp.ProjPoint.from_chart(rng.random())))
               for kind in ("plus", "minus")]
    g = tp.DiagonalPSL(tp.MobiusMap.rotation(rng.uniform(0.02, 0.2)))
    orbit = [_random_point(rng)]
    for _ in range(24):
        orbit.append(g.act(orbit[-1]))
    return ("svg", circles + classes + [("orbit", orbit)], len(orbit))


POOL_PER_ROUTE = 16
# call routes that meet a known defect, by the route `_check` reports
DEFECT_OF_ROUTE = {"closed_form": "touching", "scanned": "touching",
                   "scan": "chart-scan intersection"}


def _call(item):
    """The public call an interactive pool item makes; a raised error is returned."""
    kind = item[0]
    try:
        if kind == "touch":
            _, plane, c, p, q = item
            return plane.touch(c, p, q)
        if kind == "intersect":
            _, plane, c1, c2, _ = item
            return plane.circle_intersect(c1, c2)
        return tp.render_svg(item[1])
    except tp.PlaneGeometryError as exc:
        return exc


class Interactive(Workload):
    """Direct public calls: touch, circle_intersect on all routes, render_svg.

    Every call route that exists on a plane gets the same number of pool
    items, POOL_PER_ROUTE: touch, the quadratic intersection and render_svg
    on every plane, and the twisted and chart-scan intersections on the
    three twisted planes. The repository has no record of how often users
    make each call, so the mix is this convention, not measured usage.
    Each candidate is run once as the pool is built; one on a route with a
    known defect that gives a wrong answer is tallied and replaced.
    """

    name = "interactive"

    def __init__(self, seed, planes):
        rng = rng_for(seed, 2)
        self.tallies = {}  # (defect, plane) -> [candidates run, wrong answers]
        pool = []
        for label, plane in planes.items():
            routes = ("quadratic",) if label == "classical" else ("quadratic", "twisted", "scan")
            for _ in range(POOL_PER_ROUTE):
                pool.append(self._screened(label, lambda: _touch_input(plane, rng)))
                pool += [self._screened(label, lambda: _intersect_input(plane, route, rng))
                         for route in routes]
                pool.append(self._screened(label, lambda: _svg_input(plane, rng)))
        order = rng.permutation(len(pool))
        self.pool = [pool[i][0] for i in order]
        self.expected = [pool[i][1] for i in order]  # check of the screening run
        self.build_known = tuple((defect, label, trials, failed) for (defect, label),
                                 (trials, failed) in sorted(self.tallies.items()))
        self.rejected = sum(failed for *_, failed in self.build_known)
        self.digest_prefix = len(self.pool)

    def _screened(self, label, draw):
        """(item, check) of the first candidate that no known defect spoils."""
        while True:
            item = draw()
            check, _ = self._check(item, _call(item))
            defect = DEFECT_OF_ROUTE.get(check[0])
            if defect is None:
                return item, check
            tally = self.tallies.setdefault((defect, label), [0, 0])
            tally[0] += 1
            if check[-1]:
                return item, check
            tally[1] += 1

    def outcome_key(self, k):
        item = self.pool[k % len(self.pool)]
        return item[0]

    def run_op(self, k, digest=False):
        index = k % len(self.pool)
        item = self.pool[index]
        start = time.perf_counter()
        out = _call(item)
        latency = time.perf_counter() - start
        check, text = self._check(item, out)
        problem = None
        if check != self.expected[index]:
            problem = (f"pool item {index} gave {check}, its screening run gave "
                       f"{self.expected[index]}")
        elif not check[-1]:
            problem = f"pool item {index} ({item[0]}) gave a wrong answer: {check}, {text[:200]}"
        return OpResult(latency, 1, not check[-1], check,
                        sha256(text) if digest else None, problem, repr(check))

    @staticmethod
    def _check(item, out):
        """(route, count, ..., ok) and the text to digest; ok is False on a wrong answer."""
        kind = item[0]
        if isinstance(out, tp.PlaneGeometryError):
            return (kind, "raised", type(out).__name__, False), str(out)
        if kind == "touch":
            _, plane, c, p, q = item
            route = "closed_form" if _route(c, out) in ("quadratic", "twisted") else "scanned"
            worst = max(plane.membership_residual(out, p), plane.membership_residual(out, q))
            far, sep = plane.tangency_separation(c, out, p)
            ok = worst <= plane.tol and not far and sep <= plane.tangency_band
            return (route, 1, ok), repr((out.tag, out.mobius.m.tolist()))
        if kind == "intersect":
            _, plane, c1, c2, shared = item
            hits = all(any(tp.torus_dist(pt, s) <= 1e-6 for pt in out) for s in shared)
            text = repr([(pt.x.h0, pt.x.h1, pt.y.h0, pt.y.h1) for pt in out])
            return (_route(c1, c2), len(out), len(out) == 2 and hits), text
        _, _, orbit_len = item
        dots = out.count("<circle ")
        ok = out.startswith("<svg") and dots == orbit_len
        return ("svg", out.count("<polyline"), dots, ok), out


# ----------------------------------------------------------------------
# cli-verify


def _real_token(theta: float) -> str:
    theta %= 1.0
    if abs(theta - 0.5) < 1e-9:
        return "inf"
    return repr(math.tan(math.pi * theta))


def _point_token(rng) -> str:
    return f"{_real_token(rng.random())},{_real_token(rng.random())}"


_VERIFY_LINE = re.compile(r"^(\S+): (PASS|FAIL) \(max residual \S+, (\d+) counterexamples\)")
_GROUPS = ("phi:2:3:1:1", "phi2:-1:2:3:1", "diag:psl:2,1,1,1", "kplus:psl:1,1,0,1")
_ORBIT_STEPS = 24


class CliVerify(Workload):
    """Cold `torus-planes` processes, one at a time.

    The cycle follows the workload's brief: mostly short verify runs with
    mixed suites (eight of twelve, the fixed-configuration run among them;
    each plane gets two, and every suite appears), one multi-suite run and
    one each of join, plot and report-index. The multi-suite run is the
    5-suite, 200-trial `verify` that the roadmap's baseline times, on
    `classical` (rigidity needs it), without touching, which gets two
    10-trial runs a cycle instead; the tangency workload measures it in
    full. The repository has no record of how often users run each command,
    so these proportions are a convention, not measured usage.

    A verify run that can meet a known defect (one with touching, or with
    controls under 20 trials) is screened: its suites and controls are run
    in this process, untimed, with the configuration the CLI builds.
    """

    name = "cli-verify"

    def __init__(self, seed, planes, specs, root: Path, work: Path):
        self.seed = seed
        self.planes = planes
        self.specs = specs
        self.src = root / "src"
        self.launcher = root / "perfbench" / "cli_launcher.py"
        self.work = work
        self.env = {**os.environ,
                    "PYTHONPATH": os.pathsep.join(
                        [str(self.src)] + ([os.environ["PYTHONPATH"]]
                                           if os.environ.get("PYTHONPATH") else []))}
        self.env.pop("TORUS_PLANES_SEED", None)
        self.schedule = [
            ("verify", "classical", "joining,rigidity", 20),
            ("verify", "power-2", "touching", 10),
            ("verify", "power-1/3", "automorphism,derived-plane", 20),
            ("join",),
            ("verify", "spline", "joining,touching", 10),
            ("fixed",),
            ("verify", "power-2", "joining,derived-plane", 20),
            ("plot",),
            ("verify", "classical", "joining,automorphism,derived-plane,rigidity", 200),
            ("verify", "spline", "automorphism", 20),
            ("verify", "power-1/3", "joining,automorphism", 20),
            ("report-index",),
        ]
        self.digest_prefix = len(self.schedule)
        self.peak_rss_kb = 0
        self.screened = {}  # op index -> known-defect tallies
        self.begin_pass("untraced")

    def begin_pass(self, label, tracer=None):
        """Fresh working directory; reports accumulate in it for report-index."""
        self.cwd = self.work / label
        (self.cwd / "reports").mkdir(parents=True, exist_ok=True)
        self.tracer = tracer

    def outcome_key(self, k):
        entry = self.schedule[k % len(self.schedule)]
        return entry[0] if entry[0] != "verify" else f"verify {entry[2]}"

    def _plane(self, k, label):
        labels = list(self.specs)
        return self.specs[label or labels[(k // len(self.schedule)) % len(labels)]]

    def _argv(self, k):
        entry = self.schedule[k % len(self.schedule)]
        s = trial_seed(self.seed, k)
        rng = rng_for(self.seed, 3, k)
        kind = entry[0]
        if kind == "verify":
            _, label, suites, trials = entry
            return ["verify", "--plane", self._plane(k, label), "--suite", suites,
                    "--trials", str(trials), "--seed", str(s), "--out", "reports"]
        if kind == "fixed":
            group = _GROUPS[(k // len(self.schedule)) % len(_GROUPS)]
            return ["verify", "--plane", "classical", "--suite", "fixed-configuration",
                    "--group", group, "--seed", str(s), "--out", "reports"]
        if kind == "join":
            return ["join", "--plane", self._plane(k, None), "--"] + [
                _point_token(rng) for _ in range(3)]
        if kind == "plot":
            circle = ":".join(_point_token(rng) for _ in range(3))
            turn = rng.uniform(0.02, 0.2) * math.pi
            c, s_ = repr(math.cos(turn)), repr(math.sin(turn))
            return ["plot", "--plane", self._plane(k, None),
                    f"circle3:{circle}", f"pclass:plus:{_real_token(rng.random())}",
                    f"orbit:diag:psl:{c},{s_},{repr(-math.sin(turn))},{c}:"
                    f"{_point_token(rng)}:{_ORBIT_STEPS}", "--out", "figure.svg"]
        return ["report-index", "reports"]

    def _verify_args(self, argv):
        """(plane label, suites, seed, trials) of a verify command line."""
        plane = argv[argv.index("--plane") + 1]
        label = next(k for k, v in self.specs.items() if v == plane)
        trials = int(argv[argv.index("--trials") + 1]) if "--trials" in argv else None
        return (label, argv[argv.index("--suite") + 1].split(","),
                int(argv[argv.index("--seed") + 1]), trials)

    def screen(self, k):
        argv = self._argv(k)
        if argv[0] != "verify" or "--trials" not in argv:
            return None
        label, suites, seed, trials = self._verify_args(argv)
        if "touching" not in suites and trials >= VACUOUS_CONTROL_TRIALS:
            return None
        if k not in self.screened:
            cfg = tp.TrialConfig(seed=seed, trials=trials)
            known = []
            for suite in suites:
                spec = tp.SUITES[suite]
                report, control = spec.run(self.planes[label], cfg, None), spec.control(cfg)
                if suite == "touching":
                    failures = (len(report.counterexamples)
                                + report.statistics.get("counterexamples_dropped", 0))
                    known.append(("touching", label, report.trials, failures))
                if control.trials < VACUOUS_CONTROL_TRIALS:
                    known.append(("vacuous negative control", suite, 1, int(control.passed)))
            self.screened[k] = tuple(known)
        return self.screened[k]

    def _spawn(self, argv, spans):
        if spans is None:
            cmd = [sys.executable, "-m", "torus_planes.cli", *argv]
        else:
            cmd = [sys.executable, str(self.launcher), str(spans), "--", *argv]
        out_path, err_path = self.cwd / "stdout.txt", self.cwd / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(120.0, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return (latency, proc.returncode, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8"))

    def run_op(self, k, digest=False):
        argv = self._argv(k)
        spans = None
        if self.tracer is not None:
            spans = self.cwd / "spans.json"
            spans.unlink(missing_ok=True)
        latency, rc, stdout, stderr = self._spawn(argv, spans)
        if spans is not None and spans.exists():
            self.tracer.merge_file(spans)
        kind = argv[0]
        if kind == "verify":
            check, problem, text = self._check_verify(argv, rc, stdout)
        elif kind == "join":
            check, problem, text = self._check_join(rc, stdout)
        elif kind == "plot":
            check, problem, text = self._check_plot(argv, rc)
        else:
            check, problem, text = self._check_index(rc)
        failed = rc != 0 or check[-1] is False
        note = (stderr.strip()[-200:] or stdout.strip()[-200:]) if failed else None
        if problem is None and (rc not in (0, 1) or (failed and kind != "verify")):
            problem = f"{kind} exit {rc}, result {check}: {note}"
        return OpResult(latency, 1, failed, check, sha256(text) if digest else None,
                        problem, note)

    def _check_verify(self, argv, rc, stdout):
        """(check, problem, text): every suite must pass and every control fail."""
        label, suites, seed, _ = self._verify_args(argv)
        printed = {}
        for line in stdout.splitlines():
            m = _VERIFY_LINE.match(line)
            if m:
                printed[m.group(1)] = (m.group(2) == "PASS", int(m.group(3)))
        outcome, texts, all_ok, problems = [], [stdout], True, []
        for suite in suites:
            reports = []
            for path in (self.cwd / "reports" / f"{suite}-seed{seed}.json",
                         self.cwd / "reports" / f"{suite}-negative-control-seed{seed}.json"):
                if not path.exists():
                    return (rc,), f"{path.name} was not written", stdout
                payload = json.loads(path.read_text(encoding="utf-8"))
                payload.pop("runtime_ms", None)
                texts.append(json.dumps(payload, sort_keys=True, indent=2))
                reports.append(payload)
            suite_report, control = reports
            result = (suite_report["pass"], len(suite_report["counterexamples"]))
            if printed.get(suite) != result:
                return ((rc,), f"{suite}: printed {printed.get(suite)}, report says {result}",
                        stdout)
            all_ok = all_ok and suite_report["pass"] and not control["pass"]
            outcome.append((suite, *result, control["pass"]))
            if not suite_report["pass"]:
                problems.append(f"{suite} on {label} failed")
            if control["pass"]:
                problems.append(f"{suite} negative control passed")
        expected_rc = 0 if all_ok else 1
        if rc != expected_rc:
            problems.append(f"exit {rc}, reports imply {expected_rc}")
        return (rc, tuple(outcome)), "; ".join(problems) or None, "\n".join(texts)

    @staticmethod
    def _check_join(rc, stdout):
        branch = re.search(r"^branch: (\S+)", stdout, re.M)
        residuals = re.search(r"^membership residuals: (.*)$", stdout, re.M)
        if rc != 0 or not branch or not residuals:
            return (rc,), None if rc != 0 else "join printed no circle", stdout
        worst = max(float(v) for v in residuals.group(1).split(","))
        return (rc, branch.group(1), worst <= 1e-9), None, stdout

    def _check_plot(self, argv, rc):
        path = self.cwd / argv[argv.index("--out") + 1]
        if rc != 0 or not path.exists():
            return (rc,), None if rc != 0 else "plot wrote no file", ""
        svg = path.read_text(encoding="utf-8")
        dots = svg.count("<circle ")
        ok = svg.startswith("<svg") and dots == _ORBIT_STEPS + 1
        return (rc, svg.count("<polyline"), dots, ok), None, svg

    def _check_index(self, rc):
        path = self.cwd / "reports" / "index.json"
        if rc != 0 or not path.exists():
            return (rc,), None if rc != 0 else "report-index wrote no index", ""
        index = json.loads(path.read_text(encoding="utf-8"))
        passes = fails = 0
        for report in (self.cwd / "reports").glob("*.json"):
            if report.name == "index.json":
                continue
            payload = json.loads(report.read_text(encoding="utf-8"))
            if not payload["negative_control"]:
                passes += payload["pass"] is True
                fails += payload["pass"] is False
        found = (index["pass_count"], index["fail_count"])
        problem = None if found == (passes, fails) else f"index counts {found}, reports {passes, fails}"
        return (rc, *found), problem, json.dumps(index, sort_keys=True)


def make(name, seed, planes, specs, root, work):
    if name == "incidence":
        return incidence(seed, planes)
    if name == "tangency":
        return tangency(seed, planes)
    if name == "interactive":
        return Interactive(seed, planes)
    return CliVerify(seed, planes, specs, root, work)
