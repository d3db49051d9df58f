"""The torus-planes benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe

With `--trace 0` it measures the end-to-end metrics for S seconds; with
`--trace 1` it runs a fixed prefix of the workload's ops three times
(untraced, traced, untraced again) and reports the per-layer metrics and
the trace overhead.
Every metric is printed on its own line with its unit and workload, and the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import os

# numpy and BLAS are pinned to one thread in this process and its children,
# so the numbers measure the program, not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("incidence", "tangency", "interactive", "cli-verify")
SUITE_WORKLOADS = ("incidence", "tangency")

# tail percentile per workload, with well over ten samples beyond it at the
# baseline op count (p99.9 on incidence read scheduler hiccups); fixed so
# that a faster program cannot move a workload to another percentile. The
# tail is the median of the percentile over up to this many consecutive
# chunks of the run, so one noisy stretch cannot set it; a slow run uses
# fewer chunks, so each keeps ten samples beyond the percentile.
TAIL = {"incidence": (99.0, 9), "tangency": (99.0, 5), "interactive": (99.0, 5),
        "cli-verify": (75.0, 1)}

# traced runs measure a fixed prefix of ops, so per-layer counts repeat
# exactly for a seed; about three seconds untraced on a 2-vCPU x86 VM
TRACE_OPS = {"incidence": 8000, "tangency": 1000, "interactive": 1200, "cli-verify": 12}

# incidence re-runs every 16th op after timing to check its result; tangency
# compares every op with its screening run instead
RECHECK_STRIDE = 16
SETUP_PROBES = 15
# set-up probes are scaled to the time a fresh interpreter takes to import
# numpy alone, read at this value; see measure_setup
REFERENCE_IMPORT_S = 0.08
ERROR_FLOOR = 0.01
# Known defects and the failure rates the seed shows for them, per trial,
# interactive pool candidate or control call. Inputs that can meet one are
# screened before they are timed (see workloads.py), and a screened op that
# meets one is skipped. A run is incorrect when the screening failures from
# one defect on one plane (or suite) exceed what its rate explains: the
# count that Binomial(trials, rate) exceeds with probability at most
# KNOWN_ALPHA.
KNOWN_RATES = {
    # a touching result misses q by just over the 1e-9 tolerance, or its
    # pencil scan finds no bracket: 29 of 187,193 suite trials failed over
    # the four planes, at most 10 of 46,795 on one; 2 of 7,680 touch items
    "touching": 2.5e-4,
    # the 512-point chart scan misses a crossing where a graph is so steep
    # that the crossing and a chart wrap share a grid cell: 9 of 5,760 items
    "chart-scan intersection": 2.5e-3,
    # a negative control of 10 trials finds no counterexample: 3 of 2,000
    # joining and 3 of 2,000 automorphism controls; none of 2,000 at 20
    "vacuous negative control": 2.5e-3,
}
KNOWN_ALPHA = 1e-5

# Op times are wall-clock times scaled to the reference machine speed (see
# perfbench/speed.py), set-up times by a reference probe (see measure_setup);
# the unscaled values are printed as well.
END_TO_END = (
    ("setup_s", "s", f"median over {SETUP_PROBES} fresh interpreters, after one warm-up, of "
     "the time to import torus_planes and build the four planes, each scaled by a "
     "numpy-import reference probe"),
    ("ops_per_s", "1/s", "ops completed per second of op time"),
    ("op_p50_ms", "ms", "median op latency"),
    ("op_tail_ms", "ms", "op latency at the workload's fixed tail percentile"),
    ("error_rate", "ratio", "0.01 + (failed + screened out + 1/2) / (attempted + screened "
     "out + 1): the Jeffreys estimate of the failure rate, known defects included, over a "
     "one-percent floor"),
    ("peak_rss_mb", "MB", "peak resident memory of the measured process "
     "(for cli-verify, the largest child)"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print every metric with its unit and workload, then exit")
    args = parser.parse_args(argv)
    if not args.describe:
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def describe():
    from tracer import catalog

    print("end-to-end metrics (--trace 0), reported by every workload:")
    for name, unit, what in END_TO_END:
        print(f"  {name} [{unit}]: {what}")
    print("per-layer metrics (--trace 1), reported by every workload; the"
          " workload named is where each should move the end-to-end metric named:")
    for name, unit, _, home, moves in catalog():
        print(f"  {name} [{unit}]: {moves} on {home}")


def environment(seed):
    import numpy

    head = "not a git checkout"
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_head": head, "seed": seed,
            "threads_pinned": 1}


def measure_setup(specs):
    """Set-up seconds: the median over fresh interpreters, after one warm-up.

    Returns (scaled, raw). Each set-up probe is followed by a reference
    probe, a fresh interpreter that only imports numpy, and is scaled by
    REFERENCE_IMPORT_S over that probe's import time. Cold start-up speed on
    a shared machine drifts with cache and memory contention, which a
    pure-Python loop does not see; the numpy import does, and it is not the
    package's own code.
    """
    probe = ROOT / "perfbench" / "setup_probe.py"
    setup_cmd = [sys.executable, str(probe), *specs.values()]
    reference_cmd = [sys.executable, str(probe), "--reference"]

    def run(cmd):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        return json.loads(out.stdout.splitlines()[-1])["setup_s"]

    run(setup_cmd)  # warm-up: file cache and bytecode
    run(reference_cmd)
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        times.append(run(setup_cmd))
        scaled.append(times[-1] * REFERENCE_IMPORT_S / run(reference_cmd))
    return statistics.median(scaled), statistics.median(times)


class Record:
    """What a run keeps of its ops.

    Latencies and trial counts go to arrays, outcomes to running tallies.
    Checks and digests are kept only for the ops the output check reads
    (the first schedule cycle and every RECHECK_STRIDE-th op, or every op
    with `keep_all`), failure notes and problems only for the first few. So
    the harness adds about 30 bytes an op to the measured process's memory.
    """

    KEPT_NOTES = 20

    def __init__(self, wl, keep_all=False):
        self.wl = wl
        self.keep_all = keep_all
        self.latency = array("d")
        self.trials = array("l")
        self.kept = {}  # op index -> (check, digest)
        self.failed = 0  # failed trials
        self.failures = []  # (op index, note) of the first failed ops
        self.problems = []
        self.problem_count = 0
        self.outcomes = {}  # outcome key -> [trials, failed trials, counterexamples]
        self.known = {}  # (defect, plane or suite) -> [trials, failed trials]
        self.skipped = wl.rejected  # ops and pool candidates screened out
        self.tally(wl.build_known)

    def __len__(self):
        return len(self.latency)

    def wants_digest(self, k):
        return self.keep_all or k < self.wl.digest_prefix or k % RECHECK_STRIDE == 0

    def add(self, k, r):
        self.latency.append(r.latency)
        self.trials.append(r.trials)
        if self.wants_digest(k):
            self.kept[k] = (r.check, r.digest)
        tally = self.outcomes.setdefault(self.wl.outcome_key(k), [0, 0, 0])
        tally[0] += r.trials
        if self.wl.name in SUITE_WORKLOADS and r.check[0] != "raised":
            tally[2] += r.check[1]
        if r.failed:
            self.failed += r.trials
            tally[1] += r.trials
            if len(self.failures) < self.KEPT_NOTES:
                self.failures.append((k, r.note))
        if r.problem:
            self.problem_count += 1
            if len(self.problems) < self.KEPT_NOTES:
                self.problems.append(f"op {k}: {r.problem}")

    def tally(self, known):
        """Add screening tallies; True if they met a known defect."""
        met = False
        for defect, where, trials, failed in known:
            count = self.known.setdefault((defect, where), [0, 0])
            count[0] += trials
            count[1] += failed
            met = met or failed > 0
        return met

    def digest(self, k):
        """The op's digest; None if it was not kept, was skipped or did not run."""
        return self.kept.get(k, (None, None))[1]


def run_ops(wl, count=None, seconds=None, keep_all=False, log=None):
    """Run ops from op 0 until count ops have run or the time budget is spent.

    Each op's inputs are screened first, untimed; an op whose screening run
    meets a known defect is skipped. With a SpeedLog, a speed burst is taken
    between ops when one is due.
    """
    record = Record(wl, keep_all)
    begin = time.perf_counter()
    k = 0
    while True:
        if record.tally(wl.screen(k) or ()):
            record.skipped += 1
        else:
            record.add(k, wl.run_op(k, digest=record.wants_digest(k)))
        k += 1
        now = time.perf_counter()
        if log is not None:
            log.sample(len(record), now)
        if count is not None and len(record) >= count:
            break
        if seconds is not None and now - begin >= seconds:
            break
    return record


def latency_samples(record, scales):
    """Per-trial latencies; the trials of one control call share its time."""
    samples = []
    for latency, trials, f in zip(record.latency, record.trials, scales):
        samples.extend([latency * f / trials] * trials)
    return samples


def tail(samples, workload, out=None):
    """(percentile, chunks, value) of the workload's tail; see TAIL."""
    import numpy

    q, most = TAIL[workload]
    beyond = len(samples) * (1.0 - q / 100.0)
    if beyond < 10 and out is not None:
        out.append(f"warning: only {beyond:.1f} samples lie beyond p{q:g}")
    chunks = max(1, min(most, int(beyond / 10)))
    size = len(samples) // chunks
    parts = [samples[i * size:(i + 1) * size] for i in range(chunks)]
    return q, chunks, statistics.median(float(numpy.percentile(p, q)) for p in parts)


def error_rate(failed, skipped, attempted):
    """Jeffreys estimate of the failure rate on top of a one-percent floor.

    Ops and pool candidates that screening removed for a known defect count
    as failed ones.
    """
    return ERROR_FLOOR + (failed + skipped + 0.5) / (attempted + skipped + 1.0)


def known_limit(trials, p):
    """Most failures in `trials` trials that a failure rate p explains."""
    pmf = (1.0 - p) ** trials
    cdf, c = pmf, 0
    while 1.0 - cdf > KNOWN_ALPHA:
        c += 1
        pmf *= (trials - c + 1) / c * p / (1.0 - p)
        cdf += pmf
    return c


def check_outputs(record, out, problems):
    """Gate the record's results against what the seed determines."""
    wl = record.wl
    problems.extend(record.problems)
    if record.problem_count > len(record.problems):
        problems.append(f"{record.problem_count - len(record.problems)} more ops "
                        f"gave unexpected results")
    for (defect, where), (trials, failed) in sorted(record.known.items()):
        rate = KNOWN_RATES[defect]
        limit = known_limit(trials, rate)
        line = f"known defect, {defect} on {where}: {failed} of {trials} failed, limit {limit}"
        out.append(f"{line} at rate {rate:g}")
        if failed > limit:
            problems.append(f"{line}: more than rate {rate:g} explains")
    for k, note in record.failures[:5]:
        out.append(f"failure {wl.name}: op {k} ({wl.outcome_key(k)}): {note}")
    for key, (trials, failed, ces) in sorted(record.outcomes.items()):
        out.append(f"outcome {wl.name}: {key}: {trials} trials, {failed} failed, "
                   f"{ces} counterexamples")
    if len(record) + record.skipped >= wl.digest_prefix:
        joined = "\n".join(record.digest(k) or "-" for k in range(wl.digest_prefix))
        out.append(f"digest {wl.name}: first {wl.digest_prefix} ops "
                   f"sha256={hashlib.sha256(joined.encode()).hexdigest()}")


def recheck(record, problems, out):
    """Re-run every RECHECK_STRIDE-th op of incidence and compare."""
    wl = record.wl
    if wl.name != "incidence":
        return
    rerun = [k for k in sorted(record.kept) if k % RECHECK_STRIDE == 0]
    drift = 0
    for k in rerun:
        again = wl.run_op(k, digest=True)
        check, digest = record.kept[k]
        if again.check != check:
            problems.append(f"op {k} ({wl.outcome_key(k)}) gave {check}, "
                            f"re-run gave {again.check}")
        elif again.digest != digest:
            drift += 1
    out.append(f"recheck {wl.name}: {len(rerun)} ops re-run, {drift} report digests "
               f"differ (reported, not gated)")


def end_to_end(args, wl, specs, out, problems):
    setup_s, setup_raw = measure_setup(specs)
    log = speed.SpeedLog()
    record = run_ops(wl, seconds=args.seconds, log=log)
    rss_kb = (wl.peak_rss_kb if args.workload == "cli-verify"
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    recheck(record, problems, out)
    check_outputs(record, out, problems)

    scales = log.scales(len(record))
    busy = sum(record.latency)
    busy_scaled = sum(t * f for t, f in zip(record.latency, scales))
    samples = latency_samples(record, scales)
    raw_samples = latency_samples(record, [1.0] * len(record))
    attempted = len(samples)
    q, chunks, tail_s = tail(samples, args.workload, out)
    out.append(f"op_tail_ms is p{q:g} of {attempted} op samples, median over "
               f"{chunks} chunks")
    out.append(f"failed {record.failed} of {attempted} ops; {record.skipped} ops or pool "
               f"candidates screened out for a known defect")
    out.append(f"speed: {len(log.marks)} bursts, median scale {log.median_scale()!r}")
    for name, value in (("setup_s", setup_raw), ("ops_per_s", attempted / busy),
                        ("op_p50_ms", statistics.median(raw_samples) * 1000.0),
                        ("op_tail_ms", tail(raw_samples, args.workload)[2] * 1000.0)):
        out.append(f"unscaled {name} = {value!r}")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": attempted / busy_scaled,
        "op_p50_ms": statistics.median(samples) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "error_rate": error_rate(record.failed, record.skipped, attempted),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    return attempted, record.failed, {k: (v, units[k]) for k, v in metrics.items()}


def traced(args, wl, specs, out, problems):
    import torus_planes as tp
    from tracer import Tracer, catalog

    count = TRACE_OPS[args.workload]
    logs = [speed.SpeedLog() for _ in range(3)]
    plain = run_ops(wl, count=count, seconds=args.seconds, keep_all=True, log=logs[0])
    tracer = Tracer()
    if args.workload == "cli-verify":
        wl.begin_pass("traced", tracer)
    with tracer.installed():
        if args.workload != "cli-verify":
            for spec in specs.values():  # the set-up layer: PlaneModel construction
                tp.parse_plane_spec(spec)
        # every op of the prefix was screened in the first pass, so no
        # screening run is traced
        spanned = run_ops(wl, count=len(plain), seconds=3 * args.seconds, keep_all=True,
                          log=logs[1])
    # a second untraced pass after the traced one, so warm-up and drift
    # do not land on one side of the overhead
    if args.workload == "cli-verify":
        wl.begin_pass("untraced-again")
    again = run_ops(wl, count=len(spanned), keep_all=True, log=logs[2])
    n = len(spanned)
    if n < count:
        out.append(f"trace covers {n} of {count} ops: time budget reached")
    mismatched = [k for k in sorted(spanned.kept)
                  if not plain.digest(k) == spanned.digest(k) == again.digest(k)]
    if mismatched:
        problems.append(f"tracing changed the output of {len(mismatched)} ops, "
                        f"first op {mismatched[0]} ({wl.outcome_key(mismatched[0])})")
    out.append(f"trace self-check: {n} ops, traced and untraced digests "
               f"{'differ' if mismatched else 'match'}")
    check_outputs(plain, out, problems)
    busy = [sum(t * f for t, f in zip(record.latency[:n], log.scales(len(record))))
            for record, log in zip((plain, spanned, again), logs)]
    values, unknown = tracer.metrics()
    values["trace.overhead_pct"] = (2.0 * busy[1] / (busy[0] + busy[2]) - 1.0) * 100.0
    for name in unknown:
        out.append(f"span {name} is not in the catalogue: "
                   f"{tracer.spans[name][0]} calls")
    units = {name: unit for name, unit, *_ in catalog()}
    return sum(spanned.trials), spanned.failed, {k: (values[k], units[k]) for k in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.describe:
        describe()
        return 0
    if not (SRC / "torus_planes" / "__init__.py").is_file():
        print(f"error: no torus_planes sources under {SRC}", file=sys.stderr)
        return 2
    import torus_planes as tp

    from inputs import plane_specs, write_spline_knots
    from workloads import make

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        knots = work / "spline-knots.txt"
        write_spline_knots(args.seed, knots)
        specs = plane_specs(knots)
        planes = {label: tp.parse_plane_spec(spec) for label, spec in specs.items()}
        wl = make(args.workload, args.seed, planes, specs, ROOT, work)
        out, problems = [], []
        out.append("environment: " + json.dumps(environment(args.seed), sort_keys=True))
        run = traced if args.trace else end_to_end
        attempted, failed, metrics = run(args, wl, specs, out, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in out:
        print(line)
    for problem in problems[:20]:
        print(f"output check failed: {problem}")
    moves = {}
    if args.trace:
        from tracer import catalog

        moves = {name: f"; should move {m} on {home}" for name, _, _, home, m in catalog()}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit} (workload {args.workload}"
              f"{moves.get(name, '')})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
