"""Span tracer that wraps the public callables of `torus_planes` from outside.

Nothing under `src/` is changed: `Tracer.installed()` replaces each traced
callable on its class, or, for a module-level function, in every
`torus_planes` module that bound it by name (for example `planes` binds its
own `graph_equation_zeros` and `mobius_from_three`), and restores the
originals on exit.

Spans are kept in memory and aggregated as they close: per span name the
call count, the inclusive time and the self time (the span minus the time
its child spans cover). A traced run makes millions of spans, so no raw
span log is kept; the aggregate is flushed into metrics, or into a JSON
file for a traced child process, when the run ends.

Routes and branches are read from public data only: the tag of a returned
circle, the tags of the input circles, or the exception raised.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types

TAG_TWISTED = "half-classical-twisted"
_JOIN_BRANCH = {
    "classical-PGL": "pgl",
    "half-classical-PSL": "psl",
    TAG_TWISTED: "twisted",
}
SUITE_FUNCTIONS = (
    "verify_joining",
    "verify_touching",
    "verify_automorphism",
    "verify_rigidity",
    "verify_derived_plane",
    "verify_fixed_configuration",
)

# Span names with the workload whose traced run exercises them most and the
# end-to-end metric a change to that layer should move there.
SPANS = (
    ("projline.MobiusMap", "incidence", "ops_per_s, op_p50_ms"),
    ("projline.MobiusMap.compose", "incidence", "ops_per_s, op_p50_ms"),
    ("projline.MobiusMap.apply", "incidence", "ops_per_s, op_p50_ms"),
    ("projline.mobius_from_three", "incidence", "ops_per_s, op_p50_ms"),
    ("projline.mobius_fixed_points", "interactive", "op_p50_ms"),
    ("projline.TwoPointFamily.member", "tangency", "ops_per_s, op_p50_ms"),
    ("homeo.CircleHomeo.apply", "tangency", "op_p50_ms"),
    ("homeo.CircleHomeo.apply_h", "tangency", "op_p50_ms"),
    ("homeo.graph_equation_zeros", "tangency", "op_p50_ms"),
    ("homeo.wrapped_zeros", "interactive", "op_tail_ms"),
    ("homeo.homeo_sup_distance", "interactive", "op_tail_ms"),
    ("planes.PlaneModel", "cli-verify", "setup_s"),
    ("planes.join.pgl", "incidence", "ops_per_s"),
    ("planes.join.psl", "incidence", "ops_per_s"),
    ("planes.join.twisted", "incidence", "ops_per_s"),
    ("planes.join_branches", "incidence", "ops_per_s"),
    ("planes.membership_residual", "incidence", "ops_per_s"),
    ("planes.count_tangency_brackets", "tangency", "ops_per_s, op_p50_ms"),
    ("planes.tangency_separation", "tangency", "ops_per_s, op_p50_ms"),
    ("planes.touch.closed_form", "interactive", "op_p50_ms"),
    ("planes.touch.scanned", "interactive", "op_tail_ms"),
    ("planes.touch.not_found", "interactive", "error_rate"),
    ("planes.circle_intersect.quadratic", "interactive", "op_p50_ms"),
    ("planes.circle_intersect.twisted", "interactive", "op_p50_ms"),
    ("planes.circle_intersect.scan", "interactive", "op_tail_ms"),
    ("planes.derived_line_through", "incidence", "ops_per_s"),
    ("groups.act", "incidence", "ops_per_s"),
    ("groups.fixed_coordinates", "cli-verify", "op_p50_ms"),
    ("verify.sample_triple", "incidence", "ops_per_s"),
    ("verify.VerifyReport.write", "cli-verify", "op_p50_ms"),
    ("svgplot.render_svg", "interactive", "op_p50_ms"),
    ("cli.main", "cli-verify", "op_p50_ms"),
)
SUITE_SPANS = tuple(
    (f"verify.{fn}", "tangency" if fn == "verify_touching" else
     "cli-verify" if fn == "verify_fixed_configuration" else "incidence",
     "ops_per_s")
    for fn in SUITE_FUNCTIONS
)


def catalog():
    """Every per-layer metric: (name, unit, better, home workload, moves)."""
    out = []
    for span, home, moves in SPANS:
        out.append((f"{span}.calls", "count", "lower", home, moves))
        out.append((f"{span}.self_ms", "ms", "lower", home, moves))
        if span == "homeo.CircleHomeo.apply_h":
            out.append((f"{span}.points", "count", "lower", home, moves))
    for span, home, moves in SUITE_SPANS:
        out.append((f"{span}.trials", "count", "higher", home, moves))
        out.append((f"{span}.ms_per_trial", "ms", "lower", home, moves))
    out += [
        ("verify.negative_control.calls", "count", "lower", "incidence", "ops_per_s"),
        ("verify.negative_control.ms", "ms", "lower", "incidence", "ops_per_s"),
        ("verify.sample_proj_point.draws_per_trial", "count", "lower",
         "tangency", "ops_per_s"),
        ("verify.counterexamples", "count", "lower", "tangency", "error_rate"),
        ("cli.import_ms", "ms", "lower", "cli-verify", "setup_s, op_p50_ms"),
        ("trace.overhead_pct", "%", "lower", "every workload", "none (tracing cost)"),
    ]
    return out


def _join_route(args, kwargs, result, exc):
    if exc is not None:
        return "planes.join.raised"
    return "planes.join." + _JOIN_BRANCH.get(result.tag, "unknown")


def _touch_route(args, kwargs, result, exc):
    if exc is not None:
        return "planes.touch." + (
            "not_found" if type(exc).__name__ == "NotFound" else "raised"
        )
    # touch tries closed-form branches first: a member of c's own branch
    # family comes from the discriminant, the other family from the scan
    same_family = (args[1].tag == TAG_TWISTED) == (result.tag == TAG_TWISTED)
    return "planes.touch." + ("closed_form" if same_family else "scanned")


def _intersect_route(args, kwargs, result, exc):
    twisted = (args[1].tag == TAG_TWISTED, args[2].tag == TAG_TWISTED)
    if twisted == (False, False):
        return "planes.circle_intersect.quadratic"
    if twisted == (True, True):
        return "planes.circle_intersect.twisted"
    return "planes.circle_intersect.scan"


def _suite_route(fn):
    def route(args, kwargs, result, exc):
        if kwargs.get("negative_control"):
            return "verify.negative_control"
        return f"verify.{fn}"
    return route


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self):
        self._stack = []
        self.spans = {}  # name -> [calls, self_ns, total_ns]
        self.counters = {}

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _close(self, name, total, child):
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += total - child
        agg[2] += total

    def wrap(self, fn, name, route=None, after=None):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                total = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += total
                self._close(route(args, kwargs, None, exc) if route else name,
                            total, frame[0])
                raise
            total = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += total
            self._close(route(args, kwargs, result, None) if route else name,
                        total, frame[0])
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span called name."""
        return self.wrap(fn, name)(*args, **kwargs)

    def _targets(self):
        import numpy as np

        from torus_planes import groups, homeo, planes, projline, svgplot, verify

        def points(tr, args, kwargs, result):
            tr.count("homeo.CircleHomeo.apply_h.points", np.size(args[1]) // 2)

        def suite_done(fn):
            def after(tr, args, kwargs, result):
                if kwargs.get("negative_control"):
                    tr.count("verify.negative_control.trials", result.trials)
                else:
                    tr.count(f"verify.{fn}.trials", result.trials)
                    tr.count("verify.counterexamples", len(result.counterexamples))
            return after

        def draws(tr, args, kwargs, result):
            tr.count("verify.sample_proj_point.draws", 1)

        model = planes.PlaneModel
        targets = [
            (projline.MobiusMap, "__init__", "projline.MobiusMap", None, None),
            (projline.MobiusMap, "compose", "projline.MobiusMap.compose", None, None),
            (projline.MobiusMap, "apply", "projline.MobiusMap.apply", None, None),
            (projline, "mobius_from_three", "projline.mobius_from_three", None, None),
            (projline, "mobius_fixed_points", "projline.mobius_fixed_points",
             None, None),
            (projline.TwoPointFamily, "member", "projline.TwoPointFamily.member",
             None, None),
            (homeo.CircleHomeo, "apply", "homeo.CircleHomeo.apply", None, None),
            (homeo.CircleHomeo, "apply_h", "homeo.CircleHomeo.apply_h", None, points),
            (homeo, "graph_equation_zeros", "homeo.graph_equation_zeros", None, None),
            (homeo, "wrapped_zeros", "homeo.wrapped_zeros", None, None),
            (homeo, "homeo_sup_distance", "homeo.homeo_sup_distance", None, None),
            (model, "__init__", "planes.PlaneModel", None, None),
            (model, "join", None, _join_route, None),
            (model, "join_branches", "planes.join_branches", None, None),
            (model, "membership_residual", "planes.membership_residual", None, None),
            (model, "count_tangency_brackets", "planes.count_tangency_brackets",
             None, None),
            (model, "tangency_separation", "planes.tangency_separation", None, None),
            (model, "touch", None, _touch_route, None),
            (model, "circle_intersect", None, _intersect_route, None),
            (model, "derived_line_through", "planes.derived_line_through", None, None),
            (groups, "fixed_coordinates", "groups.fixed_coordinates", None, None),
            (verify, "sample_triple", "verify.sample_triple", None, None),
            (verify, "sample_proj_point", "verify.sample_proj_point", None, draws),
            (verify.VerifyReport, "write", "verify.VerifyReport.write", None, None),
            (svgplot, "render_svg", "svgplot.render_svg", None, None),
        ]
        for cls in (groups.KernelPlusPSL, groups.KernelMinusPSL, groups.DiagonalPSL,
                    groups.PhiStd, groups.PhiTwoFixed):
            targets.append((cls, "act", "groups.act", None, None))
        for fn in SUITE_FUNCTIONS:
            targets.append((verify, fn, None, _suite_route(fn), suite_done(fn)))
        return targets

    def _install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "torus_planes" or name.startswith("torus_planes."))
                   and isinstance(m, types.ModuleType)]
        patches = []
        for owner, attr, name, route, after in self._targets():
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, route, after)
            if isinstance(owner, types.ModuleType):
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        patches.append((module, attr, original, True))
                        setattr(module, attr, wrapped)
            else:
                patches.append((owner, attr, original, attr in owner.__dict__))
                setattr(owner, attr, wrapped)
        return patches

    @contextlib.contextmanager
    def installed(self):
        """The traced callables are patched while this context is open."""
        patches = self._install()
        try:
            yield self
        finally:
            for owner, attr, original, owned in reversed(patches):
                if owned:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- flushing ------------------------------------------------------

    def dump(self, path, extra=None):
        payload = {"spans": self.spans, "counters": self.counters}
        if extra:
            payload["counters"] = {**self.counters, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def merge_file(self, path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        for name, (calls, self_ns, total_ns) in payload["spans"].items():
            agg = self.spans.setdefault(name, [0, 0, 0])
            agg[0] += calls
            agg[1] += self_ns
            agg[2] += total_ns
        for name, amount in payload["counters"].items():
            self.count(name, amount)

    def metrics(self):
        """Values of every catalogued per-layer metric, plus unknown span names."""
        spans, counters = self.spans, self.counters
        values = {}
        for span, _, _ in SPANS:
            calls, self_ns, _ = spans.get(span, (0, 0, 0))
            values[f"{span}.calls"] = calls
            values[f"{span}.self_ms"] = self_ns / 1e6
        values["homeo.CircleHomeo.apply_h.points"] = counters.get(
            "homeo.CircleHomeo.apply_h.points", 0)
        trials_total = 0
        for span, _, _ in SUITE_SPANS:
            trials = counters.get(f"{span}.trials", 0)
            trials_total += trials
            values[f"{span}.trials"] = trials
            total_ns = spans.get(span, (0, 0, 0))[2]
            values[f"{span}.ms_per_trial"] = total_ns / 1e6 / trials if trials else 0.0
        calls, _, total_ns = spans.get("verify.negative_control", (0, 0, 0))
        values["verify.negative_control.calls"] = calls
        values["verify.negative_control.ms"] = total_ns / 1e6
        trials_total += counters.get("verify.negative_control.trials", 0)
        draws = counters.get("verify.sample_proj_point.draws", 0)
        values["verify.sample_proj_point.draws_per_trial"] = (
            draws / trials_total if trials_total else 0.0)
        values["verify.counterexamples"] = counters.get("verify.counterexamples", 0)
        main_calls = spans.get("cli.main", (0, 0, 0))[0]
        values["cli.import_ms"] = (
            counters.get("cli.import_ms", 0.0) / main_calls if main_calls else 0.0)
        known = {s for s, _, _ in SPANS + SUITE_SPANS}
        known |= {"verify.negative_control", "verify.sample_proj_point"}
        unknown = sorted(set(spans) - known)
        return values, unknown
