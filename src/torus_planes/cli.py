"""Command-line front end: suite runs, joins, SVG plots, report indexing.

The CLI is a thin shell over the library; it parses flags and files,
dispatches to library calls, and maps outcomes to exit codes:

* 0: everything passed (and every negative control failed, as required);
* 1: a suite failed or a negative control unexpectedly passed;
* 2: configuration errors (bad flags, unknown suites, unparseable input,
  a seed that is not a non-negative integer, an output path that cannot
  be written).

The run manifest (config path, plane and its tolerance, suites, seed,
output directory) is echoed verbatim into every report for
reproducibility. `TORUS_PLANES_SEED` supplies the seed when no flag is
given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, ParallelInput, PlaneGeometryError

if TYPE_CHECKING:
    from .planes import PlaneModel
    from .projline import TorusPoint

DEFAULT_SEED = 42
#: `verify.SUITES`, sorted, for the `--suite` help; the parser does not import `verify`
SUITE_NAMES = (
    "automorphism", "derived-plane", "fixed-configuration", "joining", "joining-stress",
    "rigidity", "touching",
)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("TORUS_PLANES_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"TORUS_PLANES_SEED is not an integer: {env!r}") from None


def _resolve_plane(args) -> PlaneModel:
    """The plane the flags describe, built by `plane_from_config`.

    Config keys come from the config file, then from `--plane` (a compact
    spec or a bare family name), then from `--f`, `--g` and `--tol`; a
    later source overrides an earlier one key by key.
    """
    from .planes import parse_config_text, plane_from_config, plane_spec_config

    cfg = {}
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        cfg = parse_config_text(text)
    if args.plane:
        cfg.update(plane_spec_config(args.plane) if ":" in args.plane else {"family": args.plane})
    tol = None if args.tol is None else str(args.tol)
    for key, value in (("f", args.f), ("g", args.g), ("tolerance", tol)):
        if value:
            cfg[key] = value
    return plane_from_config(cfg)


def _parse_real(token: str) -> float:
    token = token.strip().lower()
    if token == "oo":
        return math.inf
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ConfigError(f"not a real number: {token!r}")
    return value


def _parse_torus_point(token: str) -> TorusPoint:
    from .projline import TorusPoint

    parts = token.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected `x,y`, got {token!r}")
    return TorusPoint.from_reals(_parse_real(parts[0]), _parse_real(parts[1]))


# ----------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .groups import group_literal, parse_group_literal
    from .verify import SUITES, TrialConfig

    plane = _resolve_plane(args)
    group = parse_group_literal(args.group) if args.group else None
    suite_names = []
    for chunk in args.suite or ["joining"]:
        suite_names.extend(s.strip() for s in chunk.split(",") if s.strip())
    for name in suite_names:
        if name not in SUITES:
            raise ConfigError(
                f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
            )
    seed = _resolve_seed(args.seed)
    cfg = TrialConfig(seed=seed, trials=args.trials)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": args.config,
        "subcommand": "verify",
        "plane": plane.describe(),
        "tolerance": plane.tol,
        "suites": suite_names,
        "group": group_literal(group) if group is not None else None,
        "seed": seed,
        "trials": args.trials,
        "out_dir": str(out_dir),
    }
    all_ok = True
    for name in suite_names:
        spec = SUITES[name]
        report = spec.run(plane, cfg, group)
        report.manifest = manifest
        report_path = out_dir / f"{name}-seed{seed}.json"
        report.write(report_path)
        control = spec.control(cfg)
        control.manifest = manifest
        control_path = out_dir / f"{name}-negative-control-seed{seed}.json"
        control.write(control_path)
        suite_ok = report.passed
        control_ok = not control.passed
        all_ok = all_ok and suite_ok and control_ok
        print(
            f"{name}: {'PASS' if suite_ok else 'FAIL'} "
            f"(max residual {report.max_residual:.3e}, "
            f"{len(report.counterexamples)} counterexamples) -> {report_path}"
        )
        print(
            f"{name} negative control: "
            f"{'failed as required' if control_ok else 'UNEXPECTEDLY PASSED'} "
            f"-> {control_path}"
        )
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# join


def cmd_join(args) -> int:
    plane = _resolve_plane(args)
    points = [_parse_torus_point(tok) for tok in args.points]
    try:
        circle = plane.join(*points)
    except ParallelInput as exc:
        raise ConfigError(f"parallel input points: {exc}") from None
    residuals = [plane.membership_residual(circle, p) for p in points]
    m = circle.mobius
    entries = ", ".join(f"{v:.12g}" for v in (m.a, m.b, m.c, m.d))
    print(f"branch: {circle.tag}")
    print(f"orientation: {circle.mobius.orientation:+d}")
    print(f"mobius parameter: [{entries}]")
    print("membership residuals: " + ", ".join(f"{r:.3e}" for r in residuals))
    return 0


# ----------------------------------------------------------------------
# plot


def _parse_plot_object(token: str, plane: PlaneModel):
    from .groups import parse_group_literal, require_point_action
    from .planes import MINUS, PLUS, ParallelClass
    from .projline import ProjPoint

    if token.startswith("circle3:"):
        parts = token.split(":")[1:]
        if len(parts) != 3:
            raise ConfigError(f"circle3 expects three points, got {token!r}")
        pts = [_parse_torus_point(p) for p in parts]
        return "circle", plane.join(*pts)
    if token.startswith("pclass:"):
        parts = token.split(":")
        if len(parts) != 3 or parts[1] not in (PLUS, MINUS):
            raise ConfigError(f"malformed parallel-class spec {token!r}")
        coord = ProjPoint.from_real(_parse_real(parts[2]))
        return "pclass", ParallelClass(parts[1], coord)
    if token.startswith("orbit:"):
        body = token[len("orbit:"):]
        try:
            literal, start_tok, count_tok = body.rsplit(":", 2)
        except ValueError:
            raise ConfigError(f"malformed orbit spec {token!r}") from None
        g = require_point_action(parse_group_literal(literal))
        start = _parse_torus_point(start_tok)
        try:
            count = int(count_tok)
        except ValueError:
            count = -1
        if count < 0:
            raise ConfigError(f"bad orbit length {count_tok!r} in {token!r}")
        orbit = [start]
        for _ in range(count):
            orbit.append(g.act(orbit[-1]))
        return "orbit", orbit
    raise ConfigError(f"unknown plot object {token!r}")


def cmd_plot(args) -> int:
    from .svgplot import render_svg

    plane = _resolve_plane(args)
    objects = [_parse_plot_object(tok, plane) for tok in args.objects]
    svg = render_svg(objects)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg, encoding="utf-8")
    print(f"wrote {out}")
    return 0


# ----------------------------------------------------------------------
# report index


def cmd_report_index(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    entries = []
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) or not isinstance(payload.get("suite"), str):
            continue
        entries.append(
            {
                "file": path.name,
                "suite": payload.get("suite"),
                "plane": payload.get("plane"),
                "seed": payload.get("seed"),
                "pass": payload.get("pass"),
                "negative_control": payload.get("negative_control", False),
            }
        )
    entries.sort(key=lambda e: (str(e["suite"]), str(e["seed"]), e["file"]))
    failing = sorted(
        {
            e["suite"]
            for e in entries
            if not e["negative_control"] and e["pass"] is False
        }
    )
    index = {
        "schema": "torus-planes/report-index/v1",
        "reports": entries,
        "pass_count": sum(
            1 for e in entries if e["pass"] and not e["negative_control"]
        ),
        "fail_count": sum(
            1 for e in entries if e["pass"] is False and not e["negative_control"]
        ),
        "failing_suites": failing,
    }
    out = Path(args.out) if args.out else directory / "index.json"
    out.write_text(json.dumps(index, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(entries)} reports)")
    return 0


# ----------------------------------------------------------------------
# argument parsing


def _add_plane_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value plane configuration file")
    parser.add_argument(
        "--plane",
        help="plane spec: classical | half-classical | half:power:<p> | half:spline:<path>",
    )
    parser.add_argument("--f", help="twist map f: id | power:<p> | spline:<path>")
    parser.add_argument("--g", help="twist map g: id | power:<p> | spline:<path>")
    parser.add_argument("--tol", type=float, default=None, help="plane membership tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-planes",
        description="Toroidal circle planes: construction, group actions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_plane_flags(p_verify)
    p_verify.add_argument(
        "--suite", action="append",
        help=f"suite name(s), comma-separable; known: {', '.join(SUITE_NAMES)}",
    )
    p_verify.add_argument("--group", help="group-element literal (see groups module)")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default="reports")
    p_verify.set_defaults(func=cmd_verify)

    p_join = sub.add_parser("join", help="join three points and print the circle")
    _add_plane_flags(p_join)
    p_join.add_argument("points", nargs=3, metavar="X,Y")
    p_join.set_defaults(func=cmd_join)

    p_plot = sub.add_parser("plot", help="render circles, classes, orbits to SVG")
    _add_plane_flags(p_plot)
    p_plot.add_argument(
        "objects",
        nargs="+",
        metavar="OBJECT",
        help="circle3:x1,y1:x2,y2:x3,y3 | pclass:plus:<x> | orbit:<literal>:<x,y>:<n>",
    )
    p_plot.add_argument("--out", default="plot.svg")
    p_plot.set_defaults(func=cmd_plot)

    p_index = sub.add_parser("report-index", help="aggregate a report directory")
    p_index.add_argument("directory")
    p_index.add_argument("--out", default=None)
    p_index.set_defaults(func=cmd_report_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (PlaneGeometryError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
