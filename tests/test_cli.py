import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torus_planes.cli import _resolve_plane, build_parser, main
from torus_planes.verify import SUITES


def run(args):
    return main(args)


class TestJoinCommand:
    def test_classical_identity(self, capsys):
        assert run(["join", "--plane", "classical", "0,0", "1,1", "inf,inf"]) == 0
        out = capsys.readouterr().out
        assert "classical-PGL" in out
        assert "orientation: +1" in out

    def test_orientation_reversing(self, capsys):
        assert run(["join", "--plane", "classical", "0,1", "1,0", "inf,inf"]) == 0
        assert "orientation: -1" in capsys.readouterr().out

    def test_half_classical_twisted(self, capsys):
        assert run(["join", "--plane", "half:power:2", "0,0", "1,-1", "inf,inf"]) == 0
        out = capsys.readouterr().out
        assert "half-classical-twisted" in out

    def test_minus_infinity_is_the_point_at_infinity(self, capsys):
        assert run(["join", "0,-inf", "1,1", "2,3"]) == 0
        minus = capsys.readouterr().out
        assert run(["join", "0,inf", "1,1", "2,3"]) == 0
        assert minus == capsys.readouterr().out

    def test_parallel_input_exit_2(self, capsys):
        assert run(["join", "--plane", "classical", "0,0", "0,1", "2,2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_point_exit_2(self):
        assert run(["join", "--plane", "classical", "0;0", "1,1", "2,2"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["join", "nan,0", "1,1", "2,3"],
        ["join", "abc,0", "1,1", "2,3"],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "-5"],
        ["verify", "--tol", "-1"],
        ["join", "--tol", "-1", "0,0", "1,1", "2,3"],
        ["join", "--tol", "nan", "0,0", "1,1", "2,3"],
        ["plot", "--tol", "-1", "circle3:0,0:1,1:2,3"],
        ["join", "--plane", "classical", "--tol", "-1", "0,0", "1,1", "2,3"],
        ["join", "--plane", "classical", "--f", "power:2", "0,0", "1,1", "2,3"],
        ["join", "--plane", "half:spline:{tmp}/nan-knots.txt", "0,0", "1,1", "2,3"],
        ["join", "--plane", "half:spline:{tmp}/missing.txt", "0,0", "1,1", "2,3"],
        ["plot", "orbit:diag:psl:2,0,0,0.5:0,1:abc", "--out", "{tmp}/x.svg"],
        ["plot", "orbit:diag:psl:2,0,0,0.5:0,1:-3", "--out", "{tmp}/x.svg"],
        ["plot", "circle3:0,0:1,1", "--out", "{tmp}/x.svg"],
        ["plot", "pclass:diag:0", "--out", "{tmp}/x.svg"],
        ["plot", "orbit:abc", "--out", "{tmp}/x.svg"],
        # the factor-only family has no point action to check
        ["verify", "--plane", "classical", "--suite", "automorphism", "--group", "case3:0.3:2:1"],
        ["verify", "--suite", "automorphism", "--group", "phi:nan:1:1:1"],
        ["verify", "--seed", "-5"],
        ["verify", "--out", "{tmp}/file.txt"],
        ["plot", "circle3:0,0:1,1:2,3", "--out", "{tmp}"],
        ["report-index", "{tmp}", "--out", "{tmp}/missing/index.json"],
        ["join", "--config", "{tmp}/latin1.cfg", "0,0", "1,1", "2,3"],
        ["join", "--config", "{tmp}/missing.cfg", "0,0", "1,1", "2,3"],
        ["join", "--config", "{tmp}/misspelt.cfg", "0,0", "1,1", "2,3"],
        ["join", "--config", "{tmp}/repeated.cfg", "0,0", "1,1", "2,3"],
        # powers of the parameters that overflow a float
        ["verify", "--suite", "automorphism", "--group", "phi:1e300:2:3:0"],
        ["verify", "--suite", "fixed-configuration", "--group", "phi:1e300:2:3:0"],
        ["verify", "--suite", "automorphism", "--group", "phi2:-2000:2:0.5:0"],
        ["plot", "orbit:phi:1e300:2:3:0:1,1:3", "--out", "{tmp}/x.svg"],
    ],
)
def test_bad_input_exits_2_without_traceback(args, tmp_path, capsys):
    (tmp_path / "nan-knots.txt").write_text("0 0\nnan 1\n1 2\n")
    (tmp_path / "file.txt").write_text("not a directory\n")
    (tmp_path / "latin1.cfg").write_bytes(b"family = classical\n# caf\xe9\n")
    (tmp_path / "misspelt.cfg").write_text("family = classical\ntolerence = 0.5\n")
    (tmp_path / "repeated.cfg").write_text("family = classical\nfamily = half-classical\nf = power:2\n")
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    if args[0] == "verify" and "--out" not in args:
        args = args + ["--out", str(tmp_path)]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1, err


def test_repeated_config_key_is_one_error_line(tmp_path, capsys):
    (tmp_path / "repeated.cfg").write_text("family = classical\nfamily = half-classical\nf = power:2\n")
    assert run(["join", "--config", str(tmp_path / "repeated.cfg"), "0,0", "1,1", "2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: key 'family' repeats line 1\n"


_PROBE = """
import json, sys
import torus_planes.cli
rc = torus_planes.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
heavy = ('numpy', 'mpmath', 'scipy', 'sympy', 'hypothesis', 'dataclasses')
ours = sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('torus_planes.'))
print(json.dumps([rc, [m for m in heavy if m in sys.modules], ours]))
"""

# the package modules a cold process compiles, by command (None: the import alone)
_STARTUP = ["cli", "errors"]
_GEOMETRY = _STARTUP + ["homeo", "planes", "projline"]
_COMMAND_MODULES = {
    None: _STARTUP,
    "report-index": _STARTUP,
    "join": _GEOMETRY,
    "plot": sorted(_GEOMETRY + ["groups", "svgplot"]),
    "verify": sorted(_GEOMETRY + ["groups", "pcg64", "verify"]),
}


def _fresh_run(script, args, cwd):
    """The JSON last line that `script` prints, run with ARGS in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def _cold_run(args, cwd):
    """(exit code, heavy modules loaded, package modules loaded) of `torus-planes ARGS`
    in a fresh interpreter."""
    return _fresh_run(_PROBE, args, cwd)


def test_cli_import_loads_no_oracle_or_test_package(tmp_path):
    # core modules never import the high-precision oracle, the test tools or
    # dataclasses (with inspect and ast), commands that do only scalar
    # geometry never import numpy, and each command compiles only the
    # package modules it uses, so a cold `torus-planes` start pays for none
    # of the rest
    (tmp_path / "knots.txt").write_text("0 0\n1 2\ninf inf\n-1 -0.5\n")
    (tmp_path / "reports").mkdir()
    cases = [
        [],
        ["report-index", "reports"],
        ["join", "--plane", "classical", "0,0", "1,2", "3,-1"],
        ["join", "--plane", "half:power:2", "0,0", "1,-1", "inf,inf"],
        ["join", "--plane", "half:spline:knots.txt", "0,0", "1,2", "3,-1"],
        ["verify", "--plane", "half:power:2", "--suite", "touching", "--trials", "1",
         "--seed", "1", "--out", "reports"],
        ["verify", "--plane", "classical", "--suite", "fixed-configuration",
         "--group", "phi2:-1:2:3:1", "--seed", "1", "--out", "reports"],
        # 64-point sup distances: the classical rejoin and the derived rejoin
        ["verify", "--plane", "classical", "--suite", "joining,joining-stress", "--trials", "20",
         "--seed", "1", "--out", "reports"],
        ["verify", "--plane", "half:power:2", "--suite", "derived-plane", "--trials", "20",
         "--seed", "1", "--out", "reports"],
        ["verify", "--plane", "half:spline:knots.txt", "--suite", "derived-plane",
         "--trials", "20", "--seed", "1", "--out", "reports"],
        ["verify", "--plane", "classical", "--suite", "joining,automorphism,derived-plane,rigidity",
         "--trials", "20", "--seed", "1", "--out", "reports"],
    ]
    for args in cases:
        rc, loaded, ours = _cold_run(args, tmp_path)
        assert rc in (None, 0) and loaded == [], (args, rc, loaded)
        assert ours == _COMMAND_MODULES[args[0] if args else None], (args, ours)


_INTERSECT_PROBE = """
import json, sys
from torus_planes import TorusPoint, parse_plane_spec
plane = parse_plane_spec("half:power:2")
P = TorusPoint.from_reals

def circle(tag, *points):
    c = plane.join(*points)
    assert c.tag.endswith(tag), c.tag
    return c

psl = [circle("PSL", P(0, 0), P(1, 1), P(2, 3)), circle("PSL", P(0, 1), P(1, 2), P(3, 4))]
twisted = [circle("twisted", P(0, 0), P(1, -1), P(2, -3)),
           circle("twisted", P(0, 1), P(1, -2), P(3, -4))]
loaded = []
for c1, c2 in (psl, twisted, (psl[0], twisted[0])):  # quadratic, twisted, then mixed
    plane.circle_intersect(c1, c2)
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_circle_intersect_loads_no_numpy_on_any_route(tmp_path):
    # the sup distance that screens equal circles runs on floats on every
    # route, and so do the mixed-branch crossing brackets
    assert _fresh_run(_INTERSECT_PROBE, [], tmp_path) == [False, False, False]


def test_plot_loads_numpy_on_first_array_use(tmp_path):
    rc, loaded, ours = _cold_run(["plot", "--plane", "classical", "circle3:0,0:1,2:3,-1",
                                  "--out", "figure.svg"], tmp_path)
    assert rc == 0 and loaded == ["numpy"] and ours == _COMMAND_MODULES["plot"]
    assert (tmp_path / "figure.svg").read_text(encoding="utf-8").startswith("<svg")


def test_verify_help_lists_every_suite(capsys, monkeypatch):
    # the help reads the suite names from a constant in `cli`, not from `verify`
    monkeypatch.setenv("COLUMNS", "1000")  # one help line per flag
    assert run(["verify", "--help"]) == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if "known: " in s)
    assert line.split("known: ", 1)[1].split(", ") == sorted(SUITES)


def test_grid_flag_is_gone(tmp_path, capsys):
    assert run(["verify", "--grid", "64", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--grid" in err and "Traceback" not in err


@pytest.mark.parametrize("env", ["abc", "-1", ""])
def test_bad_seed_env_exits_2_without_traceback(env, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORUS_PLANES_SEED", env)
    assert run(["verify", "--trials", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, described, tol",
    [
        (["--plane", "half:power:2", "--g", "power:3"],
         "half-classical(f=power:2, g=power:3)[experimental-g]", 1e-9),
        (["--plane", "half:power:2", "--tol", "0.5"], "half-classical(f=power:2, g=id)", 0.5),
        # the spec overrides the file's f and keeps its tolerance
        (["--config", "{tmp}/plane.cfg", "--plane", "half:power:2"],
         "half-classical(f=power:2, g=id)", 1e-8),
        (["--config", "{tmp}/plane.cfg", "--f", "power:3"], "half-classical(f=power:3, g=id)", 1e-8),
    ],
    ids=["spec-then-g", "spec-then-tol", "file-then-spec", "file-then-f"],
)
def test_plane_sources_merge_key_by_key(flags, described, tol, tmp_path):
    (tmp_path / "plane.cfg").write_text("family = half-classical\nf = power:5\ntolerance = 1e-8\n")
    flags = [f.replace("{tmp}", str(tmp_path)) for f in flags]
    plane = _resolve_plane(build_parser().parse_args(["join", *flags, "0,0", "1,1", "2,3"]))
    assert plane.describe() == described and plane.tol == tol


class TestVerifyCommand:
    def test_joining_pass(self, tmp_path, capsys):
        code = run([
            "verify", "--plane", "classical", "--suite", "joining",
            "--trials", "40", "--seed", "42", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "joining-seed42.json").is_file()
        control = tmp_path / "joining-negative-control-seed42.json"
        assert control.is_file()
        payload = json.loads(control.read_text())
        assert payload["pass"] is False and payload["negative_control"] is True
        assert "manifest" in payload

    def test_steep_twist_joining_runs_every_trial(self, tmp_path):
        # x^6 collapses the twisted images of trial 57 within the tolerance
        code = run([
            "verify", "--plane", "half:power:6", "--suite", "joining",
            "--trials", "200", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code in (0, 1)
        assert json.loads((tmp_path / "joining-seed1.json").read_text())["trials"] == 200

    def test_negative_group_exits_1(self, tmp_path):
        code = run([
            "verify", "--plane", "half:power:2", "--suite", "automorphism",
            "--group", "kminus:psl:1,1,0,1", "--trials", "40",
            "--seed", "42", "--out", str(tmp_path),
        ])
        assert code == 1
        payload = json.loads((tmp_path / "automorphism-seed42.json").read_text())
        assert payload["pass"] is False
        assert payload["counterexamples"]

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        code = run([
            "verify", "--plane", "classical", "--suite", "sorcery",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_underflowing_power_exits_2_quietly(self, tmp_path):
        # x^1e300 sends every lifted grid pair but the axes to (0, 0); run in
        # a process, so that a RuntimeWarning printed to stderr would show
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "torus_planes.cli", "verify", "--suite", "joining",
             "--plane", "half:power:1e300", "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "cyclically ordered" in lines[0]

    def test_config_file_plane(self, tmp_path):
        config = tmp_path / "plane.cfg"
        config.write_text("family = half-classical\nf = power:2\ng = id\n")
        code = run([
            "verify", "--config", str(config), "--suite", "joining",
            "--trials", "30", "--seed", "5", "--out", str(tmp_path / "r"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "r" / "joining-seed5.json").read_text())
        assert payload["plane"].startswith("half-classical(f=power:2")

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORUS_PLANES_SEED", "99")
        code = run([
            "verify", "--plane", "classical", "--suite", "rigidity",
            "--trials", "20", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "rigidity-seed99.json").is_file()

    def test_double_run_byte_identical_modulo_runtime(self, tmp_path):
        args = [
            "verify", "--plane", "classical", "--suite", "joining",
            "--trials", "30", "--seed", "42",
        ]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        pa = json.loads((tmp_path / "a" / "joining-seed42.json").read_text())
        pb = json.loads((tmp_path / "b" / "joining-seed42.json").read_text())
        pa.pop("runtime_ms"), pb.pop("runtime_ms")
        pa["manifest"].pop("out_dir"), pb["manifest"].pop("out_dir")
        assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)

    def test_manifest_records_the_plane_tolerance(self, tmp_path):
        # the plane description omits the tolerance, which decides touching here
        manifests = []
        for extra in ([], ["--tol", "1e-18"]):
            out = tmp_path / (extra[-1] if extra else "default")
            run(["verify", "--plane", "half:power:2", "--suite", "touching", "--trials", "5",
                 "--seed", "1", "--out", str(out), *extra])
            manifests.append(json.loads((out / "touching-seed1.json").read_text())["manifest"])
        assert [m.pop("tolerance") for m in manifests] == [1e-9, 1e-18]
        assert [m.pop("out_dir") for m in manifests] == [str(tmp_path / "default"),
                                                         str(tmp_path / "1e-18")]
        assert manifests[0] == manifests[1]

    def test_tol_flag_sets_only_the_plane_tolerance(self, tmp_path):
        # the default tolerance written out moves no suite's threshold
        args = [
            "verify", "--plane", "half:power:2", "--suite", "joining-stress,automorphism",
            "--trials", "20", "--seed", "3", "--out", str(tmp_path),
        ]
        runs = []
        for extra in ([], ["--tol", "1e-9"]):
            assert run(args + extra) == 0
            runs.append({})
            for path in sorted(tmp_path.glob("*.json")):
                payload = json.loads(path.read_text())
                payload.pop("runtime_ms")
                runs[-1][path.name] = json.dumps(payload, sort_keys=True)
        assert len(runs[0]) == 4 and runs[0] == runs[1]


class TestPlotCommand:
    def test_identity_circle_and_class(self, tmp_path):
        out = tmp_path / "fig.svg"
        code = run([
            "plot", "--plane", "classical",
            "circle3:0,0:1,1:inf,inf", "pclass:plus:0", "pclass:minus:1",
            "--out", str(out),
        ])
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg and "line" in svg

    def test_orbit_object(self, tmp_path):
        out = tmp_path / "orbit.svg"
        code = run([
            "plot", "--plane", "classical",
            "orbit:diag:psl:2,0,0,0.5:0,1:25",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().count("<circle") == 26  # start point + 25 iterates

    def test_deterministic_bytes(self, tmp_path):
        args = ["plot", "--plane", "classical", "circle3:0,0:1,1:inf,inf"]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_object_exit_2(self, tmp_path):
        assert run([
            "plot", "--plane", "classical", "blob:1,2", "--out", str(tmp_path / "x.svg"),
        ]) == 2


class TestReportIndex:
    def test_empty_directory(self, tmp_path, capsys):
        assert run(["report-index", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "index.json").read_text())
        assert payload["reports"] == []
        assert payload["pass_count"] == 0

    def test_aggregates_and_flags_failures(self, tmp_path):
        run([
            "verify", "--plane", "classical", "--suite", "joining,rigidity",
            "--trials", "25", "--seed", "42", "--out", str(tmp_path),
        ])
        run([
            "verify", "--plane", "half:power:2", "--suite", "automorphism",
            "--group", "kminus:psl:1,1,0,1", "--trials", "30",
            "--seed", "42", "--out", str(tmp_path),
        ])
        assert run(["report-index", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "index.json").read_text())
        assert payload["pass_count"] == 2
        assert payload["fail_count"] == 1
        assert payload["failing_suites"] == ["automorphism"]
        suites = [e["suite"] for e in payload["reports"]]
        assert suites == sorted(suites)

    def test_missing_directory_exit_2(self, tmp_path):
        assert run(["report-index", str(tmp_path / "nope")]) == 2

    def test_rerun_does_not_index_its_own_index(self, tmp_path):
        (tmp_path / "good.json").write_text(json.dumps({"suite": "joining", "pass": True}))
        assert run(["report-index", str(tmp_path)]) == 0
        first = (tmp_path / "index.json").read_bytes()
        assert run(["report-index", str(tmp_path)]) == 0
        assert (tmp_path / "index.json").read_bytes() == first
        assert [e["file"] for e in json.loads(first)["reports"]] == ["good.json"]

    def test_file_that_is_not_json_skipped(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "good.json").write_text(json.dumps({"suite": "joining", "pass": True}))
        assert run(["report-index", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "index.json").read_text())
        assert [e["file"] for e in payload["reports"]] == ["good.json"]

    @pytest.mark.parametrize("suite", [5, None, [1]])
    def test_non_string_suite_skipped(self, tmp_path, suite):
        # an uncaught TypeError from sorting mixed suites would fail the run
        (tmp_path / "bad.json").write_text(json.dumps({"suite": suite, "pass": False}))
        (tmp_path / "good.json").write_text(json.dumps({"suite": "joining", "pass": False}))
        assert run(["report-index", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "index.json").read_text())
        assert [e["file"] for e in payload["reports"]] == ["good.json"]
        assert payload["failing_suites"] == ["joining"]
