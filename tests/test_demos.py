"""Every demo script runs to completion on the current library."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def _run_demo(name, tmp_path):
    """The finished run of one demo, in a copy of the demos folder."""
    # demo 06 writes gallery.svg next to itself, so each demo runs in a copy
    copy = tmp_path / "demos"
    shutil.copytree(DEMOS, copy)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(copy / name)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert (copy / "gallery.svg").read_bytes() == (DEMOS / "gallery.svg").read_bytes()
    return result


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    _run_demo(name, tmp_path)


def test_joining_demo_intersects_a_psl_and_a_twisted_circle(tmp_path):
    lines = _run_demo("02_joining_circles.py", tmp_path).stdout.splitlines()
    k = lines.index("== a mixed-branch intersection, twist f(x) = sgn(x) x^2 ==")
    assert lines[k + 1].startswith("  half-classical-PSL vs half-classical-twisted: [")
    assert lines[k + 1].count("(") == 2
    assert float(lines[k + 2].rsplit(" ", 1)[1]) <= 1e-12
