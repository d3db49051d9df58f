"""Every demo script runs to completion on the current library."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
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
