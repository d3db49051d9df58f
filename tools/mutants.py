"""Mutation check: each listed one-line mutant of `src/` must fail its test.

    python3 tools/mutants.py

Each entry of `tools/mutants.json` names a file, the exact old line (indentation
included), its replacement, and the pytest node expected to kill the mutant.
The checkout is first copied once, unchanged, and every named test must pass
there. Then, for each entry, a fresh copy gets the line replaced (it must
occur exactly once) and the named test runs in that copy with `PYTHONPATH`
at its `src/`. The script exits 1 and names every surviving mutant, exits 2
on a malformed entry or a failing unmutated test, and exits 0 when every
mutant is killed. Only the standard library is used.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".perfbench_work", "reports")


def _pytest(root: Path, tests: list) -> int:
    """Exit status of the named tests, run in the copy at `root` on its own `src/`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _mutated(root: Path, entry: dict) -> str:
    """The text of the entry's file under `root` with its one old line replaced."""
    lines = (root / entry["file"]).read_text(encoding="utf-8").split("\n")
    hits = [i for i, line in enumerate(lines) if line == entry["old"]]
    if len(hits) != 1:
        raise ValueError(f"{entry['file']}: {entry['old']!r} occurs {len(hits)} times, not once")
    lines[hits[0]] = entry["new"]
    return "\n".join(lines)


def main() -> int:
    entries = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        pristine = Path(tmp) / "pristine"
        shutil.copytree(ROOT, pristine, ignore=_SKIP)
        try:
            mutants = [_mutated(pristine, entry) for entry in entries]
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        tests = sorted({entry["test"] for entry in entries})
        if _pytest(pristine, tests) != 0:
            print("error: a named test fails on the unmutated copy")
            return 2
        survivors = []
        for k, (entry, text) in enumerate(zip(entries, mutants)):
            copy = Path(tmp) / f"mutant-{k}"
            shutil.copytree(pristine, copy)
            (copy / entry["file"]).write_text(text, encoding="utf-8")
            killed = _pytest(copy, [entry["test"]]) != 0
            shutil.rmtree(copy)
            label = f"{entry['file']}: {entry['old'].strip()!r} -> {entry['new'].strip()!r}"
            print(f"{'killed' if killed else 'SURVIVED'}  {label}  ({entry['test']})")
            if not killed:
                survivors.append(label)
    if survivors:
        print(f"{len(survivors)} of {len(entries)} mutants survived:")
        for label in survivors:
            print(f"  {label}")
        return 1
    print(f"all {len(entries)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
