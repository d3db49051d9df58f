"""Time the set-up a user pays in a fresh interpreter.

Usage: setup_probe.py PLANE_SPEC...
       setup_probe.py --reference

Imports `torus_planes` and builds each plane from its spec (which runs
`audit_monotone`, the inverses and, for a spline twist, the knot-file load),
then prints the elapsed seconds as JSON. With `--reference` it times only
`import numpy`, the reference that the benchmark scales set-up times by.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if sys.argv[1:] == ["--reference"]:
    start = time.perf_counter()
    import numpy  # noqa: E402, F401

    print(json.dumps({"setup_s": time.perf_counter() - start}))
    sys.exit(0)

start = time.perf_counter()
import torus_planes  # noqa: E402

planes = [torus_planes.parse_plane_spec(spec) for spec in sys.argv[1:]]
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "planes": [p.describe() for p in planes]}))
