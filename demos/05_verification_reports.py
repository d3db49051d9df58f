"""Running the property suites and reading their reports.

Every suite is seeded and deterministic: trial i draws from a stream
keyed by (seed, i), so a rerun with the same configuration reproduces the
report byte for byte (wall time aside). Each suite also ships a negative
control, a deliberately broken input that must fail; a control that
passes would mean the suite tests nothing.
"""

import json
import tempfile
from pathlib import Path

from torus_planes import CircleHomeo, classical_plane, half_classical_plane
from torus_planes.verify import (
    SUITES,
    TrialConfig,
    verify_joining,
    verify_touching,
)

cfg = TrialConfig(seed=42, trials=200)
classical = classical_plane()
half = half_classical_plane(CircleHomeo.power(2))

print("== joining on two planes ==")
for plane in (classical, half):
    report = verify_joining(plane, cfg)
    print(
        f"  {report.plane}: pass={report.passed}, "
        f"max residual {report.max_residual:.2e}, {report.runtime_ms:.0f} ms"
    )

print("\n== touching, smaller trial counts ==")
report = verify_touching(classical, TrialConfig(seed=42, trials=60))
print(f"  {report.plane}: pass={report.passed}, worst separation {report.max_residual:.2e}")

print("\n== the negative control must fail ==")
control = SUITES["joining"].control(TrialConfig(seed=42, trials=30))
print(f"  {control.plane}: pass={control.passed} with {len(control.counterexamples)} counterexamples")
print(f"  first reason: {control.counterexamples[0]['reason'][:72]}...")

print("\n== determinism ==")
a = verify_joining(classical, cfg).canonical_json()
b = verify_joining(classical, cfg).canonical_json()
print(f"  double run byte-identical (runtime excluded): {a == b}")

print("\n== report files ==")
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "joining.json"
    report = verify_joining(classical, TrialConfig(seed=7, trials=50))
    report.write(out)
    payload = json.loads(out.read_text())
    print(f"  schema: {payload['schema']}")
    print(f"  keys: {sorted(payload)}")

print(f"\nregistered suites: {', '.join(sorted(SUITES))}")
