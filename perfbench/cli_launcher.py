"""Run the `torus-planes` command under the benchmark's tracer.

Usage: cli_launcher.py SPANS_JSON -- ARGS...

Times the import of `torus_planes.cli`, installs the same wrappers as the
in-process traced runs, calls `torus_planes.cli.main(ARGS)`, writes the
aggregated spans to SPANS_JSON and exits with main's exit code.
"""

import sys
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path.insert(0, str(here.parent / "src"))


def main() -> int:
    spans_path, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_launcher.py SPANS_JSON -- ARGS...")
    start = time.perf_counter()
    import torus_planes.cli as cli

    import_ms = (time.perf_counter() - start) * 1000.0
    from tracer import Tracer

    tracer = Tracer()
    try:
        with tracer.installed():
            return tracer.call("cli.main", cli.main, args)
    finally:
        tracer.dump(spans_path, extra={"cli.import_ms": import_ms})


if __name__ == "__main__":
    raise SystemExit(main())
