"""The benchmark's span tracer still finds every callable it wraps.

`perfbench/tracer.py` patches library callables by name; a rename in the
library would otherwise surface only when a traced benchmark run fails.
"""

import importlib.util
import sys
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """The tracer and what each target names, also where a module re-binds it."""
    tracer = _load_tracer().Tracer()
    targets = tracer._targets()  # imports the traced modules
    modules = [m for name, m in sys.modules.items()
               if name.startswith("torus_planes") and isinstance(m, types.ModuleType)]
    bound = {}
    for owner, attr, *_ in targets:
        original = getattr(owner, attr)
        bound[(owner, attr)] = original
        if isinstance(owner, types.ModuleType):
            for module in modules:
                if module.__dict__.get(attr) is original:
                    bound[(module, attr)] = original
    return tracer, bound


def test_tracer_installs_every_target_and_restores_it():
    tracer, before = _bindings()
    assert len(tracer._targets()) == 36
    with tracer.installed():
        patched = {key: getattr(*key) for key in before}
    assert all(patched[key] is not original for key, original in before.items())
    assert all(getattr(*key) is original for key, original in before.items())
