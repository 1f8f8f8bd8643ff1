"""The traced benchmark run wraps package functions by name.

perfbench/tracing.py lists each wrapped function as (owner, attribute);
a rename in the package would make the traced run stop with "trace
targets not found", so every listed name must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    missing = []
    for _, owner, attr, _ in tracing.TARGETS:
        modname, _, clsname = owner.partition(":")
        home = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
        if clsname:
            found = attr in getattr(home, clsname, object).__dict__
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{owner}.{attr}")
    assert not missing, f"trace targets not found: {missing}"
