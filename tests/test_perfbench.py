"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here, not in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_bindings_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.SPANS + tracer.COUNTERS
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing
