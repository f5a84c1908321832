"""The per-layer tracer of the benchmark (perfbench/spans.py) finds every
entry point it wraps, so a renamed or merely inherited method fails here
rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_entry_point_resolves():
    entry_points = _spans().ENTRY_POINTS
    assert entry_points
    unresolved = []
    for _, module, path in entry_points:
        mod = importlib.import_module("cartier." + module)
        owner_name, _, attr = path.rpartition(".")
        try:
            # as Tracer.install does: a class attribute must sit in the
            # class's own __dict__, a function on the module
            fn = getattr(mod, owner_name).__dict__[attr] if owner_name else getattr(mod, attr)
        except (AttributeError, KeyError):
            fn = None
        if not callable(fn):
            unresolved.append("%s.%s" % (module, path))
    assert unresolved == []
