"""The per-layer tracer of the benchmark (perfbench/spans.py) finds every
entry point it wraps, so a renamed or merely inherited method fails here
rather than in a traced benchmark run."""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_every_traced_module_is_loaded_with_the_cli():
    # Tracer.install looks each module up in sys.modules right after
    # `import cartier.cli`: `import cartier` registers every module there,
    # and a module runs on its first attribute read, so it must be registered
    # even if no command reads it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cartier.cli; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    traced = {"cartier." + module for _, module, _ in _spans().ENTRY_POINTS}
    assert sorted(traced - set(loaded)) == []


# loads the tracer from argv[1], wraps the lazily registered modules, runs
# `cartier` on the JSON argv of argv[2] and writes the span metrics to stderr
TRACED_RUN = """
import importlib.util, json, sys, time
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import cartier.cli
tracer = spans.Tracer("t")
tracer.install()
start = time.perf_counter()
code = cartier.cli.main(json.loads(sys.argv[2]))
sys.stdout.flush()
sys.stderr.write(json.dumps(tracer.summary(time.perf_counter() - start)["metrics"]))
sys.exit(code)
"""


def test_the_tracer_wraps_lazily_loaded_modules():
    # install() reads each wrapped module for the first time, so the wrappers
    # must be in place in every module that runs then, and the output unchanged
    case = json.loads((ROOT / "perfbench" / "reference.json").read_text())["lift"][0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SPANS), json.dumps(case["argv"])],
        capture_output=True, env=env,
    )
    assert done.returncode == case["exit"]
    assert hashlib.sha256(done.stdout).hexdigest() == case["sha256"]
    metrics = json.loads(done.stderr)
    assert metrics["frobenius.excellent_lift.calls"] == 1
    assert metrics["series.padic.mul.calls"] > 0
    assert metrics["expansion.expand_cy.calls"] == 0


def test_the_tracer_counts_the_period_and_lift_requests_of_a_check():
    # the stores live in `families` and `sigma`; the tracer wraps them under
    # the names `harness.get_periods` and `harness.get_lift`, and must still
    # count each request a check makes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = "verify frobenius --family hypercubic --n 2 --prime 3 --lift tp --degree 21".split()
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SPANS), json.dumps(argv)],
        capture_output=True, env=env,
    )
    assert done.returncode == 0
    metrics = json.loads(done.stderr)
    assert metrics["harness.period_requests"] == metrics["harness.period_builds"] == 1
    assert metrics["harness.lift_requests"] == 1
