"""Lazy submodules: `import cartier` registers every submodule but `cli` and
`__main__` in sys.modules, and a module is compiled and run only on its
first attribute read.  A module counts as run when its entry in sys.modules
is a plain `types.ModuleType`; a registered module that has not run is a
lazy subclass of it.  Each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())

# runs the code of argv[1] with its stdout discarded, then prints, for each
# cartier module in sys.modules, whether it has run
PROBE = """
import contextlib, io, json, sys, types
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps({
    name: type(module) is types.ModuleType
    for name, module in sys.modules.items()
    if name == "cartier" or name.startswith("cartier.")
}))
"""


def _modules(code):
    """{module name: has it run} after `code` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, code], capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(done.stdout)


def _ran(code):
    return {name for name, ran in _modules(code).items() if ran}


def _main(argv):
    return "from cartier import cli\nassert cli.main(%r) == 0" % (argv,)


def test_every_submodule_is_registered_and_none_runs_on_import():
    modules = _modules("import cartier")
    expected = {
        "cartier." + path.stem
        for path in (ROOT / "src" / "cartier").glob("*.py")
        if path.stem not in ("__init__", "__main__", "cli")
    }
    assert set(modules) == expected | {"cartier"}
    assert {name for name, ran in modules.items() if ran} == {"cartier"}


def test_building_the_parser_runs_only_what_it_reads():
    # the verify choices and help texts come from a table in cli, so the
    # parser runs no harness
    assert _ran("from cartier import cli\ncli.build_parser()") == {
        "cartier", "cartier.cli", "cartier.errors", "cartier.padic",
    }


@pytest.mark.parametrize(
    "workload,unread",
    [
        ("lift", {"cartier.harness", "cartier.hasse_witt", "cartier.expansion"}),
        ("hw", {"cartier.harness", "cartier.frobenius", "cartier.expansion"}),
        ("smoke", {"cartier.expansion"}),
    ],
)
def test_a_command_runs_no_module_it_does_not_read(workload, unread):
    ran = _ran(_main(REFERENCE[workload][0]["argv"]))
    assert "cartier.series" in ran
    assert ran & unread == set()


def test_only_verify_runs_the_harness():
    # the control of the harness entries above: verify runs it
    assert "cartier.harness" in _ran(_main(REFERENCE["smoke"][0]["argv"]))


def test_a_check_that_reads_no_store_runs_neither_families_nor_sigma():
    # harness reads the period and lift stores from `families` and `sigma`,
    # and the family specs from `catalog`, only when a check calls them
    ran = _ran(_main(["verify", "straub", "--prime", "5", "--s", "1"]))
    assert "cartier.harness" in ran
    assert ran & {"cartier.catalog", "cartier.families", "cartier.sigma"} == set()


def test_hw_builds_its_spec_without_the_period_code():
    # `catalog` builds the family spec and `families` holds the period data,
    # which `hw` under the t^p lift never reads
    ran = _ran(_main(REFERENCE["hw"][0]["argv"]))
    assert "cartier.catalog" in ran
    assert "cartier.families" not in ran


def test_lift_runs_the_catalog_and_the_period_code():
    # the control of the entry above: the excellent lift reads the periods
    ran = _ran(_main(REFERENCE["lift"][0]["argv"]))
    assert {"cartier.catalog", "cartier.families"} <= ran


def test_reading_an_attribute_runs_the_module():
    # negative control of the checks above: a read marks the module as run
    assert "cartier.expansion" not in _ran("from cartier import expansion")
    assert "cartier.expansion" in _ran("from cartier import expansion\nexpansion.expand_cy")
