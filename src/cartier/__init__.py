"""p-adic Cartier-operator toolkit: truncated p-adic arithmetic, sparse
Laurent polynomials on Newton polytopes, level-k Hasse-Witt matrices,
Calabi-Yau period data with excellent Frobenius lifts, and congruence
verification suites."""

import importlib.util
import os
import sys

__version__ = "0.1.0"

# Every submodule but `cli` and `__main__` is registered in sys.modules and
# as a package attribute on import, and compiled and run only on its first
# attribute read (importlib.util.LazyLoader), so a command runs only the
# modules it reads.  The per-layer tracer (perfbench/spans.py) finds each
# module it wraps in sys.modules after `import cartier.cli`.  The package
# attribute keeps `from . import name` from loading the module.
for _name in sorted(
    _file[:-3] for _file in os.listdir(__path__[0])
    if _file.endswith(".py") and _file[:-3] not in ("__init__", "__main__", "cli")
):
    _spec = importlib.util.find_spec(__name__ + "." + _name)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module
