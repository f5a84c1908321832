"""p-adic Cartier-operator toolkit: truncated p-adic arithmetic, sparse
Laurent polynomials on Newton polytopes, level-k Hasse-Witt matrices,
Calabi-Yau period data with excellent Frobenius lifts, and congruence
verification suites."""

# cone expansions and the Cartier operator in rational form load with the
# package although no command calls them: the per-layer tracer
# (perfbench/spans.py) wraps `expand_cy` in the modules `cartier.cli` loads
from . import expansion  # noqa: F401
from .padic import PadicContext
from .series import (
    PadicSeries,
    RationalSeries,
    padic_log_unit,
    reduce_mod,
)

__version__ = "0.1.0"
