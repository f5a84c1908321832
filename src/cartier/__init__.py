"""p-adic Cartier-operator toolkit: truncated p-adic arithmetic, sparse
Laurent polynomials on Newton polytopes, level-k Hasse-Witt matrices,
Calabi-Yau period data with excellent Frobenius lifts, and congruence
verification suites."""

from .padic import PadicContext, PadicInt, padic_log_unit
from .series import (
    PadicSeries,
    RationalSeries,
    dieudonne_dwork_check,
    divided_power_reverse,
    reduce_mod,
)

__version__ = "0.1.0"
