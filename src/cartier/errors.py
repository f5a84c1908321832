"""Exception types shared across the library."""


class ConfigError(Exception):
    """Mismatched contexts, invalid run configuration, bad user input."""


class DomainError(Exception):
    """Operation applied outside its mathematical domain."""


class InvertError(DomainError):
    """Constant term is not a unit."""


class ReversionError(DomainError):
    """Series is not of the form t + O(t^2) (or r_1 != 1)."""


class DivergenceError(DomainError):
    """Substitution would produce an infinite constant term."""


class ReductionError(Exception):
    """p divides a denominator during rational -> p-adic reduction."""


class PrecisionError(Exception):
    """Working precision is too small to decide the question."""


class ExpansionError(DomainError):
    """Vertex coefficient is not a unit, so no cone expansion exists."""


class InfiniteIndexError(DomainError):
    """Support spans a sublattice of rank < n."""


class TheoremViolation(Exception):
    """A proved divisibility or structure statement failed numerically."""
