"""Z/p^N standing in for Z_p: the context, and the scalar operations on int
residues mod p^N (valuation, exact reduction of rationals, unit inverse).
Series and Laurent polynomials over Z/p^N use PadicSeries coefficients, at
degree 0 for scalars."""

from fractions import Fraction

from .errors import ConfigError, InvertError, ReductionError


def _is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PadicContext:
    """The ring Z/p^N standing in for Z_p at working precision N."""

    __slots__ = ("p", "N", "modulus")

    def __init__(self, p, N):
        if not _is_odd_prime(p):
            raise ConfigError("p must be an odd prime >= 3, got %r" % (p,))
        if N < 1:
            raise ConfigError("precision N must be >= 1, got %r" % (N,))
        self.p = p
        self.N = N
        self.modulus = p ** N

    def with_precision(self, N):
        return PadicContext(self.p, N)

    def __eq__(self, other):
        return (
            isinstance(other, PadicContext)
            and self.p == other.p
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.p, self.N))

    def __repr__(self):
        return "PadicContext(p=%d, N=%d)" % (self.p, self.N)

    def same(self, other):
        if self != other:
            raise ConfigError("mismatched p-adic contexts: %r vs %r" % (self, other))


def ord_p(m, p, cap):
    """min(ord_p(m), cap) for an integer m; ord of 0 is cap."""
    if m == 0:
        return cap
    v = 0
    while v < cap and m % p == 0:
        m //= p
        v += 1
    return v


def unit_inverse(c, ctx):
    """The inverse mod p^N of an integer c; InvertError if p divides c."""
    if c % ctx.p == 0:
        raise InvertError("%d is not a unit mod %d^%d" % (c, ctx.p, ctx.N))
    return pow(c, -1, ctx.modulus)


def reduce_fraction(q, ctx):
    """Residue of an exact rational mod p^N.  p | denominator -> ReductionError."""
    q = Fraction(q)
    den = q.denominator
    if den % ctx.p == 0:
        raise ReductionError("p=%d divides denominator of %s" % (ctx.p, q))
    return q.numerator * pow(den, -1, ctx.modulus) % ctx.modulus
