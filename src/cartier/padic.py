"""Truncated p-adic integers: residues modulo p^N with valuation bookkeeping."""

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


def reduce_fraction(q, ctx):
    """Residue of an exact rational mod p^N.  p | denominator -> ReductionError."""
    q = Fraction(q)
    den = q.denominator
    if den % ctx.p == 0:
        raise ReductionError("p=%d divides denominator of %s" % (ctx.p, q))
    return q.numerator * pow(den, -1, ctx.modulus) % ctx.modulus


class PadicInt:
    """An element of Z/p^N."""

    __slots__ = ("ctx", "residue")

    def __init__(self, ctx, value):
        self.ctx = ctx
        if isinstance(value, PadicInt):
            ctx.same(value.ctx)
            value = value.residue
        elif isinstance(value, Fraction):
            value = reduce_fraction(value, ctx)
        self.residue = value % ctx.modulus

    def _coerce(self, other):
        if isinstance(other, PadicInt):
            self.ctx.same(other.ctx)
            return other.residue
        if isinstance(other, (int, Fraction)):
            return PadicInt(self.ctx, other).residue
        return None

    def __add__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return PadicInt(self.ctx, self.residue + r)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return PadicInt(self.ctx, self.residue - r)

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return PadicInt(self.ctx, r - self.residue)

    def __mul__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return PadicInt(self.ctx, self.residue * r)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.ctx, -self.residue)

    def __pow__(self, e):
        if e < 0:
            return self.invert() ** (-e)
        return PadicInt(self.ctx, pow(self.residue, e, self.ctx.modulus))

    def __eq__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return self.residue == r

    def __hash__(self):
        return hash((self.ctx, self.residue))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return "%d (mod %d^%d)" % (self.residue, self.ctx.p, self.ctx.N)

    def is_unit(self):
        return self.residue % self.ctx.p != 0

    def invert(self):
        if not self.is_unit():
            raise InvertError("%r is not a unit" % (self,))
        return PadicInt(self.ctx, pow(self.residue, -1, self.ctx.modulus))

    def ord(self):
        """p-adic valuation, capped at N (ord of 0 is N by convention)."""
        return ord_p(self.residue, self.ctx.p, self.ctx.N)

    def divide_exact_p(self, k):
        """Divide by p^k.  Result lives at precision N - k."""
        if k == 0:
            return self
        pk = self.ctx.p ** k
        if self.residue % pk != 0:
            raise ReductionError("residue %d not divisible by p^%d" % (self.residue, k))
        if self.ctx.N <= k:
            raise ReductionError("no precision left after dividing by p^%d" % k)
        return PadicInt(self.ctx.with_precision(self.ctx.N - k), self.residue // pk)
