"""Sparse Laurent polynomials in n variables.

Coefficients may be ints, Fractions, RationalSeries or PadicSeries (Z/p^N
scalars are PadicSeries of degree 0); all that is required is ring
arithmetic through operators and falsiness of zero.  Zero coefficients are
dropped eagerly.

A product whose coefficients are all PadicSeries of one degree bound goes
to `series.packed_term_mul`, which forms each pair of terms as one bigint
product of Kronecker-packed residues; any other product multiplies and
adds the coefficients pair by pair.  `mul_classes` is the same product
restricted to the terms whose exponents lie in given classes mod p, the
only ones a Cartier operator reads after a shift: both kernels then form
only the pairs of terms that land in those classes.
"""

from fractions import Fraction

from .errors import ConfigError, DomainError
from .series import packed_term_mul, pair_partners


class LaurentPoly:
    """Finite map exponent tuple -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for u, c in terms.items() if isinstance(terms, dict) else terms:
                u = tuple(u)
                if len(u) != self.n:
                    raise ConfigError("exponent %r has wrong dimension" % (u,))
                if c:
                    prev = self.terms.get(u)
                    s = c if prev is None else prev + c
                    if s:
                        self.terms[u] = s
                    elif prev is not None:
                        del self.terms[u]

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n, one=1):
        return cls(n, {(0,) * n: one})

    def support(self):
        return sorted(self.terms)

    def coeff(self, u, default=0):
        return self.terms.get(tuple(u), default)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.n != other.n or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[u] == other.terms[u] for u in self.terms)

    def __repr__(self):
        items = ", ".join(
            "%r: %r" % (u, c) for u, c in sorted(self.terms.items())[:6]
        )
        return "LaurentPoly(n=%d, {%s}%s)" % (
            self.n,
            items,
            ", ..." if len(self.terms) > 6 else "",
        )

    def __add__(self, other):
        return self._merged(other, False)

    def __sub__(self, other):
        return self._merged(other, True)

    def _merged(self, other, subtract):
        """self + other, or self - other when subtract, in one pass over
        other's terms: a term of other alone is negated, no negated copy of
        other is built."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.n != other.n:
            raise ConfigError("dimension mismatch")
        out = dict(self.terms)
        for u, c in other.terms.items():
            s = out.get(u)
            if s is None:
                s = -c if subtract else c
            else:
                s = s - c if subtract else s + c
            if s:
                out[u] = s
            elif u in out:
                del out[u]
        p = LaurentPoly(self.n)
        p.terms = out
        return p

    def __neg__(self):
        p = LaurentPoly(self.n)
        p.terms = {u: -c for u, c in self.terms.items()}
        return p

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return _term_product(self, other, None)
        # scalar
        out = {}
        for u, c in self.terms.items():
            s = c * other
            if s:
                out[u] = s
        p = LaurentPoly(self.n)
        p.terms = out
        return p

    __rmul__ = __mul__

    def map_coefficients(self, fn):
        out = {}
        for u, c in self.terms.items():
            s = fn(c)
            if s:
                out[u] = s
        p = LaurentPoly(self.n)
        p.terms = out
        return p

    def scale_exponents(self, k):
        """Substitute x -> x^k."""
        p = LaurentPoly(self.n)
        p.terms = {tuple(k * e for e in u): c for u, c in self.terms.items()}
        return p

    def constant_term(self, default=0):
        return self.terms.get((0,) * self.n, default)

    @classmethod
    def from_text(cls, text):
        """One term 'e1,..,en : c' per line, with int exponents and a
        rational c; n is the length of the first exponent, and a malformed
        line raises ConfigError."""
        terms = []
        for line in text.strip().splitlines():
            if not line.strip():
                continue
            try:
                exps, coeff = line.split(":")
                u = tuple(int(e) for e in exps.split(","))
                c = Fraction(coeff.strip())
            except (ValueError, ZeroDivisionError):
                raise ConfigError("polynomial line %r is not 'e1,..,en : c'" % line) from None
            terms.append((u, c.numerator if c.denominator == 1 else c))
        if not terms:
            raise ConfigError("empty polynomial literal")
        return cls(len(terms[0][0]), terms)


def mul_classes(f, g, p, classes):
    """The terms of f * g whose exponents mod p lie in classes (exponent
    tuples, taken mod p); only the pairs of terms that land there are formed."""
    return _term_product(f, g, (p, classes))


def _term_product(f, g, keep):
    """f * g for LaurentPoly f and g, restricted by keep as in
    `series.pair_partners`: packed when `packed_term_mul` takes the
    coefficients, else coefficient by coefficient."""
    if f.n != g.n:
        raise ConfigError("dimension mismatch")
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    out = packed_term_mul(a, b, keep)
    if out is None:
        out = {}
        partners = pair_partners(list(b.items()), keep)
        for u, cu in a.items():
            for v, cv in partners(u):
                w = tuple(ui + vi for ui, vi in zip(u, v))
                c = cu * cv
                s = out.get(w)
                s = c if s is None else s + c
                if s:
                    out[w] = s
                elif w in out:
                    del out[w]
    p = LaurentPoly(f.n)
    p.terms = out
    return p


def poly_pow(f, e):
    """f^e by binary exponentiation on sparse maps.  For e >= 1 the result
    starts from a power of f, never from the int one, so no product leaves
    f's coefficient ring."""
    if e < 0:
        raise DomainError("negative exponent")
    if e == 0:
        return LaurentPoly.one(f.n)
    result = None
    base = f
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            return result
        base = base * base


def cartier_poly(A, p):
    """Keep terms whose exponents are all divisible by p, dividing them by p."""
    out = LaurentPoly(A.n)
    out.terms = {
        tuple(e // p for e in u): c
        for u, c in A.terms.items()
        if all(e % p == 0 for e in u)
    }
    return out
