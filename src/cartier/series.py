"""Degree-truncated power series over exact rationals or Z/p^N.

`_Series` holds the one copy of the truncated-series algorithms, and two
thin ring classes supply what differs: `RationalSeries` over Q and
`PadicSeries` over Z/p^N (int residues).  A RationalSeries keeps an
integral coefficient as an int and any other as a Fraction, normalised in
its constructor and at each step of `invert`, and its divisions (`invert`,
`log`, `exp`) go through the exact `quo`, so arithmetic on integral series
runs in ints.  Period data, computed in `families` as RationalSeries, is
pushed into PadicSeries through reduce_mod at the last possible moment, so
that any hidden p in a denominator raises ReductionError.

Each residue is reduced once: only the public PadicSeries constructor
tests types, to accept Fractions; `_new` reduces int results by c % p^N,
and results that are residues already go to `PadicSeries._residues`.

A composition outer(inner) to inner's degree bound D reads only the outer
coefficients that reach degree D, c_0..c_(D//v) for v = ord_t(inner) >= 1:
the Frobenius pull-back s(t^sigma), with v = p, reads D//p + 1 of them.
Each Horner step, and each Brent-Kung block and giant step, is formed only
to the degree it can still reach; the comment above `_valuation` proves
both cuts exact.  `reverse` runs its Newton steps at the degrees
D >> j, ..., D >> 1, D and forms the factors of each correction only to the
degree the correction reads.  `invert` sums each step of its recurrence in
one pass of `map`, and a power s ** e squares and multiplies.

A series stores its degree bound D explicitly and its coefficients `_c`
only up to the last nonzero one (the zero series stores []), so the
Hasse-Witt polynomials, whose coefficients have t-degree about 3p under
D = 3p^2, cost what they hold.  Its `coeffs` is a fresh padded list of
length D + 1, and s[i] reads 0 for len(_c) <= i <= D; in both rings those
padded zeros are the int 0.

Products in Z/p^N follow one length rule.  When both operands store at
least _PACK_MIN = 12 residues (within the product's degree bound),
`PadicSeries` packs each operand into one int by Kronecker substitution,
one residue per slot wide enough that no carry crosses slots, and does one
bigint product; its `compose` runs Brent-Kung baby steps and giant steps
over the same packing.  A slot that needs at most 8 bytes is widened to one
8-byte machine word, so a whole residue list converts to and from bytes in
one `struct` call ("<nQ"); the widths `desk`, `lift` and `hw` ask for are 3
to 7 bytes.  A slot wider than 8 bytes, as for `hw --family square --level
3` at 10 to 11 bytes, converts residue by residue through int.to_bytes.
Shorter operands take the shared schoolbook loop, which skips zero
coefficients.  On dense operands the packed product is already ahead at 6
to 8 residues, but the Hasse-Witt products have stored lengths of 8 to 11
with about 5 nonzero pairs each, and packing each of those on its own made
`hw` about 70% slower.  So a LaurentPoly product whose
coefficients are all PadicSeries of one D packs at the level of the whole
product instead (`packed_term_mul`): each coefficient is packed once, each
pair of terms is one small bigint product summed unreduced per output
monomial, and each output coefficient is unpacked once.  Each exponent
tuple is read once as one int in a radix wide enough for every sum, so a
pair's exponent sum is one int addition and each output monomial is read
back once.  Given exponent classes mod p, it forms only the pairs of terms
whose exponent sums lie in them: `pair_partners` buckets the other
operand's terms by class once, and the one pair loop draws each term's
partners from it (the LaurentPoly schoolbook loop draws from it too).
`RationalSeries` always uses the schoolbook loop.

The p-adic measurements live here and in `padic` only: `padic.ord_p` is
the valuation, `PadicSeries.min_excess_ord` the excess over a target power
of p (integer differences are measured as a PadicSeries mod p^(target +
guard)), and `PadicSeries.log` the logarithm; `padic_log_unit` reads the
constant term of a degree-0 log.
"""

import struct
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, isqrt
from operator import mul

from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InvertError,
    ReductionError,
    ReversionError,
    TheoremViolation,
)
from .padic import ord_p, reduce_fraction, unit_inverse


class _Series:
    """Truncation of a power series at degree D over a coefficient ring.

    A ring class supplies its constructor and
      _new(coeffs, D)   a series of the same ring (and context) from the
                        ring's unreduced results
      _kept(coeffs, D)  the same from coefficients already in the ring's
                        normal form, such as those a series stores
      _scalar(x)        the coefficient a scalar x stands for, None if x is
                        not a scalar of the ring
      _same(other)      raises unless other shares the ring's context
      _unit_inverse(c)  the inverse of a unit constant term c; InvertError
                        if c is not a unit
      _reduce(c)        applied to each step of the `invert` recurrence
    """

    __slots__ = ("D", "_c")

    @property
    def coeffs(self):
        """A fresh list of the D + 1 coefficients, trailing zeros included."""
        return self._c + [0] * (self.D + 1 - len(self._c))

    def __getitem__(self, i):
        """Coefficient of t^i for 0 <= i <= D."""
        if 0 <= i < len(self._c):
            return self._c[i]
        if 0 <= i <= self.D:
            return 0
        raise IndexError("degree %d outside 0..%d" % (i, self.D))

    def truncate(self, D):
        return self._kept(self._c, D)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            self._same(other)
            return other
        c = self._scalar(other)
        return None if c is None else self._new([c], self.D)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [a + b for a, b in zip_longest(self._c, o._c, fillvalue=0)]
        return self._new(out, min(self.D, o.D))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [a - b for a, b in zip_longest(self._c, o._c, fillvalue=0)]
        return self._new(out, min(self.D, o.D))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._new([-c for c in self._c], self.D)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            return self._new([c * s for c in self._c], self.D)
        self._same(other)
        D = min(self.D, other.D)
        a, b = self._c, other._c
        la, lb = min(len(a), D + 1), min(len(b), D + 1)
        out = [0] * min(la + lb - 1, D + 1)
        for i in range(la):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(lb, D + 1 - i)):
                if b[j]:
                    out[i + j] += ai * b[j]
        return self._new(out, D)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = min(self.D, o.D)
        a, b = self._c[: D + 1], o._c[: D + 1]
        if len(a) < len(b):
            a, b = b, a
        return a[: len(b)] == b and not any(a[len(b) :])

    def __bool__(self):
        return bool(self._c)

    def is_zero(self):
        return not self._c

    def __pow__(self, e):
        """self^e for an int e >= 0 by square-and-multiply, about 2 log2(e)
        products instead of e - 1."""
        if type(e) is not int or e < 0:
            return NotImplemented
        if e == 0:
            return self._new([1], self.D)
        out = self
        for bit in bin(e)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def invert(self):
        """1/self by the recurrence out_n = -inv0 sum_(k>=1) a_k out_(n-k),
        each sum one C-level pass of map over a_1.. and out reversed."""
        a1 = self._c[1:]
        inv0 = self._unit_inverse(self[0])
        reduce = self._reduce
        out = [inv0]
        for _ in range(self.D):
            out.append(reduce(-sum(map(mul, a1, reversed(out))) * inv0))
        return self._kept(out, self.D)

    def _checked_inner(self, inner, outer_polynomial):
        if not isinstance(inner, type(self)):
            raise ConfigError("inner must be a %s" % type(self).__name__)
        self._same(inner)
        if inner[0] != 0 and not outer_polynomial:
            raise DivergenceError("inner constant term nonzero for a truncated outer series")

    def compose(self, inner, outer_polynomial=False):
        """self(inner) to inner's degree bound D, by Horner's rule over the
        outer coefficients that reach degree D (`_outer_terms`), each step
        formed only to the degree it can still reach (`_step_degree`)."""
        self._checked_inner(inner, outer_polynomial)
        D, v = inner.D, _valuation(inner)
        c = self._c[: _outer_terms(len(self._c), D, v)]
        acc = self._kept(c[-1:], D)
        for k in range(len(c) - 2, -1, -1):
            acc = self._kept(acc._c, _step_degree(D, k, v)) * inner + c[k]
        return acc

    def reverse(self):
        """Compositional inverse of self = t + O(t^2) by Newton iteration.

        The degrees run upwards through D >> j, ..., D >> 1, D, so a step
        from r, right to degree d_old, goes to degree d <= 2 d_old + 1, and
        the last two steps compose at D // 2 and D, not at a 2^j - 1 just
        below D as doubling up from 1 would.  A step composes once: with a(r) = t + err, the chain rule gives
        a'(r) = (a(r))' / r' = (1 + err') / r', so the correction
        err / a'(r) is err r' (1 + err')^-1.  err vanishes to degree d_old,
        so the product reads its other factors only to degree
        h = d - d_old - 1 <= d_old, never the unknown top coefficient of a
        derivative, and they are formed to degree h only.  There
        (1 + err')^-1 is 1 - err': err' vanishes below degree d_old, so
        (err')^2 vanishes below 2 d_old >= h + 1.  A last composition at D
        checks a(r) = t and raises TheoremViolation otherwise."""
        if self.D == 0 or self[0] != 0 or self[1] != 1:
            # unit linear coefficient other than 1 is not needed anywhere downstream
            raise ReversionError("reversion requires a = t + O(t^2)")
        D = self.D
        r = self._new([0, 1], D)
        d = 1
        for d_next in reversed([D >> j for j in range(D.bit_length() - 1)]):
            d_old, d = d, d_next
            r = r.truncate(d)
            err = self.truncate(d).compose(r) - self._new([0, 1], d)
            if err:
                h = d - d_old - 1
                x = r.derivative().truncate(h) * (1 - err.derivative().truncate(h))
                # x read at degree bound d: its zeros above h meet only the
                # coefficients of err below d_old + 1, which vanish
                r = r - err * self._kept(x._c, d)
        # each step is exact, so a step that lost a term shows here rather
        # than being patched by a further step
        if self.compose(r) != self._new([0, 1], D):
            raise TheoremViolation("Newton reversion left a(r) != t to degree %d" % D)
        return r

    def shift(self, k):
        """Multiply by t^k."""
        return self._kept([0] * k + self._c, self.D)

    def shift_div(self, k):
        """Divide by t^k; the k lowest coefficients must vanish."""
        if any(self._c[:k]):
            raise DomainError("series not divisible by t^%d" % k)
        return self._kept(self._c[k:], self.D)

    def theta(self):
        """t d/dt."""
        return self._new([i * c for i, c in enumerate(self._c)], self.D)

    def derivative(self):
        """d/dt; the coefficient at t^D is not known and reads 0."""
        return self._new([i * c for i, c in enumerate(self._c)][1:], self.D)


# What truncation keeps of a composition outer(inner) to inner's degree
# bound D.  Let v = ord_t(inner), read as D + 1 for the zero series.  Each
# term c_j inner^j has valuation at least j v, so for v >= 1 the terms with
# j > D // v vanish mod t^(D+1): only c_0 .. c_(D//v) are kept, and for the
# zero inner that is c_0 alone.  For v = 0, which only a polynomial outer
# series allows, every coefficient is kept.
#
# Horner's rule joins the terms (or Brent-Kung's blocks, with inner^k for
# inner) as A_i = A_(i+1) inner + c_i, with A_0 the result.  Since
# A_0 = sum_(j<i) c_j inner^j + A_i inner^i and inner^i has valuation at
# least i v, only the coefficients of A_i up to D_i = D - i v reach degree D,
# so A_i is formed to degree D_i and no further.  That is exact: a
# coefficient of A_(i+1) inner at degree n <= D_i is a sum of
# A_(i+1)_a inner_b with b >= v, so a <= n - v <= D_(i+1), and A_(i+1) is
# known to D_(i+1).  Reading A_(i+1) at degree bound D_i, with zeros above
# D_(i+1), changes nothing, as those entries meet only inner_b with b < v,
# all zero.  By induction from A_0 to degree D_0 = D, the result is exact.


def _valuation(s):
    """ord_t of s, or D + 1 for the zero series."""
    return next((i for i, c in enumerate(s._c) if c), s.D + 1)


def _outer_terms(n, D, v):
    """How many of n outer coefficients reach degree D of outer(inner),
    v = ord_t(inner)."""
    return n if v == 0 else min(n, D // v + 1)


def _step_degree(D, i, v):
    """The degree to which the Horner sum A_i of outer(inner) is formed,
    v a lower bound of ord_t of the step's multiplier."""
    return D - i * v


def _rational(c):
    """c as an exact rational: an int when it is integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _stored(cs, D):
    """cs up to degree D without trailing zeros; cs itself when nothing is
    dropped, never changed in place."""
    if len(cs) > D + 1:
        cs = cs[: D + 1]
    if not cs or cs[-1]:
        return cs
    n = len(cs) - 1
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def quo(x, d):
    """x / d exactly, for x and d int or Fraction: an int when it is one."""
    if type(x) is int and type(d) is int:
        q, r = divmod(x, d)
        if not r:
            return q
    return _rational(Fraction(x, d))


# Each ring class binds the shared operations in its own body rather than
# only inheriting them: perfbench/spans.py wraps entry points through
# `owner.__dict__[attr]`, one wrapper per ring, so each ring's spans stay apart.


class RationalSeries(_Series):
    """Polynomial truncation of an element of Q[[t]] at degree D."""

    __slots__ = ()

    def __init__(self, coeffs, D=None):
        if D is None:
            D = len(coeffs) - 1
        elif len(coeffs) > D + 1:
            coeffs = coeffs[: D + 1]
        if D < 0:
            raise ConfigError("empty coefficient list")
        cs = [c if type(c) is int else _rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.D = D
        self._c = cs

    @classmethod
    def one(cls, D):
        return cls([1], D)

    @classmethod
    def t(cls, D):
        return cls([0, 1], D)

    def _new(self, coeffs, D):
        return RationalSeries(coeffs, D)

    _kept = _new

    @staticmethod
    def _scalar(x):
        return x if isinstance(x, (int, Fraction)) else None

    def _same(self, other):
        pass

    @staticmethod
    def _unit_inverse(c):
        if not c:
            raise InvertError("constant term is zero")
        return quo(1, c)

    _reduce = staticmethod(_rational)

    __add__ = __radd__ = _Series.__add__
    __sub__ = _Series.__sub__
    __mul__ = __rmul__ = _Series.__mul__
    compose, invert, reverse = _Series.compose, _Series.invert, _Series.reverse

    def __repr__(self):
        return "RationalSeries(%s, D=%d)" % (self.coeffs[:6], self.D)

    def log(self):
        """Rational-mode log: constant term must be 1."""
        if self[0] != 1:
            raise DomainError("log requires constant term 1 in rational mode")
        d = self.derivative() * self.invert()
        return RationalSeries([0] + [quo(c, n) for n, c in enumerate(d._c, 1)], self.D)

    def exp(self):
        """Rational-mode exp: constant term must be 0 (`exp_from_theta`)."""
        if self[0] != 0:
            raise DomainError("exp requires zero constant term")
        return RationalSeries(exp_from_theta(self.theta()._c, self.D), self.D)


def exp_from_theta(c, D):
    """Coefficients e_0..e_D of e = exp(x), given those of theta(x) (c_0 = 0).
    e solves theta e = e theta(x), so n e_n = sum_k c_k e_(n-k): the
    recurrence stays in ints whenever theta(x) is integral."""
    out, nonzero = [1], []
    for n in range(1, D + 1):
        if n < len(c) and c[n]:
            nonzero.append((n, c[n]))
        out.append(quo(sum(y * out[n - k] for k, y in nonzero), n))
    return out


# Kronecker substitution: a list of residues mod m becomes one int with a
# slot of w bytes per residue, so one bigint product forms every coefficient
# of a series product.  A slot holds a sum of `terms` products of residues,
# each below (m - 1)^2, so no carry crosses into the next slot.  A slot of at
# most 8 bytes is widened to one machine word, so that a whole residue list
# converts in one struct call.
_PACK_MIN = 12


def _slot_bytes(m, terms):
    """Bytes per slot for sums of `terms` products of residues mod m: at
    least 8, one machine word."""
    return max((2 * (m - 1).bit_length() + terms.bit_length() + 7) // 8, 8)


def _pack(cs, w):
    """The int sum of cs[i] 2^(8wi), for residues that fit in w bytes."""
    if w == 8:
        buf = struct.pack("<%dQ" % len(cs), *cs)
    else:
        buf = b"".join([c.to_bytes(w, "little") for c in cs])
    return int.from_bytes(buf, "little")


def _unpack(x, n, w):
    """Slots 0..n-1 of x, w bytes each."""
    buf = (x & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    if w == 8:
        return list(struct.unpack("<%dQ" % n, buf))
    return [int.from_bytes(buf[i : i + w], "little") for i in range(0, w * n, w)]


def _packed_mul(a, b, n, m):
    """Coefficients 0..n-1 of the product of residue lists a and b mod m,
    unreduced, from one bigint product."""
    w = _slot_bytes(m, min(len(a), len(b)))
    return _unpack(_pack(a, w) * _pack(b, w), n, w)


def pair_partners(items, keep):
    """The pairing of a term product: a map u -> the items of the other
    operand that the term at u is paired with, each a tuple whose first
    entry is its exponent v.  With keep None that is every item; with
    keep = (p, classes) only the v with u + v in one of the exponent classes
    mod p (tuples, reduced here), the items bucketed by class once."""
    if keep is None:
        return lambda u: items
    p, classes = keep
    classes = {tuple(e % p for e in c) for c in classes}
    buckets = {}
    for item in items:
        buckets.setdefault(tuple(e % p for e in item[0]), []).append(item)

    def partners(u):
        out = []
        for c in classes:
            out += buckets.get(tuple((ci - ui) % p for ci, ui in zip(c, u)), ())
        return out

    return partners


def packed_term_mul(a, b, keep=None):
    """Term map of the product of two Laurent polynomials, given as maps
    exponent tuple -> coefficient, or None unless every coefficient is a
    PadicSeries of one degree bound D.  Mismatched contexts raise.  With
    keep = (p, classes) only the terms whose exponents mod p lie in classes
    are formed (`pair_partners`).

    Each coefficient is packed once; each pair of terms is one bigint
    product, added unreduced into the packed sum of its exponent sum; each
    sum is unpacked once and zero sums are dropped.  A sum has at most
    min(len(a), len(b)) pairs, as u fixes v, each contributing at most
    min(la, lb) products of residues per slot, la and lb the longest
    stored lengths, so no carry crosses a slot.

    Each exponent tuple is read once as one int in radix B = 4R + 1, R the
    largest |exponent| of either operand, a's with the offset 2R added to
    every digit: a pair's exponent sum is then one int addition whose
    digits, each a coordinate of the sum plus 2R, lie in [0, 4R] < B, so
    distinct sums have distinct keys, and each output key is read back
    once."""
    if not a or not b:
        return None
    first = next(iter(a.values()))
    if type(first) is not PadicSeries:
        return None
    ctx, D = first.ctx, first.D
    for c in chain(a.values(), b.values()):
        if type(c) is not PadicSeries or c.D != D:
            return None
        if c.ctx is not ctx:
            ctx.same(c.ctx)
    la = max(len(c._c) for c in a.values())
    lb = max(len(c._c) for c in b.values())
    w = _slot_bytes(ctx.modulus, min(len(a), len(b)) * min(la, lb))
    R = max(map(abs, chain.from_iterable(chain(a, b))))
    B = 4 * R + 1
    radix = [B ** i for i in range(len(next(iter(a))))]
    offset = 2 * R * sum(radix)
    partners = pair_partners(
        [(v, sum(map(mul, v, radix)), _pack(c._c, w)) for v, c in b.items()], keep
    )
    sums = {}
    for u, c in a.items():
        x, ku = _pack(c._c, w), offset + sum(map(mul, u, radix))
        for _, kv, y in partners(u):
            k = ku + kv
            sums[k] = sums.get(k, 0) + x * y
    m = min(la + lb - 1, D + 1)
    out = {}
    for k, z in sums.items():
        s = first._new(_unpack(z, m, w), D)
        if s._c:
            uv = []
            for _ in radix:
                k, d = divmod(k, B)
                uv.append(d - 2 * R)
            out[tuple(uv)] = s
    return out


class PadicSeries(_Series):
    """Truncation of an element of Z_p[[t]]: residues mod p^N up to degree D."""

    __slots__ = ("ctx",)

    def __init__(self, ctx, coeffs, D=None):
        """Cuts coeffs at degree D (default len(coeffs) - 1) and reduces
        each coefficient, an int or a Fraction, mod p^N; a p in a
        denominator raises ReductionError."""
        if D is None:
            D = len(coeffs) - 1
        elif len(coeffs) > D + 1:
            coeffs = coeffs[: D + 1]
        if D < 0:
            raise ConfigError("empty coefficient list")
        m = ctx.modulus
        cs = [c % m if type(c) is int else reduce_fraction(c, ctx) for c in coeffs]
        self.ctx, self.D, self._c = ctx, D, _stored(cs, D)

    @classmethod
    def _residues(cls, ctx, cs, D):
        """The series of residues cs in [0, p^N) at degree D, reducing
        nothing; cs is never changed, so it may be another series' list."""
        if D < 0:
            raise ConfigError("empty coefficient list")
        s = object.__new__(cls)
        s.ctx, s.D, s._c = ctx, D, _stored(cs, D)
        return s

    @classmethod
    def zero(cls, ctx, D):
        return cls(ctx, [], D)

    @classmethod
    def one(cls, ctx, D):
        return cls(ctx, [1], D)

    @classmethod
    def t(cls, ctx, D):
        return cls(ctx, [0, 1], D)

    @classmethod
    def constant(cls, ctx, c, D):
        return cls(ctx, [c], D)

    def _new(self, coeffs, D):
        if len(coeffs) > D + 1:
            coeffs = coeffs[: D + 1]
        m = self.ctx.modulus
        return PadicSeries._residues(self.ctx, [c % m for c in coeffs], D)

    def _kept(self, coeffs, D):
        return PadicSeries._residues(self.ctx, coeffs, D)

    def _scalar(self, x):
        # an int passes unreduced: every result is reduced once, by `_new`
        if isinstance(x, int):
            return x
        return reduce_fraction(x, self.ctx) if isinstance(x, Fraction) else None

    def _same(self, other):
        self.ctx.same(other.ctx)

    def _unit_inverse(self, c):
        return unit_inverse(c, self.ctx)

    def _reduce(self, c):
        return c % self.ctx.modulus

    __add__ = __radd__ = _Series.__add__
    __sub__ = _Series.__sub__
    invert, reverse = _Series.invert, _Series.reverse

    def __mul__(self, other):
        """Schoolbook below _PACK_MIN stored residues on either side, where
        the operands are short or mostly zero and the loop skips the zeros;
        one packed bigint product above."""
        a = self._c
        if type(other) is PadicSeries and len(a) >= _PACK_MIN and len(other._c) >= _PACK_MIN:
            b, D = other._c, min(self.D, other.D)
            la, lb = min(len(a), D + 1), min(len(b), D + 1)
            if la >= _PACK_MIN and lb >= _PACK_MIN:
                self._same(other)
                out = _packed_mul(a[:la], b[:lb], min(la + lb - 1, D + 1), self.ctx.modulus)
                return self._new(out, D)
        return _Series.__mul__(self, other)

    __rmul__ = __mul__

    def compose(self, inner, outer_polynomial=False):
        """self(inner) to inner's degree bound D, over the outer coefficients
        that reach degree D (`_outer_terms`).  Once inner stores _PACK_MIN
        residues and at least 3 outer coefficients are kept, by Brent-Kung
        baby steps and giant steps: with k about sqrt(len), the powers
        inner^0..inner^(k-1) are packed once, each block
        sum_j c_(ik+j) inner^j is a sum of bigint scalar multiples unpacked
        once, and Horner's rule in inner^k joins the blocks, block i and its
        Horner step formed only to degree D - i k v (`_step_degree`),
        v = ord_t(inner).  Otherwise by Horner's rule in inner."""
        self._checked_inner(inner, outer_polynomial)
        ctx, D, v = self.ctx, inner.D, _valuation(inner)
        c = self._c[: _outer_terms(len(self._c), D, v)]
        if len(inner._c) < _PACK_MIN or len(c) < 3:
            return _Series.compose(self, inner, outer_polynomial)
        k = isqrt(len(c) - 1) + 1
        powers = [PadicSeries.one(ctx, D), inner]
        while len(powers) <= k:
            powers.append(powers[-1] * inner)
        giant = powers.pop()
        w = _slot_bytes(ctx.modulus, k)
        packed = [_pack(s._c, w) for s in powers]
        blocks = []
        for i in range(0, len(c), k):
            # block i // k is joined by giant^(i // k), of valuation >= (i // k) k v
            Di = _step_degree(D, i // k, k * v)
            block = sum(cj * x for cj, x in zip(c[i : i + k], packed))
            blocks.append(self._new(_unpack(block, Di + 1, w), Di))
        acc = blocks.pop()
        for block in reversed(blocks):
            acc = self._kept(acc._c, block.D) * giant + block
        return acc

    def __repr__(self):
        return "PadicSeries(p=%d, N=%d, %s, D=%d)" % (
            self.ctx.p,
            self.ctx.N,
            self.coeffs[:6],
            self.D,
        )

    def with_precision(self, N):
        """Cut (never extend) precision."""
        if N > self.ctx.N:
            raise ConfigError("cannot raise precision from %d to %d" % (self.ctx.N, N))
        ctx = self.ctx.with_precision(N)
        m = ctx.modulus
        return PadicSeries._residues(ctx, [c % m for c in self._c], self.D)

    def min_excess_ord(self, target):
        """min over coefficients of (ord_p - target); >= 0 means divisible by
        p^target.  That minimum is ord_p of gcd(p^N, residues), so a zero
        residue counts as ord N, and the zero series reads N - target."""
        p, N = self.ctx.p, self.ctx.N
        return ord_p(gcd(self.ctx.modulus, *self._c), p, N) - target

    def divide_exact_p(self, k):
        """Divide every coefficient by p^k; precision drops to N - k."""
        if k == 0:
            return self
        p = self.ctx.p
        pk = p ** k
        if self.ctx.N <= k:
            raise ReductionError("no precision left after dividing by p^%d" % k)
        for i, c in enumerate(self._c):
            if c % pk != 0:
                raise ReductionError("coefficient at t^%d not divisible by p^%d" % (i, k))
        ctx = self.ctx.with_precision(self.ctx.N - k)
        return PadicSeries._residues(ctx, [c // pk for c in self._c], self.D)

    def log(self):
        """p-adic log of 1 + e with every coefficient of e divisible by p:
        the sum of (-1)^(m+1) e^m / m over 1 <= m < mstop, the first m with
        m - floor(log_p m) >= N.  The powers e^m are taken mod p^(N + guard),
        p^guard > mstop, so dividing one by p^ord_p(m) leaves N digits."""
        p, N, D = self.ctx.p, self.ctx.N, self.D
        mstop = 1
        while True:
            lg, q = 0, mstop
            while q >= p:
                q //= p
                lg += 1
            if mstop - lg >= N:
                break
            mstop += 1
        guard = 1
        while p ** guard <= mstop:
            guard += 1
        e = PadicSeries._residues(self.ctx.with_precision(N + guard), self._c, D) - 1
        if any(c % p for c in e._c):
            raise DomainError("log requires all coefficients of a-1 divisible by p")
        acc, em = PadicSeries.zero(self.ctx, D), PadicSeries.one(e.ctx, D)
        for m in range(1, mstop):
            em = em * e
            k = ord_p(m, p, m)
            term = em.divide_exact_p(k).with_precision(N)
            acc = acc + term * Fraction((-1) ** (m + 1), m // p ** k)
        return acc


def padic_log_unit(ctx, u):
    """log of an integer u = 1 mod p, as a residue mod p^N: the constant term
    of PadicSeries.log at D = 0."""
    if (u - 1) % ctx.p:
        raise InvertError("padic_log_unit requires u = 1 mod p")
    return PadicSeries(ctx, [u], 0).log()[0]


def reduce_mod(a, ctx):
    """RationalSeries -> PadicSeries, coefficient-wise; a p in a denominator
    raises ReductionError."""
    if not isinstance(a, RationalSeries):
        raise ConfigError("reduce_mod expects a RationalSeries")
    return PadicSeries(ctx, a._c, a.D)
