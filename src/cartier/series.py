"""Degree-truncated power series over exact rationals or Z/p^N.

Two parallel implementations with one calling convention.  Period data is
generated over Fraction coefficients and pushed into PadicSeries through
reduce_mod at the last possible moment, so that any hidden p in a
denominator raises ReductionError instead of corrupting residues.

A RationalSeries stores all D + 1 coefficients.  A PadicSeries stores its
degree bound D explicitly and its residues `_c` only up to the last nonzero
one (the zero series stores []), so the Hasse-Witt polynomials, whose
coefficients have t-degree about 3p under D = 3p^2, cost what they hold.
Its `coeffs` is a fresh padded list of length D + 1, and s[i] reads 0 for
len(_c) <= i <= D.
"""

from fractions import Fraction
from itertools import zip_longest

from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InvertError,
    ReductionError,
    ReversionError,
)
from .padic import PadicContext, PadicInt, reduce_fraction


def _ord_p(m, p):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


class RationalSeries:
    """Polynomial truncation of an element of Q[[t]] at degree D."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, D=None):
        cs = [Fraction(c) for c in coeffs]
        if D is not None:
            cs = cs[: D + 1] + [Fraction(0)] * (D + 1 - len(cs))
        if not cs:
            raise ConfigError("empty coefficient list")
        self.coeffs = cs

    @classmethod
    def zero(cls, D):
        return cls([0], D)

    @classmethod
    def one(cls, D):
        return cls([1], D)

    @classmethod
    def t(cls, D):
        return cls([0, 1], D)

    @classmethod
    def constant(cls, c, D):
        return cls([c], D)

    @property
    def D(self):
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        return self.coeffs[i]

    def truncate(self, D):
        return RationalSeries(self.coeffs, D)

    def _coerce(self, other):
        if isinstance(other, RationalSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalSeries.constant(other, self.D)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = min(self.D, o.D)
        return RationalSeries([self.coeffs[i] + o.coeffs[i] for i in range(D + 1)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = min(self.D, o.D)
        return RationalSeries([self.coeffs[i] - o.coeffs[i] for i in range(D + 1)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalSeries([c * other for c in self.coeffs])
        if not isinstance(other, RationalSeries):
            return NotImplemented
        D = min(self.D, other.D)
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (D + 1)
        for i in range(min(len(a) - 1, D) + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(len(b) - 1, D - i) + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return RationalSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = min(self.D, o.D)
        return self.coeffs[: D + 1] == o.coeffs[: D + 1]

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return "RationalSeries(%s, D=%d)" % (self.coeffs[: min(6, self.D + 1)], self.D)

    def is_zero(self):
        return not any(self.coeffs)

    def invert(self):
        a = self.coeffs
        if a[0] == 0:
            raise InvertError("constant term is zero")
        D = self.D
        inv0 = Fraction(1) / a[0]
        out = [inv0] + [Fraction(0)] * D
        for n in range(1, D + 1):
            s = Fraction(0)
            for k in range(1, min(n, len(a) - 1) + 1):
                if a[k]:
                    s += a[k] * out[n - k]
            out[n] = -s * inv0
        return RationalSeries(out)

    def compose(self, inner, outer_polynomial=False):
        if not isinstance(inner, RationalSeries):
            raise ConfigError("inner must be a RationalSeries")
        deg = len(self.coeffs) - 1
        while deg > 0 and not self.coeffs[deg]:
            deg -= 1
        if inner.coeffs[0] != 0 and not outer_polynomial:
            raise DivergenceError("inner constant term nonzero for a truncated outer series")
        D = inner.D
        acc = RationalSeries.constant(self.coeffs[deg], D)
        for k in range(deg - 1, -1, -1):
            acc = acc * inner + self.coeffs[k]
        return acc

    def reverse(self):
        return _reverse(self)

    def shift(self, k):
        """Multiply by t^k."""
        return RationalSeries([Fraction(0)] * k + self.coeffs, self.D)

    def shift_div(self, k):
        """Divide by t^k; the k lowest coefficients must vanish."""
        if any(self.coeffs[:k]):
            raise DomainError("series not divisible by t^%d" % k)
        return RationalSeries(self.coeffs[k:] + [Fraction(0)] * k, self.D)

    def theta(self):
        """t d/dt."""
        return RationalSeries([i * c for i, c in enumerate(self.coeffs)])

    def derivative(self):
        D = self.D
        cs = [self.coeffs[i + 1] * (i + 1) for i in range(D)]
        return RationalSeries(cs + [Fraction(0)], D)

    def log(self):
        """Rational-mode log: constant term must be 1."""
        if self.coeffs[0] != 1:
            raise DomainError("log requires constant term 1 in rational mode")
        d = self.derivative() * self.invert()
        out = [Fraction(0)] * (self.D + 1)
        for n in range(1, self.D + 1):
            out[n] = d.coeffs[n - 1] / n
        return RationalSeries(out)

    def exp(self):
        """Rational-mode exp: constant term must be 0."""
        e = self.coeffs
        if e[0] != 0:
            raise DomainError("exp requires zero constant term")
        D = self.D
        out = [Fraction(1)] + [Fraction(0)] * D
        for n in range(1, D + 1):
            s = Fraction(0)
            for k in range(1, n + 1):
                if e[k]:
                    s += k * e[k] * out[n - k]
            out[n] = s / n
        return RationalSeries(out)

    def to_text(self):
        return "\n".join(
            "%d:%d/%d" % (i, c.numerator, c.denominator)
            for i, c in enumerate(self.coeffs)
        )

    @classmethod
    def from_text(cls, text):
        pairs = {}
        for line in text.strip().splitlines():
            deg, val = line.split(":")
            pairs[int(deg)] = Fraction(val)
        D = max(pairs)
        return cls([pairs.get(i, Fraction(0)) for i in range(D + 1)])


def _residue(c, ctx):
    """Residue mod p^N of a coefficient that is not a plain int."""
    if isinstance(c, PadicInt):
        ctx.same(c.ctx)
        return c.residue
    if isinstance(c, Fraction):
        return reduce_fraction(c, ctx)
    return c % ctx.modulus


class PadicSeries:
    """Truncation of an element of Z_p[[t]]: residues mod p^N up to degree D,
    stored up to the last nonzero one (see the module docstring)."""

    __slots__ = ("ctx", "D", "_c")

    def __init__(self, ctx, coeffs, D=None):
        """Cuts coeffs at degree D (default len(coeffs) - 1) and reduces
        each coefficient mod p^N once, so the arithmetic below passes its
        int results in unreduced."""
        if D is None:
            D = len(coeffs) - 1
        elif len(coeffs) > D + 1:
            coeffs = coeffs[: D + 1]
        if D < 0:
            raise ConfigError("empty coefficient list")
        m = ctx.modulus
        cs = [c % m if type(c) is int else _residue(c, ctx) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.ctx = ctx
        self.D = D
        self._c = cs

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

    @property
    def coeffs(self):
        """A fresh list of the D + 1 residues, trailing zeros included."""
        return self._c + [0] * (self.D + 1 - len(self._c))

    def coeff(self, i):
        return PadicInt(self.ctx, self[i])

    def __getitem__(self, i):
        """Residue at t^i for 0 <= i <= D."""
        if 0 <= i < len(self._c):
            return self._c[i]
        if 0 <= i <= self.D:
            return 0
        raise IndexError("degree %d outside 0..%d" % (i, self.D))

    def truncate(self, D):
        return PadicSeries(self.ctx, self._c, D)

    def with_precision(self, N):
        """Cut (never extend) precision."""
        if N > self.ctx.N:
            raise ConfigError("cannot raise precision from %d to %d" % (self.ctx.N, N))
        ctx = self.ctx.with_precision(N)
        return PadicSeries(ctx, self._c, self.D)

    def _coerce(self, other):
        if isinstance(other, PadicSeries):
            self.ctx.same(other.ctx)
            return other
        if isinstance(other, (int, Fraction, PadicInt)):
            return PadicSeries.constant(self.ctx, other, self.D)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [a + b for a, b in zip_longest(self._c, o._c, fillvalue=0)]
        return PadicSeries(self.ctx, out, min(self.D, o.D))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [a - b for a, b in zip_longest(self._c, o._c, fillvalue=0)]
        return PadicSeries(self.ctx, out, min(self.D, o.D))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return PadicSeries(self.ctx, [-c for c in self._c], self.D)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicInt)):
            s = PadicInt(self.ctx, other).residue
            return PadicSeries(self.ctx, [c * s for c in self._c], self.D)
        if not isinstance(other, PadicSeries):
            return NotImplemented
        self.ctx.same(other.ctx)
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
        return PadicSeries(self.ctx, out, D)

    __rmul__ = __mul__

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

    def __repr__(self):
        return "PadicSeries(p=%d, N=%d, %s, D=%d)" % (
            self.ctx.p,
            self.ctx.N,
            self.coeffs[:6],
            self.D,
        )

    def is_zero(self):
        return not self._c

    def min_excess_ord(self, target):
        """min over coefficients of (ord_p - target); >= 0 means divisible by p^target."""
        p = self.ctx.p
        best = self.ctx.N - target
        for c in self._c:
            if c == 0:
                continue
            best = min(best, _ord_p(c, p) - target)
        return best

    def invert(self):
        a = self._c
        p, m = self.ctx.p, self.ctx.modulus
        if not a or a[0] % p == 0:
            raise InvertError("constant term is not a p-adic unit")
        D = self.D
        inv0 = pow(a[0], -1, m)
        out = [inv0] + [0] * D
        for n in range(1, D + 1):
            s = 0
            for k in range(1, min(n, len(a) - 1) + 1):
                if a[k]:
                    s += a[k] * out[n - k]
            out[n] = -s * inv0 % m
        return PadicSeries(self.ctx, out, D)

    def compose(self, inner, outer_polynomial=False):
        if not isinstance(inner, PadicSeries):
            raise ConfigError("inner must be a PadicSeries")
        self.ctx.same(inner.ctx)
        if inner[0] != 0 and not outer_polynomial:
            raise DivergenceError("inner constant term nonzero for a truncated outer series")
        c, D = self._c, inner.D
        acc = PadicSeries(self.ctx, c[-1:], D)
        for k in range(len(c) - 2, -1, -1):
            acc = acc * inner + c[k]
        return acc

    def reverse(self):
        return _reverse(self)

    def shift(self, k):
        """Multiply by t^k."""
        return PadicSeries(self.ctx, [0] * k + self._c, self.D)

    def shift_div(self, k):
        """Divide by t^k; the k lowest coefficients must vanish."""
        if any(self._c[:k]):
            raise DomainError("series not divisible by t^%d" % k)
        return PadicSeries(self.ctx, self._c[k:], self.D)

    def theta(self):
        return PadicSeries(self.ctx, [i * c for i, c in enumerate(self._c)], self.D)

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
                raise ReductionError(
                    "coefficient at t^%d not divisible by p^%d" % (i, k), degree=i
                )
        ctx = self.ctx.with_precision(self.ctx.N - k)
        return PadicSeries(ctx, [c // pk for c in self._c], self.D)

    def log(self):
        """p-adic log of 1 + e with every coefficient of e divisible by p."""
        p, N = self.ctx.p, self.ctx.N
        m0 = self.ctx.modulus
        e = [(c - 1) % m0 if i == 0 else c for i, c in enumerate(self.coeffs)]
        if any(c % p for c in e):
            raise DomainError("log requires all coefficients of a-1 divisible by p")
        D = self.D
        # stop index: first m with m - floor(log_p m) >= N
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
        guard += 1
        big = p ** (N + guard)
        em = [1 if i == 0 else 0 for i in range(D + 1)]
        # e has zero constant term? no: only positive valuation. full convolution.
        acc = [0] * (D + 1)
        for mm in range(1, mstop):
            nxt = [0] * (D + 1)
            for i in range(D + 1):
                ei = em[i]
                if not ei:
                    continue
                for j in range(D + 1 - i):
                    if e[j]:
                        nxt[i + j] = (nxt[i + j] + ei * e[j]) % big
            em = nxt
            k = _ord_p(mm, p)
            unit_inv = pow(mm // p ** k, -1, big)
            sgn = 1 if mm % 2 == 1 else -1
            pk = p ** k
            for i in range(D + 1):
                if em[i]:
                    acc[i] = (acc[i] + sgn * (em[i] // pk) * unit_inv) % big
        return PadicSeries(self.ctx, acc)

    def to_text(self):
        tag = " (mod %d^%d)" % (self.ctx.p, self.ctx.N)
        return "\n".join("%d:%d%s" % (i, c, tag) for i, c in enumerate(self.coeffs))


def _reverse(a):
    """Compositional inverse of a = t + O(t^2) by Newton iteration."""
    if a.D == 0 or a[0] != 0 or a[1] != 1:
        # unit linear coefficient other than 1 is not needed anywhere downstream
        raise ReversionError("reversion requires a = t + O(t^2)")
    D = a.D
    if isinstance(a, PadicSeries):
        t_of = lambda d: PadicSeries.t(a.ctx, d)
        aprime = PadicSeries(a.ctx, [i * c for i, c in enumerate(a._c)][1:], D)
    else:
        t_of = lambda d: RationalSeries.t(d)
        aprime = a.derivative()
    r = t_of(D)
    d = 1
    while d < D:
        d = min(2 * d + 1, D)
        rt = r.truncate(d)
        at = a.truncate(d)
        err = at.compose(rt) - t_of(d)
        if not err:
            r = rt
            continue
        corr = err * aprime.truncate(d).compose(rt).invert()
        r = rt - corr
    # final safety pass
    err = a.compose(r) - t_of(D)
    if err:
        r = r - err * aprime.compose(r).invert()
    return r.truncate(D)


def reduce_mod(a, ctx):
    """RationalSeries -> PadicSeries, coefficient-wise."""
    if not isinstance(a, RationalSeries):
        raise ConfigError("reduce_mod expects a RationalSeries")
    out = []
    for i, c in enumerate(a.coeffs):
        if c.denominator % ctx.p == 0:
            raise ReductionError(
                "p=%d divides denominator at degree %d" % (ctx.p, i), degree=i
            )
        out.append(c.numerator * pow(c.denominator, -1, ctx.modulus) % ctx.modulus)
    return PadicSeries(ctx, out)


def is_p_integral(a, p, upto=None):
    """True if no denominator of the rational series is divisible by p."""
    lim = len(a.coeffs) if upto is None else min(upto + 1, len(a.coeffs))
    return all(a.coeffs[i].denominator % p for i in range(lim))


def divided_power_reverse(r_seq):
    """Reverse of P(z) = sum r_m z^m / m! in divided-power form.

    Returns s_1..s_M with Q(z) = sum s_m z^m / m! the compositional inverse.
    Integer inputs give integer outputs.
    """
    r_seq = list(r_seq)
    if not r_seq or Fraction(r_seq[0]) != 1:
        raise ReversionError("divided-power reversion requires r_1 = 1")
    M = len(r_seq)
    fact = [1] * (M + 1)
    for i in range(1, M + 1):
        fact[i] = fact[i - 1] * i
    P = RationalSeries(
        [0] + [Fraction(r_seq[m - 1], fact[m]) for m in range(1, M + 1)], M
    )
    Q = P.reverse()
    out = []
    for m in range(1, M + 1):
        s = Q.coeffs[m] * fact[m]
        out.append(int(s) if s.denominator == 1 else s)
    return out


def dieudonne_dwork_check(g, tsigma, ctx, D):
    """Both sides of the integrality equivalence for exp.

    lhs: g(t) - (1/p) g(t^sigma) is p-integral to degree D.
    rhs: exp(g(t)) is p-integral to degree D.
    tsigma may be a RationalSeries (e.g. t^p) or an exact polynomial lift.
    """
    if g.coeffs[0] != 0:
        raise DomainError("g must have zero constant term")
    p = ctx.p
    g = g.truncate(D)
    ts = tsigma.truncate(D)
    lhs_series = g - g.compose(ts) * Fraction(1, p)
    lhs = is_p_integral(lhs_series, p)
    rhs = is_p_integral(g.exp(), p)
    return lhs, rhs
