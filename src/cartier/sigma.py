"""Frobenius lifts sigma, determined by t^sigma = t^p * v with v a unit."""

from functools import cache

# read as module attributes: a lazily loaded module (see `cartier/__init__.py`)
# runs only when a command calls into it, so the t^p lift runs neither
from . import families, frobenius
from .errors import ConfigError, DomainError
from .series import PadicSeries, RationalSeries


def check_degree(D, p):
    """t^sigma = t^p v has no terms below degree p, so neither v nor the
    Frobenius matrix exists at a degree D < p, and a t^p division leaves
    every coefficient of a Hasse-Witt entry there undetermined."""
    if D < p:
        raise ConfigError("--degree %d is below p=%d: t^sigma = t^p v needs degree >= p" % (D, p))


class FrobLift:
    """A lift of Frobenius acting on coefficients.

    Scalars (elements of Z_p) are fixed; series in t are composed with
    t^sigma, which alone determines the lift.  A given t^sigma becomes a
    lift only through `from_tsigma`, which checks it.
    """

    __slots__ = ("ctx", "tsigma", "vsigma", "_vinv")

    def __init__(self, ctx, tsigma, vsigma):
        self.ctx = ctx
        self.tsigma = tsigma
        self.vsigma = vsigma
        self._vinv = None

    @classmethod
    def tp(cls, ctx, D):
        ts = PadicSeries(ctx, [0] * ctx.p + [1], D)
        v = PadicSeries.one(ctx, D)
        return cls(ctx, ts, v)

    @classmethod
    def from_tsigma(cls, ctx, tsigma):
        """The lift of t^sigma = t^p v; a DomainError names the first degree
        at which t^sigma != t^p mod p, so no such series becomes a lift."""
        p = ctx.p
        for i, c in enumerate(tsigma.coeffs):
            if (c - (1 if i == p else 0)) % p:
                raise DomainError("t^sigma != t^p mod p at degree %d" % i)
        return cls(ctx, tsigma, tsigma.shift_div(p))

    @property
    def vinv(self):
        """1/v, computed on first read and kept."""
        if self._vinv is None:
            self._vinv = self.vsigma.invert()
        return self._vinv

    def on_series(self, s):
        """Apply sigma to an element of Z_p[[t]].  t^sigma = t^p v has
        valuation p, so s(t^sigma) to degree D reads only the coefficients
        s_0..s_(D//p): `compose` keeps those and no others.  When v is 1,
        s(t^p) to s's degree is s with its exponents scaled by p."""
        if not isinstance(s, PadicSeries):
            raise ConfigError("sigma acts on PadicSeries coefficients")
        self.ctx.same(s.ctx)
        if self.vsigma._c == [1]:
            p = self.ctx.p
            c = s._c[: s.D // p + 1]
            out = [0] * (p * len(c) - p + 1)
            out[::p] = c
            return PadicSeries._residues(self.ctx, out, s.D)
        return s.compose(self.tsigma)

    def on_coeff(self, c):
        if isinstance(c, PadicSeries):
            return self.on_series(c)
        if isinstance(c, RationalSeries):
            raise ConfigError("reduce coefficients mod p^N before applying sigma")
        return c  # scalars are fixed

    def on_poly(self, f):
        return f.map_coefficients(self.on_coeff)

    def theta_ratio(self):
        """theta(t^sigma)/t^sigma as a PadicSeries (equals p + theta(v)/v)."""
        return self.vsigma.theta() * self.vinv + self.ctx.p


@cache
def get_lift(kind, family, ctx, Dt):
    """The t^p lift, or the excellent lift of `family` from its periods at
    degree Dt, built once per argument tuple: the one dispatcher of the two,
    for the verify checks and `hw --lift` alike."""
    if kind == "tp":
        return FrobLift.tp(ctx, Dt)
    if kind != "excellent":
        raise ConfigError("unknown lift kind %r" % (kind,))
    return frobenius.excellent_lift(family, families.get_periods(family, Dt), ctx)
