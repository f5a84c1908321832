"""Series helpers that only the tests call: p-integrality of a rational
series, the double-loop inversion, a counter of packed products,
divided-power reversion, the
Dieudonne-Dwork integrality equivalence, and the determinant of the
Frobenius matrix against p W(t)/W(t^sigma).  No library path uses them."""

from fractions import Fraction

import cartier.series as series_module
from cartier.errors import DomainError, ReversionError
from cartier.series import RationalSeries, reduce_mod


def is_p_integral(a, p, upto=None):
    """True if no denominator of the rational series is divisible by p."""
    cs = a._c if upto is None else a._c[: upto + 1]
    return all(c.denominator % p for c in cs)


def double_loop_invert(a):
    """1/a by the recurrence out_n = -inv0 sum_(k>=1) a_k out_(n-k), one
    Python step per nonzero a_k: the form `invert` had before its sums
    became one pass of map each."""
    cs, D = a._c, a.D
    inv0 = a._unit_inverse(a[0])
    out = [inv0] + [0] * D
    for n in range(1, D + 1):
        s = 0
        for k in range(1, min(n, len(cs) - 1) + 1):
            if cs[k]:
                s += cs[k] * out[n - k]
        out[n] = a._reduce(-s * inv0)
    return a._new(out, D)


def count_packed_products(monkeypatch):
    """A list that grows by one entry per packed bigint series product
    (`_packed_mul`) from here on."""
    calls = []
    packed_mul = series_module._packed_mul

    def counted(a, b, n, m):
        calls.append(n)
        return packed_mul(a, b, n, m)

    monkeypatch.setattr(series_module, "_packed_mul", counted)
    return calls


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
        s = Q[m] * fact[m]
        out.append(int(s) if s.denominator == 1 else s)
    return out


def dieudonne_dwork_check(g, tsigma, ctx, D):
    """Both sides of the integrality equivalence for exp.

    lhs: g(t) - (1/p) g(t^sigma) is p-integral to degree D.
    rhs: exp(g(t)) is p-integral to degree D.
    tsigma may be a RationalSeries (e.g. t^p) or an exact polynomial lift.
    """
    if g[0] != 0:
        raise DomainError("g must have zero constant term")
    p = ctx.p
    g = g.truncate(D)
    ts = tsigma.truncate(D)
    lhs_series = g - g.compose(ts) * Fraction(1, p)
    lhs = is_p_integral(lhs_series, p)
    rhs = is_p_integral(g.exp(), p)
    return lhs, rhs


def lambda_det_excess(data):
    """det(Lambda) - p W(t)/W(t^sigma) as a series mod p^N; the Frobenius
    matrix has determinant p W/W^sigma, so it vanishes."""
    ctx = data.ctx
    L = data.Lambda
    det = L[0][0] * L[1][1] - L[0][1] * L[1][0]
    W = reduce_mod(data.periods.W, ctx)
    Ws = data.lift.on_series(W)
    target = W * Ws.invert() * ctx.p
    return det - target
