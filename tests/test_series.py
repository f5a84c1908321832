"""Truncated power series: oracles and algebraic properties."""

from collections import namedtuple
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from cartier.errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InvertError,
    ReductionError,
    ReversionError,
)
from cartier.padic import PadicContext, PadicInt
from cartier.series import (
    PadicSeries,
    RationalSeries,
    dieudonne_dwork_check,
    divided_power_reverse,
    is_p_integral,
    reduce_mod,
)

small_ints = st.lists(st.integers(-9, 9), min_size=1, max_size=8)


def test_geometric_series_inverse():
    a = RationalSeries([1, -1], 10)  # 1 - t
    inv = a.invert()
    assert inv.coeffs == [Fraction(1)] * 11
    assert (a * inv) == RationalSeries.one(10)


def test_invert_requires_unit_constant():
    with pytest.raises(InvertError):
        RationalSeries([0, 1], 5).invert()
    ctx = PadicContext(3, 3)
    with pytest.raises(InvertError):
        PadicSeries(ctx, [3, 1], 5).invert()


def test_exp_oracle():
    e = RationalSeries.t(8).exp()
    assert e.coeffs == [Fraction(1, factorial(m)) for m in range(9)]


def test_log_exp_roundtrip_rational():
    g = RationalSeries([0, 1, -2, 3, 0, 5], 12)
    assert g.exp().log() == g


def test_log_oracle_padic_vs_rational():
    # log(1 + p t) has p-integral rational coefficients (-1)^{m+1} p^m / m
    p, N, D = 3, 5, 12
    ctx = PadicContext(p, N)
    rat = RationalSeries([1, p], D).log()
    assert is_p_integral(rat, p)
    assert PadicSeries(ctx, [1, p], D).log() == reduce_mod(rat, ctx)


def test_compose_oracle():
    # (1/(1-t)) o t^2 = 1/(1-t^2)
    outer = RationalSeries([1, -1], 10).invert()
    inner = RationalSeries([0, 0, 1], 10)
    got = outer.compose(inner)
    want = RationalSeries([1, 0, -1], 10).invert()
    assert got == want


def test_compose_nonzero_constant_guarded():
    outer = RationalSeries([1, 1], 5)
    inner = RationalSeries([1, 1], 5)
    with pytest.raises(DivergenceError):
        outer.compose(inner)
    # polynomial outer series are allowed to compose with units
    assert outer.compose(inner, outer_polynomial=True) == RationalSeries([2, 1], 5)


def test_reverse_oracle():
    # reverse of t/(1-t) is t/(1+t)
    a = RationalSeries([0] + [1] * 10, 10)
    r = a.reverse()
    want = RationalSeries([0] + [(-1) ** (m - 1) for m in range(1, 11)], 10)
    assert r == want


def test_reverse_requires_normalized_linear_term():
    with pytest.raises(ReversionError):
        RationalSeries([0, 2, 1], 5).reverse()
    with pytest.raises(ReversionError):
        RationalSeries([1, 1], 5).reverse()


@given(cs=small_ints)
@settings(max_examples=60)
def test_reverse_roundtrip_rational(cs):
    a = RationalSeries([0, 1] + cs, 9)
    r = a.reverse()
    t = RationalSeries.t(9)
    assert a.compose(r) == t
    assert r.compose(a) == t


@given(cs=small_ints)
@settings(max_examples=40)
def test_reverse_roundtrip_padic(cs):
    ctx = PadicContext(5, 3)
    a = PadicSeries(ctx, [0, 1] + cs, 9)
    assert a.compose(a.reverse()) == PadicSeries.t(ctx, 9)


@given(a=small_ints, b=small_ints)
@settings(max_examples=60)
def test_reduce_mod_is_a_ring_map(a, b):
    ctx = PadicContext(3, 4)
    D = 7
    x = RationalSeries(a, D)
    y = RationalSeries(b, D)
    assert reduce_mod(x * y, ctx) == reduce_mod(x, ctx) * reduce_mod(y, ctx)
    assert reduce_mod(x + y, ctx) == reduce_mod(x, ctx) + reduce_mod(y, ctx)


def test_reduce_mod_detects_bad_denominator():
    with pytest.raises(ReductionError):
        reduce_mod(RationalSeries([1, Fraction(1, 3)], 4), PadicContext(3, 2))


@given(a=small_ints, b=small_ints)
@settings(max_examples=60)
def test_theta_is_a_derivation(a, b):
    D = 7
    x = RationalSeries(a, D)
    y = RationalSeries(b, D)
    assert (x * y).theta() == x.theta() * y + x * y.theta()


def test_shift_roundtrip_and_guard():
    ctx = PadicContext(3, 3)
    a = PadicSeries(ctx, [5, 7, 1], 8)
    assert a.shift(2).shift_div(2) == a.truncate(6)
    with pytest.raises(DomainError):
        a.shift_div(1)


def test_shift_div_pads_the_top():
    # the top k coefficients after shift_div are unknown and padded with 0
    ctx = PadicContext(3, 3)
    a = PadicSeries(ctx, [0, 0, 1, 2, 2, 2, 2, 2, 2], 8)
    assert a.shift_div(2).coeffs[-2:] == [0, 0]


def test_min_excess_ord():
    ctx = PadicContext(3, 5)
    a = PadicSeries(ctx, [9, 27, 0], 4)
    assert a.min_excess_ord(1) == 1
    assert a.min_excess_ord(2) == 0
    assert a.min_excess_ord(3) == -1
    assert PadicSeries.zero(ctx, 4).min_excess_ord(2) == 3  # N - target


def test_divide_exact_p():
    ctx = PadicContext(3, 4)
    a = PadicSeries(ctx, [9, 18, 27], 4)
    b = a.divide_exact_p(2)
    assert b.ctx.N == 2 and b.coeffs[:3] == [1, 2, 3]
    with pytest.raises(ReductionError):
        PadicSeries(ctx, [3], 2).divide_exact_p(2)


def test_divided_power_reverse_oracle():
    # P(z) = e^z - 1 has r_m = 1; its reverse log(1+z) has s_m = (-1)^{m-1} (m-1)!
    got = divided_power_reverse([1] * 6)
    want = [(-1) ** (m - 1) * factorial(m - 1) for m in range(1, 7)]
    assert got == want


@given(cs=st.lists(st.integers(-6, 6), min_size=0, max_size=6))
@settings(max_examples=60)
def test_divided_power_reverse_integrality_and_involution(cs):
    r = [1] + cs
    s = divided_power_reverse(r)
    assert all(isinstance(x, int) for x in s)
    assert divided_power_reverse(s) == r


def test_dieudonne_dwork_check_positive():
    # g = log(1/(1-t)): exp(g) = 1/(1-t) is integral and so is g - g(t^p)/p
    D = 30
    g = RationalSeries([1, -1], D).invert().log()
    for p in (3, 5):
        ctx = PadicContext(p, 4)
        tp = RationalSeries([0] * p + [1], D)
        assert dieudonne_dwork_check(g, tp, ctx, D) == (True, True)


def test_dieudonne_dwork_check_negative():
    # g = t: exp(t) is not p-integral and t - t^p/p is not p-integral
    D = 20
    g = RationalSeries.t(D)
    ctx = PadicContext(3, 4)
    tp = RationalSeries([0, 0, 0, 1], D)
    assert dieudonne_dwork_check(g, tp, ctx, D) == (False, False)


_CTX = PadicContext(5, 3)
_M = _CTX.modulus
# coefficients of every kind the constructor accepts: ints far outside
# [0, p^N) on both sides, fractions with unit denominators, residues, bools
mixed_coeff = st.one_of(
    st.integers(-3 * _M, 3 * _M),
    st.builds(
        Fraction,
        st.integers(-3 * _M, 3 * _M),
        st.integers(1, 400).filter(lambda d: d % 5),
    ),
    st.builds(lambda v: PadicInt(_CTX, v), st.integers(-_M, 2 * _M)),
    st.booleans(),
)
mixed_coeffs = st.lists(mixed_coeff, min_size=1, max_size=10)


def _in_range(s):
    return all(type(c) is int and 0 <= c < _M for c in s.coeffs)


@given(a=mixed_coeffs, b=mixed_coeffs, k=mixed_coeff)
@settings(max_examples=80)
def test_padic_series_reduces_every_coefficient_once(a, b, k):
    x = PadicSeries(_CTX, a)
    y = PadicSeries(_CTX, b)
    # the oracle is PadicInt, which reduces each kind on its own
    assert x.coeffs == [PadicInt(_CTX, c).residue for c in a]
    assert _in_range(x) and _in_range(y)
    D = min(x.D, y.D)
    ka = PadicInt(_CTX, k).residue
    xy = [sum(x[i] * y[n - i] for i in range(n + 1)) for n in range(D + 1)]
    for got, want in (
        (x + y, [(x[i] + y[i]) % _M for i in range(D + 1)]),
        (x - y, [(x[i] - y[i]) % _M for i in range(D + 1)]),
        (x * y, [c % _M for c in xy]),
        (x * k, [c * ka % _M for c in x.coeffs]),
        (-x, [-c % _M for c in x.coeffs]),
        (x.theta(), [i * c % _M for i, c in enumerate(x.coeffs)]),
    ):
        assert _in_range(got)
        assert got.coeffs == want


# Trimmed storage against a dense oracle: the coefficients of a series stop
# at its last nonzero one, while D, `coeffs`, indexing and every operation
# behave as on the D + 1 coefficients padded with zeros, in both rings.

sparse_coeff = st.one_of(st.just(0), st.integers(-2 * _M, 2 * _M))

# A coefficient ring as the dense oracle sees it: how a series is built,
# how a coefficient is reduced, the inverse of a unit (None for a non-unit),
# and the coefficients drawn for it.
Ring = namedtuple("Ring", "make reduce inverse coeff")
_RINGS = (
    Ring(lambda cs, D: PadicSeries(_CTX, cs, D), lambda c: c % _M,
         lambda c: pow(c, -1, _M) if c % 5 else None, sparse_coeff),
    Ring(RationalSeries, Fraction, lambda c: 1 / c if c else None,
         st.one_of(st.just(0), st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))),
)


@st.composite
def padded_series(draw, coeff=sparse_coeff):
    """(coefficient list with trailing-zero padding, D or None); D falls
    below and above the list length, and the list may be all zeros."""
    cs = draw(st.lists(coeff, max_size=7)) + [0] * draw(st.integers(0, 4))
    D = draw(st.integers(0, 10))
    if cs and draw(st.booleans()):
        D = None
    return cs, D


def _dense(cs, D, reduce):
    """What the coefficients are: reduced, cut or padded to D + 1 entries."""
    if D is None:
        D = len(cs) - 1
    return [reduce(c) for c in cs[: D + 1]] + [0] * (D + 1 - len(cs))


def _dense_mul(a, b, reduce):
    D = min(len(a), len(b)) - 1
    return [reduce(sum(a[i] * b[n - i] for i in range(n + 1))) for n in range(D + 1)]


def _dense_invert(a, ring):
    inv0 = ring.inverse(a[0])
    out = [inv0]
    for n in range(1, len(a)):
        out.append(ring.reduce(-sum(a[k] * out[n - k] for k in range(1, n + 1)) * inv0))
    return out


def _dense_compose(outer, inner, reduce):
    acc = [0] * len(inner)
    for c in reversed(outer):
        acc = _dense_mul(acc, inner, reduce)
        acc[0] = reduce(acc[0] + c)
    return acc


def _dense_reverse(a, reduce):
    """r with a(r) = t, degree by degree: [t^n] a(r) is r_n plus terms in
    r_1..r_{n-1}, for a = t + O(t^2)."""
    r = [0, 1] + [0] * (len(a) - 2)
    for n in range(2, len(a)):
        r[n] = reduce(-_dense_compose(a, r, reduce)[n])
    return r


def _assert_is(s, want):
    assert len(s.coeffs) == s.D + 1 == len(want)
    assert s.coeffs == want
    assert all(type(c) in (int, Fraction) for c in s.coeffs)
    assert [s[i] for i in range(s.D + 1)] == want
    with pytest.raises(IndexError):
        s[s.D + 1]
    assert bool(s) == any(want) and s.is_zero() == (not any(want))


@given(ring=st.sampled_from(_RINGS), data=st.data(), k=st.integers(-2 * _M, 2 * _M),
       j=st.integers(0, 4), E=st.integers(0, 12))
@settings(max_examples=300)
def test_trimmed_padic_series_matches_dense_oracle(ring, data, k, j, E):
    x, y = data.draw(padded_series(ring.coeff)), data.draw(padded_series(ring.coeff))
    red = ring.reduce
    a, b = _dense(*x, red), _dense(*y, red)
    s, u = ring.make(*x), ring.make(*y)
    _assert_is(s, a)
    _assert_is(u, b)
    D = min(len(a), len(b)) - 1
    _assert_is(s + u, [red(a[i] + b[i]) for i in range(D + 1)])
    _assert_is(s - u, [red(a[i] - b[i]) for i in range(D + 1)])
    _assert_is(s * u, _dense_mul(a, b, red))
    _assert_is(-s, [red(-c) for c in a])
    _assert_is(s * k, [red(c * k) for c in a])
    _assert_is(s.theta(), [red(i * c) for i, c in enumerate(a)])
    _assert_is(s.derivative(), [red(i * c) for i, c in enumerate(a)][1:] + [0])
    _assert_is(s.shift(j), ([0] * j + a)[: len(a)])
    _assert_is(s.truncate(E), a[: E + 1] + [0] * (E - len(a) + 1))
    if any(a[:j]):
        with pytest.raises(DomainError):
            s.shift_div(j)
    else:
        _assert_is(s.shift_div(j), (a[j:] + [0] * j)[: len(a)])
    if ring.inverse(a[0]) is not None:
        _assert_is(s.invert(), _dense_invert(a, ring))
    else:
        with pytest.raises(InvertError):
            s.invert()
    if b[0]:
        with pytest.raises(DivergenceError):
            s.compose(u)
    _assert_is(s.compose(u.shift(1)), _dense_compose(a, ([0] + b)[: len(b)], red))
    _assert_is(s.compose(u, outer_polynomial=True), _dense_compose(a, b, red))
    assert (s == u) == (a[: D + 1] == b[: D + 1])
    # reversion of t + O(t^2), which needs D >= 1
    cs, Dx = x
    ta = _dense([0, 1] + cs, Dx, red)
    if len(ta) == 1:
        with pytest.raises(ReversionError):
            ring.make([0, 1] + cs, Dx).reverse()
    else:
        _assert_is(ring.make([0, 1] + cs, Dx).reverse(), _dense_reverse(ta, red))


@given(x=padded_series(), pad=st.integers(0, 5))
@settings(max_examples=60)
def test_padding_does_not_change_a_padic_series(x, pad):
    cs, D = x
    D = len(cs) if D is None else D
    s, t = PadicSeries(_CTX, cs, D), PadicSeries(_CTX, cs + [0] * pad, D)
    assert s == t and s.coeffs == t.coeffs and s.D == t.D


def test_zero_padic_series():
    z = PadicSeries.zero(_CTX, 4)
    assert not z and z.is_zero() and z.coeffs == [0] * 5
    assert z == PadicSeries(_CTX, [0, 0, 0], 4) == 0
    assert (z * PadicSeries.one(_CTX, 4)).is_zero()
    assert z.compose(PadicSeries.t(_CTX, 6)).coeffs == [0] * 7
    with pytest.raises(InvertError):
        z.invert()
    with pytest.raises(ConfigError):
        PadicSeries(_CTX, [])
