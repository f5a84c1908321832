"""Truncated power series: oracles and algebraic properties."""

import random
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from cartier.errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InvertError,
    ReductionError,
    ReversionError,
    TheoremViolation,
)
import cartier.series as series_module
from cartier.padic import PadicContext, ord_p
from cartier.series import (
    _PACK_MIN,
    PadicSeries,
    RationalSeries,
    _pack,
    _packed_mul,
    _Series,
    _slot_bytes,
    _unpack,
    packed_term_mul,
    reduce_mod,
)
from series_oracle import (
    count_packed_products,
    dieudonne_dwork_check,
    divided_power_reverse,
    double_loop_invert,
    is_p_integral,
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


def _fractions_built(monkeypatch, fn):
    """fn() and the number of Fraction objects constructed while it runs."""
    built = [0]
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return real_new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", staticmethod(counting_new))
        result = fn()
    return result, built[0]


def _fraction_recurrence_exp(self):
    """exp by the recurrence n e_n = sum_k k g_k e_(n-k) in Fractions."""
    e, D = self._c, self.D
    out = [Fraction(1)] + [0] * D
    for n in range(1, D + 1):
        s = Fraction(0)
        for k in range(1, min(n, len(e) - 1) + 1):
            if e[k]:
                s += k * e[k] * out[n - k]
        out[n] = s / n
    return RationalSeries(out, D)


def test_exp_of_integral_theta_builds_no_fraction(monkeypatch):
    # g = 2520 sum_j t^j / j = log (1 - t)^-2520 up to degree 10, as
    # 2520 = lcm(1..10): g, theta(g) = 2520 sum_j t^j and exp(g) are integral
    D = 10
    g = RationalSeries([0] + [2520 // j for j in range(1, D + 1)], D)
    want = [comb(2519 + j, j) for j in range(D + 1)]
    e, built = _fractions_built(monkeypatch, g.exp)
    assert e.coeffs == want and all(type(c) is int for c in e.coeffs)
    assert built == 0
    # negative control: the Fraction recurrence gives the same ints, and the
    # count sees its Fractions
    monkeypatch.setattr(RationalSeries, "exp", _fraction_recurrence_exp)
    e, built = _fractions_built(monkeypatch, g.exp)
    assert e.coeffs == want and all(type(c) is int for c in e.coeffs)
    assert built > 0


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


def _per_coefficient_excess(s, target, cap):
    """min over the residues of min(ord_p, cap) - target, one valuation per
    residue: the form min_excess_ord takes from one gcd, with cap = N."""
    p = s.ctx.p
    return min((ord_p(c, p, cap) for c in s._c), default=cap) - target


def _random_excess_cases(seed=21, count=300):
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        p, N = rng.choice((3, 5, 7)), rng.randint(1, 6)
        ctx = PadicContext(p, N)
        D = rng.randint(0, 12)
        # residues of every valuation 0..N, p^(N-1) multiples included; one
        # case in five is the zero series
        cs = [] if i % 5 == 0 else [
            rng.randrange(p ** N) * p ** rng.randint(0, N) for _ in range(D + 1)
        ]
        cases.append((PadicSeries(ctx, cs, D), rng.randint(0, N + 1)))
    return cases


def test_min_excess_ord_is_the_per_coefficient_minimum():
    cases = _random_excess_cases()
    assert any(s.is_zero() for s, _ in cases)
    assert any(
        any(ord_p(c, s.ctx.p, s.ctx.N) == s.ctx.N - 1 for c in s._c) for s, _ in cases
    )
    for s, target in cases:
        assert s.min_excess_ord(target) == _per_coefficient_excess(s, target, s.ctx.N)


def test_min_excess_ord_comparison_catches_wrong_forms():
    # negative controls: a cap one short (the zero series reads N - 1) and a
    # minimum over the first residue only each differ on some case
    cases = _random_excess_cases()
    assert any(
        s.min_excess_ord(target) != _per_coefficient_excess(s, target, s.ctx.N - 1)
        for s, target in cases
    )
    assert any(
        s.min_excess_ord(target) != _per_coefficient_excess(s.truncate(0), target, s.ctx.N)
        for s, target in cases
    )


def test_min_excess_ord_caps_integer_lists():
    # integer differences are measured as a series mod p^N: a coefficient
    # divisible by p^N reads N - target, the same as an exact zero
    ctx = PadicContext(5, 6)
    assert PadicSeries(ctx, [5 ** 6]).min_excess_ord(4) == 2
    assert PadicSeries(ctx, [7 * 5 ** 8, 0]).min_excess_ord(4) == 2
    assert PadicSeries(ctx, [0]).min_excess_ord(4) == 2
    assert PadicSeries(ctx, [5 ** 6, -5 ** 3]).min_excess_ord(4) == -1


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
# [0, p^N) on both sides, fractions with unit denominators, bools
mixed_coeff = st.one_of(
    st.integers(-3 * _M, 3 * _M),
    st.builds(
        Fraction,
        st.integers(-3 * _M, 3 * _M),
        st.integers(1, 400).filter(lambda d: d % 5),
    ),
    st.booleans(),
)
mixed_coeffs = st.lists(mixed_coeff, min_size=1, max_size=10)


def _residue_oracle(c):
    """c mod p^N through an inverse found by search, not by pow."""
    c = Fraction(c)
    inv = next(i for i in range(_M) if c.denominator * i % _M == 1)
    return c.numerator * inv % _M


def _in_range(s):
    return all(type(c) is int and 0 <= c < _M for c in s.coeffs)


@given(a=mixed_coeffs, b=mixed_coeffs, k=mixed_coeff)
@settings(max_examples=80)
def test_padic_series_reduces_every_coefficient_once(a, b, k):
    x = PadicSeries(_CTX, a)
    y = PadicSeries(_CTX, b)
    assert x.coeffs == [_residue_oracle(c) for c in a]
    assert _in_range(x) and _in_range(y)
    D = min(x.D, y.D)
    ka = _residue_oracle(k)
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
    r_1..r_{n-1}, for a = t + O(t^2).  pw[k][n] = [t^n] r^k is formed a
    degree at a time, as sum_j r_j [t^(n-j)] r^(k-1) with j < n for k >= 2,
    so r_n = -sum_(k>=2) a_k pw[k][n]."""
    D = len(a) - 1
    r = [0, 1] + [0] * (D - 1)
    pw = [[0] * (D + 1) for _ in range(D + 1)]
    pw[1][1] = 1
    for n in range(2, D + 1):
        for k in range(2, n + 1):
            pw[k][n] = reduce(sum(r[j] * pw[k - 1][n - j] for j in range(1, n - k + 2)))
        r[n] = pw[1][n] = reduce(-sum(a[k] * pw[k][n] for k in range(2, n + 1)))
    return r


def _assert_is(s, want):
    assert len(s.coeffs) == s.D + 1 == len(want)
    assert s.coeffs == want
    # an integral coefficient is an int, in both rings
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in s.coeffs)
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


# Kronecker-packed products and Brent-Kung composition against the dense
# oracle: residues up to the worst case p^N - 1, stored lengths on both
# sides of _PACK_MIN, mismatched D and a stored length past the other
# operand's D + 1, and zero operands.


@st.composite
def packed_operand(draw, m):
    """(coefficients, D) of a series mod m that may be long enough to pack."""
    n = draw(st.integers(0, 3 * _PACK_MIN))
    cs = draw(st.lists(st.one_of(st.just(0), st.just(m - 1), st.integers(0, m - 1)),
                       min_size=n, max_size=n))
    return cs, draw(st.integers(max(n - 1, 0), n + _PACK_MIN))


@given(p=st.sampled_from([2, 3, 5, 7, 11]), N=st.integers(1, 12), data=st.data())
@settings(max_examples=150, deadline=None)
def test_packed_mul_kernel_matches_dense_oracle(p, N, data):
    # the kernel sees residue lists only, so p = 2 is covered here although
    # PadicContext takes odd primes
    m = p ** N
    a, _ = data.draw(packed_operand(m))
    b, _ = data.draw(packed_operand(m))
    if a and b:
        n = data.draw(st.integers(1, len(a) + len(b) - 1))
        want = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) % m
                for k in range(n)]
        assert [c % m for c in _packed_mul(a, b, n, m)] == want


@given(p=st.sampled_from([3, 5, 7, 11]), N=st.integers(1, 12), data=st.data())
@settings(max_examples=150, deadline=None)
def test_packed_mul_and_compose_match_dense_oracle(p, N, data):
    ctx = PadicContext(p, N)
    m = ctx.modulus
    x, y = data.draw(packed_operand(m)), data.draw(packed_operand(m))
    s, u = PadicSeries(ctx, *x), PadicSeries(ctx, *y)
    a, b = s.coeffs, u.coeffs
    red = lambda c: c % m
    _assert_is(s * u, _dense_mul(a, b, red))
    _assert_is(u * s, _dense_mul(a, b, red))
    # a stored length longer than the other operand's D + 1
    _assert_is(s * u.truncate(u.D // 2), _dense_mul(a, b[: u.D // 2 + 1], red))
    _assert_is(s.compose(u.shift(1)), _dense_compose(a, ([0] + b)[: len(b)], red))
    # inner(0) != 0 for a polynomial outer series
    _assert_is(s.compose(u + 1, outer_polynomial=True),
               _dense_compose(a, [red(b[0] + 1)] + b[1:], red))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_packed_compose_worst_case_block_sums(p):
    # inner = 1 - t + ... has [t^1] inner^j = -j, so with every outer
    # coefficient p^N - 1 a block's sum at t^1 is nearly k (p^N - 1)^2
    for N in range(1, 13):
        ctx = PadicContext(p, N)
        m = ctx.modulus
        for L in (3 * _PACK_MIN, 81):
            outer = PadicSeries(ctx, [m - 1] * L)
            inner = PadicSeries(ctx, [1, m - 1] + [0] * (_PACK_MIN - 3) + [m - 1], 20)
            _assert_is(outer.compose(inner, outer_polynomial=True),
                       _dense_compose(outer.coeffs, inner.coeffs, lambda c: c % m))


# The slot rule on both sides of one machine word: at 7^8 every slot width
# the kernels ask for rounds up to one 8-byte word and converts through
# struct; at 5^16 slots are 10 to 11 bytes and take the byte path.  Operands
# of all p^N - 1 give the largest slot sums; lengths run from _PACK_MIN to 200.

_WORD_CASES = ((7, 8), (5, 16))
_KERNEL_LENGTHS = (_PACK_MIN, 13, 47, 200)


def _kernel_operands(m, L, seed):
    rng = random.Random(seed)
    return ([m - 1] * L, [rng.randrange(m) for _ in range(L)],
            [rng.choice((0, m - 1)) for _ in range(L - 1)] + [m - 1])


def _schoolbook_compose(outer, inner):
    """outer(inner) by Horner's rule over the shared schoolbook product."""
    acc = PadicSeries.zero(inner.ctx, inner.D)
    for c in reversed(outer.coeffs):
        acc = _Series.__mul__(acc, inner) + c
    return acc


def test_slot_bytes_is_one_word_up_to_eight_bytes():
    assert _slot_bytes(7 ** 8, 200) == _slot_bytes(3, 1) == 8
    assert _slot_bytes(3 ** 17, 200) == 8
    assert _slot_bytes(5 ** 16, _PACK_MIN) == 10 and _slot_bytes(5 ** 16, 200) == 11


@pytest.mark.parametrize("p,N", _WORD_CASES)
@pytest.mark.parametrize("L", _KERNEL_LENGTHS)
def test_packed_mul_matches_schoolbook_across_the_word_rule(p, N, L):
    ctx = PadicContext(p, N)
    m = ctx.modulus
    for a in _kernel_operands(m, L, L):
        for b in _kernel_operands(m, L, L + 1):
            want = _Series.__mul__(PadicSeries(ctx, a), PadicSeries(ctx, b))
            assert [c % m for c in _packed_mul(a, b, L, m)] == want.coeffs
            _assert_is(PadicSeries(ctx, a) * PadicSeries(ctx, b), want.coeffs)
            # a shorter operand, and a product longer than either degree bound
            short = PadicSeries(ctx, b[: _PACK_MIN], 2 * L)
            got = PadicSeries(ctx, a, 2 * L) * short
            _assert_is(got, _Series.__mul__(PadicSeries(ctx, a, 2 * L), short).coeffs)


@pytest.mark.parametrize("p,N", _WORD_CASES)
@pytest.mark.parametrize("L,D", [(_PACK_MIN, _PACK_MIN), (13, 40), (47, 47), (200, 40)])
def test_packed_compose_matches_schoolbook_across_the_word_rule(p, N, L, D):
    ctx = PadicContext(p, N)
    m = ctx.modulus
    for outer in _kernel_operands(m, L, L):
        for inner in _kernel_operands(m, D, D + 1):
            s, u = PadicSeries(ctx, outer), PadicSeries(ctx, [0] + inner[1:], D)
            _assert_is(s.compose(u), _schoolbook_compose(s, u).coeffs)
            u = PadicSeries(ctx, inner, D)
            _assert_is(s.compose(u, outer_polynomial=True), _schoolbook_compose(s, u).coeffs)


@pytest.mark.parametrize("p,N", _WORD_CASES)
@pytest.mark.parametrize("L", _KERNEL_LENGTHS)
def test_packed_term_mul_matches_schoolbook_across_the_word_rule(p, N, L):
    # three pairs of terms land on exponent 0, so a slot holds 3 L products
    ctx = PadicContext(p, N)
    m = ctx.modulus
    xs = [PadicSeries(ctx, cs) for cs in _kernel_operands(m, L, L)]
    ys = [PadicSeries(ctx, cs) for cs in _kernel_operands(m, L, L + 1)]
    a = {(i,): x for i, x in enumerate(xs)}
    b = {(-i,): y for i, y in enumerate(ys)}
    want = {}
    for (u,), x in a.items():
        for (v,), y in b.items():
            c = _Series.__mul__(x, y)
            want[(u + v,)] = want[(u + v,)] + c if (u + v,) in want else c
    got = packed_term_mul(a, b)
    assert got.keys() == {k for k, c in want.items() if c}
    for k, c in got.items():
        _assert_is(c, want[k].coeffs)


@pytest.mark.parametrize("p,N", [(5, 16), (3, 17)])
def test_one_byte_narrower_slot_carries_into_the_next(p, N):
    # negative control of the carry bound: where the bound itself is 8 bytes
    # or more, a slot one byte narrower overflows on all-(p^N - 1) operands
    m, L = p ** N, 200
    a = [m - 1] * L
    want = _Series.__mul__(PadicSeries(PadicContext(p, N), a), PadicSeries(PadicContext(p, N), a))
    w = _slot_bytes(m, L)
    assert [c % m for c in _unpack(_pack(a, w) * _pack(a, w), L, w)] == want.coeffs
    assert [c % m for c in _unpack(_pack(a, w - 1) * _pack(a, w - 1), L, w - 1)] != want.coeffs


def test_one_word_slot_only_widens_the_bound():
    # at 7^8 the bound is 7 bytes, widened to the 8-byte word: the byte path
    # at 7 bytes and the struct path at 8 give the same product
    m, L = 7 ** 8, 200
    a = [m - 1] * L
    assert _slot_bytes(m, L) == 8
    by_word = _unpack(_pack(a, 8) * _pack(a, 8), 2 * L - 1, 8)
    assert _unpack(_pack(a, 7) * _pack(a, 7), 2 * L - 1, 7) == by_word
    assert max(by_word) == L * (m - 1) ** 2 < 2 ** 56


# Newton reversion against the degree-by-degree oracle in both rings, at
# degree bounds whose Newton steps go from d_old to 2 d_old + 1 (3, 7, and
# 147 = 3 p^2 for p = 7, the degree `lift` reverts at) and to 2 d_old (2, 8).


def _random_coefficient(ring, rng):
    if ring is _RINGS[0]:
        return rng.choice((0, rng.randrange(-2 * _M, 2 * _M)))
    return rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 7))))


@pytest.mark.parametrize("ring", _RINGS, ids=["padic", "rational"])
@pytest.mark.parametrize("D", [1, 2, 3, 7, 8, 147])
def test_reverse_matches_degree_by_degree_oracle(ring, D):
    rng, red = random.Random(D), ring.reduce
    for _ in range(1 if D == 147 else 8):
        cs = [0, 1] + [_random_coefficient(ring, rng) for _ in range(D - 1)]
        if D == 147 and ring is _RINGS[1]:
            # integral, so the exact oracle runs in ints
            cs, red = [0, 1] + [rng.randint(-1, 1) for _ in range(D - 1)], int
        a = ring.make(cs, D)
        r = a.reverse()
        assert a.compose(r) == ring.make([0, 1], D)
        _assert_is(r, _dense_reverse(_dense(cs, D, red), red))


def test_reverse_checks_its_newton_steps(monkeypatch):
    # negative control of the last composition: with r' read as 0 no step
    # corrects r = t, and the check at D raises instead of returning it
    monkeypatch.setattr(_Series, "derivative", lambda self: self._new([], self.D))
    for a in (RationalSeries([0, 1, 1], 5), PadicSeries(_CTX, [0, 1, 1], 5)):
        with pytest.raises(TheoremViolation):
            a.reverse()


# Composition keeps only the outer coefficients c_0..c_(D//v) that reach
# degree D, v = ord_t(inner), and forms each Horner step (each Brent-Kung
# giant step) only to the degree it can still reach.  Outer series run 8
# coefficients past D // v, and the result is checked against Horner's rule
# over every outer coefficient: the dense oracle in both rings, and in Z/p^N
# the shared schoolbook product, with inner stored below _PACK_MIN residues
# (Horner) and above (packed Brent-Kung).  At D = 41 no block's degree
# D - i k v reaches 0, so the one-short control below forms every block.

_CUT_D = 41
_COMPOSE_CASES = ("rational", "padic-horner", "padic-packed")


def _cut_operands(case, v, seed):
    """(ring, outer, inner, outer coefficients) with ord_t(inner) = v, a
    unit leading coefficient and outer c_(D//v) = 1."""
    rng = random.Random(seed)
    ring = _RINGS[1] if case == "rational" else _RINGS[0]

    def coeff():
        if ring is _RINGS[1]:
            return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)))
        return rng.randrange(_M)

    top = _PACK_MIN - 1 if case == "padic-horner" else _CUT_D + 1
    inner = [0] * v + [1 + 5 * rng.randrange(3)] + [coeff() for _ in range(top - v - 1)]
    outer = [coeff() for _ in range(_CUT_D // v + 9)]
    outer[_CUT_D // v] = 1
    s, u = ring.make(outer, None), ring.make(inner, _CUT_D)
    if ring is _RINGS[0]:
        assert (len(u._c) >= _PACK_MIN) == (case == "padic-packed")
    return ring, s, u, outer


def _compose_oracle(ring, s, u):
    want = _dense_compose(s.coeffs, u.coeffs, ring.reduce)
    if ring is _RINGS[0]:
        assert _schoolbook_compose(s, u).coeffs == want
    return want


@pytest.mark.parametrize("case", _COMPOSE_CASES)
@pytest.mark.parametrize("v", [1, 2, 3, 7])
def test_compose_keeps_only_the_terms_that_reach_degree_D(case, v):
    ring, s, u, outer = _cut_operands(case, v, v)
    _assert_is(s.compose(u), _compose_oracle(ring, s, u))
    # the zero inner leaves c_0 alone
    zero = ring.make([], _CUT_D)
    _assert_is(s.compose(zero), [ring.reduce(outer[0])] + [0] * _CUT_D)
    _assert_is(s.compose(zero), _compose_oracle(ring, s, zero))
    # v = 0: a polynomial outer series keeps every coefficient
    u0 = u + 1
    _assert_is(s.compose(u0, outer_polynomial=True), _compose_oracle(ring, s, u0))


@pytest.mark.parametrize("case", _COMPOSE_CASES)
def test_compose_cut_one_term_short_fails(monkeypatch, case):
    # negative control of the cut: keeping c_0..c_(D//v - 1) drops
    # c_(D//v) inner^(D//v), whose coefficient at degree v (D//v) is a unit
    monkeypatch.setattr(series_module, "_outer_terms",
                        lambda n, D, v: n if v == 0 else min(n, D // v))
    for v in (1, 2, 3, 7):
        ring, s, u, _ = _cut_operands(case, v, v)
        assert s.compose(u).coeffs != _compose_oracle(ring, s, u)


@pytest.mark.parametrize("case", _COMPOSE_CASES)
def test_compose_step_one_degree_short_fails(monkeypatch, case):
    # negative control of the step degrees: a Horner step (in the packed
    # case, a giant step and its block) formed to D - i v - 1 loses the one
    # coefficient that meets the lowest term of its multiplier at degree D
    monkeypatch.setattr(series_module, "_step_degree", lambda D, i, v: D - i * v - (i > 0))
    for v in (1, 2, 3, 7):
        ring, s, u, _ = _cut_operands(case, v, v)
        assert s.compose(u).coeffs != _compose_oracle(ring, s, u)


def test_compose_forms_the_brent_kung_products_of_the_cut_outer_series(monkeypatch):
    # p = 7, D = 147, inner of valuation 7: the 22 kept coefficients give
    # k = 5, so 4 baby-step powers and 4 giant steps, the last giant step at
    # degree 147 - 4 * 5 * 7 = 7 below _PACK_MIN; all 148 would take 12 + 11
    ctx = PadicContext(7, 6)
    rng = random.Random(7)
    inner = PadicSeries(ctx, [0] * 7 + [1] + [rng.randrange(7 ** 6) for _ in range(140)], 147)
    outer = PadicSeries(ctx, [rng.randrange(7 ** 6) for _ in range(148)])
    calls = count_packed_products(monkeypatch)
    got = outer.compose(inner)
    assert len(calls) == 4 + 3
    assert got == _schoolbook_compose(outer.truncate(21), inner)


# `invert` sums each step in one pass of map; the double loop it replaced,
# which skips zero coefficients, is the oracle: on sparse operands, Fraction
# operands and operands that store fewer than D + 1 coefficients.

@pytest.mark.parametrize("ring", _RINGS, ids=["padic", "rational"])
@pytest.mark.parametrize("D", [0, 1, 5, 27, 60])
def test_invert_matches_the_double_loop(ring, D):
    rng = random.Random(D)
    for density in (1.0, 0.2):
        for stored in (1, 2, D // 3 + 1, D + 1):
            cs = [_random_coefficient(ring, rng) if rng.random() < density else 0
                  for _ in range(stored)]
            cs[0] = 3 if ring is _RINGS[0] else Fraction(3, 2)
            a = ring.make(cs, D)
            _assert_is(a.invert(), double_loop_invert(a).coeffs)
            assert a * a.invert() == ring.make([1], D)


def test_power_is_repeated_multiplication():
    for ring in _RINGS:
        a = ring.make([1, 2, Fraction(1, 3) if ring is _RINGS[1] else 4, 0, 5], 9)
        want = ring.make([1], 9)
        for e in range(12):
            _assert_is(a ** e, want.coeffs)
            want = want * a
    with pytest.raises(TypeError):
        a ** -1
