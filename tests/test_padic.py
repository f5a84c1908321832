"""Z/p^N scalars (int residues and degree-0 PadicSeries) against
independent oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cartier.errors import ConfigError, InvertError, ReductionError
from cartier.padic import (
    PadicContext,
    ord_p,
    reduce_fraction,
    unit_inverse,
)
from cartier.series import PadicSeries, padic_log_unit


def test_context_rejects_bad_primes():
    for p in (2, 4, 9, 1, -3):
        with pytest.raises(ConfigError):
            PadicContext(p, 2)
    with pytest.raises(ConfigError):
        PadicContext(5, 0)


def test_inverse_oracle_mod_25():
    # 2 * 13 = 26 = 1 mod 25
    ctx = PadicContext(5, 2)
    assert unit_inverse(2, ctx) == 13
    assert unit_inverse(-23, ctx) == 13
    assert PadicSeries(ctx, [2], 0).invert() == PadicSeries(ctx, [13], 0)


def test_reduce_fraction_oracle():
    ctx = PadicContext(5, 2)
    # 1/2 mod 25 is 13
    assert reduce_fraction(Fraction(1, 2), ctx) == 13
    # 7/3 mod 25: 3^{-1} = 17, 7*17 = 119 = 19 mod 25
    assert reduce_fraction(Fraction(7, 3), ctx) == 19
    with pytest.raises(ReductionError):
        reduce_fraction(Fraction(1, 10), ctx)


def test_ord_and_divide():
    ctx = PadicContext(3, 5)
    x = PadicSeries(ctx, [54], 0)  # 2 * 27
    assert x.min_excess_ord(0) == 3
    assert PadicSeries(ctx, [0], 0).min_excess_ord(0) == 5
    y = x.divide_exact_p(3)
    assert y[0] == 2 and y.ctx.N == 2
    with pytest.raises(ReductionError):
        PadicSeries(ctx, [5], 0).divide_exact_p(1)


def test_ord_p_is_capped():
    assert ord_p(54, 3, 5) == 3
    assert ord_p(-54, 3, 5) == 3
    assert ord_p(7, 3, 5) == 0
    # ord of 0 is the cap, and so is the ord of any multiple of p^cap
    assert ord_p(0, 3, 5) == 5
    assert ord_p(3 ** 5, 3, 5) == 5
    assert ord_p(2 * 3 ** 9, 3, 5) == 5
    assert ord_p(0, 7, 0) == 0


def test_non_unit_invert_raises():
    ctx = PadicContext(3, 4)
    with pytest.raises(InvertError):
        unit_inverse(6, ctx)
    with pytest.raises(InvertError):
        PadicSeries(ctx, [6], 0).invert()


def _log_oracle(u, p, N):
    """Sum the alternating series for log(1+e) over exact rationals."""
    e = Fraction(u - 1)
    acc = Fraction(0)
    for m in range(1, 4 * N + 8):
        acc += (-1) ** (m + 1) * e ** m / m
    return reduce_fraction(acc, PadicContext(p, N))


# p = 3 at every N up to 9: from N = 8 on, the sum reaches m = 9, whose
# term is divided by p^2
@pytest.mark.parametrize("p,N", [(3, N) for N in range(1, 10)] + [(5, 6), (7, 4)])
def test_log_unit_oracle(p, N):
    ctx = PadicContext(p, N)
    for k in (1, 2, p - 1, p + 3):
        assert padic_log_unit(ctx, 1 + k * p) == _log_oracle(1 + k * p, p, N)


def test_log_unit_requires_one_mod_p():
    ctx = PadicContext(5, 3)
    with pytest.raises(InvertError):
        padic_log_unit(ctx, 2)


@given(a=st.integers(0, 3 ** 4 - 1), b=st.integers(0, 3 ** 4 - 1), c=st.integers(0, 3 ** 4 - 1))
def test_ring_axioms(a, b, c):
    ctx = PadicContext(3, 4)
    x, y, z = (PadicSeries(ctx, [v], 0) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == PadicSeries.zero(ctx, 0)
    assert (x * y)[0] == a * b % ctx.modulus


@given(a=st.integers(0, 5 ** 3 - 1))
def test_unit_invert_roundtrip(a):
    ctx = PadicContext(5, 3)
    if a % 5:
        assert a * unit_inverse(a, ctx) % ctx.modulus == 1
    else:
        with pytest.raises(InvertError):
            unit_inverse(a, ctx)


@given(j=st.integers(0, 5 ** 2 - 1), k=st.integers(0, 5 ** 2 - 1))
def test_log_is_a_homomorphism(j, k):
    ctx = PadicContext(5, 3)
    u, v = 1 + 5 * j, 1 + 5 * k
    log_uv = (padic_log_unit(ctx, u) + padic_log_unit(ctx, v)) % ctx.modulus
    assert padic_log_unit(ctx, u * v) == log_uv
