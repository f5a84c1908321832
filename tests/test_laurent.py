"""Sparse Laurent polynomial arithmetic and the coefficient-decimation map."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cartier.errors import ConfigError, DomainError
from cartier.laurent import LaurentPoly, cartier_poly, mul_classes, poly_pow
from cartier.padic import PadicContext
from cartier.series import _PACK_MIN, PadicSeries, _Series, packed_term_mul

exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=6).map(
    lambda d: LaurentPoly(2, d)
)


def test_construction_merges_and_drops_zeros():
    f = LaurentPoly(2, [((0, 1), 2), ((0, 1), -2), ((1, 0), 3)])
    assert f.terms == {(1, 0): 3}
    with pytest.raises(ConfigError):
        LaurentPoly(2, {(0, 0, 1): 1})


def test_mul_oracle():
    # (x + 1/x)^2 = x^2 + 2 + 1/x^2
    f = LaurentPoly(1, {(1,): 1, (-1,): 1})
    assert (f * f).terms == {(2,): 1, (0,): 2, (-2,): 1}


def test_poly_pow_matches_repeated_multiplication():
    f = LaurentPoly(2, {(1, 0): 1, (0, 1): 2, (-1, -1): -1})
    acc = LaurentPoly.one(2)
    for e in range(5):
        assert poly_pow(f, e) == acc
        acc = acc * f
    with pytest.raises(DomainError):
        poly_pow(f, -1)


def test_cartier_poly_oracle():
    f = LaurentPoly(2, {(3, 0): 4, (3, 3): 5, (-3, 6): 7, (1, 3): 9})
    assert cartier_poly(f, 3).terms == {(1, 0): 4, (1, 1): 5, (-1, 2): 7}


@given(f=polys, g=polys, h=polys)
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == LaurentPoly.zero(2)


@given(f=polys, g=polys)
@settings(max_examples=60)
def test_scale_exponents_is_multiplicative(f, g):
    assert (f * g).scale_exponents(3) == f.scale_exponents(3) * g.scale_exponents(3)


@given(f=polys, g=polys)
@settings(max_examples=60)
def test_cartier_projection_formula(f, g):
    # Phi(A * B(x^p)) = Phi(A) * B
    p = 3
    assert cartier_poly(f * g.scale_exponents(p), p) == cartier_poly(f, p) * g


def test_from_text_reads_one_term_per_line():
    f = LaurentPoly(2, {(1, -2): 3, (0, 0): -5})
    assert LaurentPoly.from_text("1,-2 : 3\n\n0,0 : -5\n") == f
    # n is the length of the first exponent, so a shorter later one is an error
    with pytest.raises(ConfigError, match="wrong dimension"):
        LaurentPoly.from_text("1,0 : 1\n1 : 2")
    with pytest.raises(ConfigError, match="empty polynomial literal"):
        LaurentPoly.from_text("\n")


# Products over Z/p^N series coefficients: packed_term_mul against a
# per-pair oracle of schoolbook series products and sums.


def _pairwise_oracle(f, g):
    out = {}
    for u, cu in f.terms.items():
        for v, cv in g.terms.items():
            w = tuple(x + y for x, y in zip(u, v))
            c = _Series.__mul__(cu, cv)
            out[w] = out[w] + c if w in out else c
    return {w: c for w, c in out.items() if c}


def _assert_terms(terms, want):
    assert terms.keys() == want.keys()
    for w, c in terms.items():
        assert type(c) is PadicSeries and c
        assert (c.ctx, c.D, c._c) == (want[w].ctx, want[w].D, want[w]._c)


def _assert_packed_product(f, g):
    want = _pairwise_oracle(f, g)
    packed = packed_term_mul(f.terms, g.terms)
    assert packed is not None
    _assert_terms(packed, want)
    _assert_terms((f * g).terms, want)
    _assert_terms((g * f).terms, want)


@st.composite
def series_poly(draw, ctx, n, D, span=2, max_size=8):
    """A LaurentPoly in n variables with PadicSeries coefficients at D (or
    at any of the degree bounds D when D is a tuple) and exponents in
    -span..span; residues 0, p^N - 1 or any, stored lengths up to 3 _PACK_MIN."""
    m = ctx.modulus
    residue = st.one_of(st.just(0), st.just(m - 1), st.integers(0, m - 1))
    bound = st.sampled_from(D) if isinstance(D, tuple) else st.just(D)
    coeff = st.builds(lambda cs, d: PadicSeries(ctx, cs, d),
                      st.lists(residue, max_size=3 * _PACK_MIN), bound)
    exps = st.tuples(*[st.integers(-span, span)] * n)
    return LaurentPoly(n, draw(st.dictionaries(exps, coeff, min_size=1, max_size=max_size)))


@given(p=st.sampled_from([3, 5, 7, 11]), N=st.integers(1, 8), n=st.integers(1, 3),
       data=st.data())
@settings(max_examples=120, deadline=None)
def test_packed_product_matches_pairwise_oracle(p, N, n, data):
    ctx = PadicContext(p, N)
    D = data.draw(st.sampled_from([0, 3, _PACK_MIN - 1, _PACK_MIN, 2 * _PACK_MIN, 3 * _PACK_MIN]))
    f, g = data.draw(series_poly(ctx, n, D)), data.draw(series_poly(ctx, n, D))
    if f and g:
        _assert_packed_product(f, g)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_packed_product_worst_case_slot_sums(p):
    # K terms on each side with exponents 0..K-1 put K pairs on x^(K-1); with
    # every residue p^N - 1 the slot at t^(L-1) sums K L (p^N - 1)^2
    for N in range(1, 9):
        ctx = PadicContext(p, N)
        m = ctx.modulus
        for K, L in ((2, 3), (5, _PACK_MIN - 1), (8, _PACK_MIN), (17, 2 * _PACK_MIN + 1)):
            s = PadicSeries(ctx, [m - 1] * L, 2 * L)
            f = LaurentPoly(1, {(i,): s for i in range(K)})
            _assert_packed_product(f, f)
            longer = PadicSeries(ctx, [m - 1] * (L + 3), 2 * L)
            _assert_packed_product(f, LaurentPoly(1, {(i,): longer for i in range(K + 2)}))


def test_packed_product_drops_cancelled_monomials():
    # c (1 + x) * c' (1 - x) = c c' (1 - x^2): the x term is c c' + c (p^N - c')
    ctx = PadicContext(5, 4)
    m = ctx.modulus
    c = PadicSeries(ctx, [m - 1, 3] + [m - 2] * (2 * _PACK_MIN), 40)
    c2 = PadicSeries(ctx, [2] * (_PACK_MIN + 3), 40)
    f = LaurentPoly(1, {(0,): c, (1,): c})
    g = LaurentPoly(1, {(0,): c2, (1,): -c2})
    prod = f * g
    assert set(prod.terms) == {(0,), (2,)}
    _assert_packed_product(f, g)
    assert not f * (g - g) and not (f - f) * g


def test_mixed_degree_bounds_take_the_pairwise_loop():
    ctx = PadicContext(7, 3)
    long = [5, 0, 342] + [1] * (2 * _PACK_MIN)
    f = LaurentPoly(2, {(0, 0): PadicSeries(ctx, long, 20), (1, 0): PadicSeries(ctx, long, 30)})
    g = LaurentPoly(2, {(0, 1): PadicSeries(ctx, long[::-1], 25), (-1, 0): PadicSeries(ctx, [3], 30)})
    assert packed_term_mul(f.terms, g.terms) is None
    _assert_terms((f * g).terms, _pairwise_oracle(f, g))
    assert {c.D for c in (f * g).terms.values()} == {20, 25, 30}
    # int coefficients take the loop too
    one = LaurentPoly.one(2)
    assert packed_term_mul(one.terms, g.terms) is None
    assert one * g == g


def test_mixed_contexts_raise():
    a, b = PadicContext(5, 3), PadicContext(5, 4)
    s = [1, 2, 3] * _PACK_MIN
    f = LaurentPoly(1, {(0,): PadicSeries(a, s, 40), (1,): PadicSeries(a, s, 40)})
    g = LaurentPoly(1, {(0,): PadicSeries(b, s, 40)})
    mixed = LaurentPoly(1, {(0,): PadicSeries(a, s, 40), (1,): PadicSeries(b, s, 40)})
    for x, y in ((f, g), (g, f), (mixed, f), (f, mixed)):
        with pytest.raises(ConfigError):
            x * y


# The restricted product: the full product filtered to exponent classes mod p.


def _filtered(terms, p, classes):
    keep = {tuple(e % p for e in c) for c in classes}
    return {w: c for w, c in terms.items() if tuple(e % p for e in w) in keep}


@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 3),
       kind=st.sampled_from(["packed", "int", "mixed D"]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_restricted_product_is_the_filtered_product(p, n, kind, data):
    ctx = PadicContext(7, 2)
    if kind == "int":
        poly = st.dictionaries(st.tuples(*[st.integers(-6, 6)] * n), st.integers(-4, 4),
                               max_size=12).map(lambda d: LaurentPoly(n, d))
    else:
        D = _PACK_MIN if kind == "packed" else (3, _PACK_MIN, 2 * _PACK_MIN)
        poly = series_poly(ctx, n, D, span=6, max_size=12)
    f, g = data.draw(poly), data.draw(poly)
    # classes as any exponent tuples, negative ones and repeats included
    classes = data.draw(st.lists(st.tuples(*[st.integers(-2 * p, 2 * p)] * n), max_size=4))
    got = mul_classes(f, g, p, classes)
    want = _filtered((f * g).terms, p, classes)
    if kind == "int":
        assert got.terms == want
    else:
        _assert_terms(got.terms, want)
    if kind == "packed" and f and g:
        _assert_terms(packed_term_mul(f.terms, g.terms, (p, classes)), want)
    every = list(itertools.product(range(p), repeat=n))
    assert mul_classes(f, g, p, every) == f * g


# The exponent keys of packed_term_mul: one int per exponent tuple in radix
# 4R + 1, R the largest |exponent| of either operand.


@given(p=st.sampled_from([3, 5, 7]), n=st.integers(1, 4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_int_keys_match_the_pairwise_oracle_at_wide_exponents(p, n, data):
    ctx = PadicContext(p, 3)
    f = data.draw(series_poly(ctx, n, _PACK_MIN, span=50))
    g = data.draw(series_poly(ctx, n, _PACK_MIN, span=50))
    if not (f and g):
        return
    _assert_packed_product(f, g)
    classes = data.draw(st.lists(st.tuples(*[st.integers(-2 * p, 2 * p)] * n), max_size=4))
    want = _filtered(_pairwise_oracle(f, g), p, classes)
    _assert_terms(packed_term_mul(f.terms, g.terms, (p, classes)), want)
    _assert_terms(mul_classes(f, g, p, classes).terms, want)


@pytest.mark.parametrize("R", [1, 3, 50])
def test_int_keys_keep_sums_at_plus_and_minus_2R_apart(R):
    # the sums reach 2R and -2R in every coordinate, and (2R, -2R, -2R) and
    # (-2R, -2R + 1, -2R) differ by 4R in one digit and -1 in the next: in
    # radix 4R they would share a key
    ctx = PadicContext(5, 2)
    s = PadicSeries(ctx, list(range(1, _PACK_MIN + 2)), 2 * _PACK_MIN)
    top, bottom, mixed = (R, R, R), (-R, -R, -R), (R, -R, -R)
    f = LaurentPoly(3, dict.fromkeys([top, bottom, mixed, (-R, -R + 1, -R)], s))
    g = LaurentPoly(3, dict.fromkeys([top, bottom, mixed], s))
    product = packed_term_mul(f.terms, g.terms)
    assert {(2 * R,) * 3, (-2 * R,) * 3, (2 * R, -2 * R, -2 * R), (-2 * R, -2 * R + 1, -2 * R)} <= (
        product.keys())
    _assert_packed_product(f, g)
    _assert_packed_product(g, f)
    every = list(itertools.product(range(5), repeat=3))
    _assert_terms(packed_term_mul(f.terms, g.terms, (5, every)), _pairwise_oracle(f, g))


@given(f=polys, g=polys)
@settings(max_examples=60)
def test_subtraction_adds_the_negation_over_int_coefficients(f, g):
    assert f - g == f + (-g)
    assert g - f == -(f - g)


@given(n=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_subtraction_adds_the_negation_over_series_coefficients(n, data):
    ctx = PadicContext(7, 2)
    f = data.draw(series_poly(ctx, n, (3, _PACK_MIN), span=2))
    g = data.draw(series_poly(ctx, n, (3, _PACK_MIN), span=2))
    _assert_terms((f - g).terms, (f + (-g)).terms)
    assert not (f - f)
