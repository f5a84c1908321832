"""Cone expansions, the Cartier operator in rational form, and the
divisibility criterion for the derivative filtration."""

from math import comb

import pytest

from cartier.errors import ExpansionError
from cartier.expansion import (
    ConeExpansion,
    RationalElement,
    cartier_rational,
    cartier_series,
    expand_at_vertex,
    expand_cy,
    fk_membership_defect,
    grading_functional,
)
from cartier.laurent import LaurentPoly
from cartier.padic import PadicContext
from cartier.series import PadicSeries
from cartier.sigma import FrobLift


def _one_poly(n):
    return LaurentPoly.one(n)


def test_geometric_expansion_at_zero():
    # 1/(1-x) = sum x^k at the vertex 0
    f = LaurentPoly(1, {(0,): 1, (1,): -1})
    E = expand_at_vertex(RationalElement(1, _one_poly(1), f), (0,), 8)
    assert all(E.coeff((k,)) == 1 for k in range(9))


def test_geometric_expansion_at_other_vertex():
    # 1/(1-x) = -x^{-1}/(1-x^{-1}) = -sum_{k>=1} x^{-k} at the vertex 1
    f = LaurentPoly(1, {(0,): 1, (1,): -1})
    E = expand_at_vertex(RationalElement(1, _one_poly(1), f), (1,), 8)
    assert all(E.coeff((-k,)) == -1 for k in range(1, 9))
    assert E.coeff((0,)) == 0


def test_pole_order_two_oracle():
    # 1/(1-x)^2 = sum (k+1) x^k
    f = LaurentPoly(1, {(0,): 1, (1,): -1})
    E = expand_at_vertex(RationalElement(2, _one_poly(1), f), (0,), 8)
    assert all(E.coeff((k,)) == k + 1 for k in range(9))


def test_expand_rejects_non_vertex():
    f = LaurentPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    with pytest.raises(ExpansionError):
        expand_at_vertex(RationalElement(1, _one_poly(2), f), (1, 1), 5)


def test_grading_functional_properties():
    ell = grading_functional([(1, 0), (0, 1)], 2)
    assert ell == (1, 1)
    gens = [(1, 0), (1, 1), (2, -1)]
    ell = grading_functional(gens, 2)
    assert all(sum(l * g for l, g in zip(ell, gg)) >= 1 for gg in gens)
    with pytest.raises(ExpansionError):
        grading_functional([(1, 0), (-1, 0)], 2)  # cone not pointed


def test_cartier_series_decimation():
    E = ConeExpansion(1, (0,), (1,), 9, {(0,): 1, (3,): 5, (4,): 7, (6,): 2})
    dec = cartier_series(E, 3)
    assert dec.terms == {(0,): 1, (1,): 5, (2,): 2}
    assert dec.bound == 3


def test_cartier_rational_matches_decimation_1d():
    # Phi(1/(1-x)) = 1/(1-x): the rational-form image expands to the
    # decimation of the direct expansion
    p, N, bound = 3, 4, 6
    ctx = PadicContext(p, N)
    one = PadicSeries.one(ctx, 0)
    f = LaurentPoly(1, {(0,): one, (1,): -one})
    elem = RationalElement(1, LaurentPoly.one(1, one), f)
    direct = cartier_series(expand_at_vertex(elem, (0,), bound * p), p)
    total = None
    for term in cartier_rational(elem, FrobLift.tp(ctx, 0), N, ctx):
        E = expand_at_vertex(term, (0,), bound, ell=direct.ell)
        total = E if total is None else total.add(E)
    assert total.restrict(bound) == direct.restrict(bound)


def _walks(k, u):
    # coefficient of x^u in (x + 1/x)^k
    if (k + u) % 2 or abs(u) > k:
        return 0
    return comb(k, (k + u) // 2)


def test_expand_cy_against_walk_counts():
    ctx = PadicContext(5, 4)
    Dt, sup = 8, 6
    g = LaurentPoly(1, {(1,): 1, (-1,): 1})
    E = expand_cy(g, ctx, Dt, sup)
    for u in range(-sup, sup + 1):
        c = E.coeff((u,), PadicSeries.zero(ctx, Dt))
        for k in range(Dt + 1):
            assert c[k] == _walks(k, u) % ctx.modulus


def test_fk_membership_defect_synthetic():
    ctx = PadicContext(3, 4)

    def scalar(c):
        return PadicSeries(ctx, [c], 0)

    p2 = scalar(9)
    unit = scalar(2)
    good = ConeExpansion(
        1, (0,), None, 9,
        {(1,): unit, (3,): scalar(3), (9,): p2}, mode="cy",
    )
    assert fk_membership_defect(good, 1, ctx) == 0
    # level 2 doubles the requirement: p^2 at u=3, p^4 at u=9
    assert fk_membership_defect(good, 2, ctx) == 2
    good2 = ConeExpansion(
        1, (0,), None, 9,
        {(1,): unit, (3,): p2, (9,): scalar(81)}, mode="cy",
    )
    assert fk_membership_defect(good2, 2, ctx) == 0
    # a unit coefficient at an exponent divisible by p violates the criterion
    bad = ConeExpansion(1, (0,), None, 9, {(3,): unit}, mode="cy")
    assert fk_membership_defect(bad, 1, ctx) == 1
    assert fk_membership_defect(bad, 2, ctx) == 2
    # the origin is exempt
    origin = ConeExpansion(1, (0,), None, 9, {(0,): unit}, mode="cy")
    assert fk_membership_defect(origin, 2, ctx) == 0


def test_restrict_modes():
    E = ConeExpansion(2, (0, 0), (1, 2), 10, {(1, 1): 1, (4, 3): 1})
    assert set(E.restrict(3).terms) == {(1, 1)}
    C = ConeExpansion(2, (0, 0), None, 10, {(1, 1): 1, (-4, 3): 1}, mode="cy")
    assert set(C.restrict(2).terms) == {(1, 1)}
