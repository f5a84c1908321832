"""Level-k Hasse-Witt matrices, extended-basis division, CY crystals."""

import itertools
from math import comb

import pytest

from cartier import hasse_witt, laurent, series
from cartier.cli import square_example_region
from cartier.errors import ConfigError, DomainError, TheoremViolation
from cartier.exactla import det
from cartier.catalog import FamilySpec
from cartier.hasse_witt import (
    F_k_polynomial,
    cy_hasse_witt,
    hasse_witt_matrix,
    level_points,
)
from cartier.laurent import LaurentPoly, cartier_poly, poly_pow
from cartier.padic import PadicContext
from cartier.polytope import lattice_points, newton_polytope
from cartier.series import PadicSeries
from cartier.sigma import FrobLift
from division_oracle import extended_basis_division


def _every_class(p, n):
    """Shifts covering every exponent class mod p: F_k_polynomial then
    forms the whole F^(k)."""
    return list(itertools.product(range(p), repeat=n))


def test_F1_is_f_to_p_minus_1():
    ctx = PadicContext(5, 3)
    one = PadicSeries.one(ctx, 0)
    f = LaurentPoly(2, {(0, 0): one, (1, 0): -one, (0, 1): 2 * one})
    lift = FrobLift.tp(ctx, 0)
    assert F_k_polynomial(f, lift, 1, ctx, _every_class(5, 2)) == poly_pow(f, ctx.p - 1)


def test_Fk_requires_k_below_p():
    ctx = PadicContext(3, 2)
    one = PadicSeries.one(ctx, 0)
    f = LaurentPoly(1, {(0,): one, (1,): one})
    with pytest.raises(DomainError):
        F_k_polynomial(f, FrobLift.tp(ctx, 0), 3, ctx, _every_class(3, 1))


def test_level1_interval_matrix_is_identity():
    # f = 1 - x on [0,1]: the coefficients of x^{pv-u} in (1-x)^{p-1}
    # are 1 on the diagonal and 0 off it
    for p in (3, 5):
        ctx = PadicContext(p, 3)
        one = PadicSeries.one(ctx, 0)
        f = LaurentPoly(1, {(0,): one, (1,): -one})
        hw = hasse_witt_matrix(f, FrobLift.tp(ctx, 0), 1, (), ctx)
        assert hw.basis == [(0,), (1,)]
        assert hw.L_k == 0
        for i in range(2):
            for j in range(2):
                assert hw.entries[i][j] == PadicSeries(ctx, [1 if i == j else 0], 0)
        assert hw.hw == one


def _square_f(ctx, Dt):
    one = PadicSeries.one(ctx, Dt)
    t = PadicSeries.t(ctx, Dt)
    return LaurentPoly(2, {(0, 0): one, (1, 0): -one, (0, 1): -one, (1, 1): one - t})


def test_square_family_level2_structure():
    p, Dt = 3, 12
    ctx = PadicContext(p, 5)
    f = _square_f(ctx, Dt)
    P = newton_polytope(f)
    region = square_example_region(P)
    lift = FrobLift.tp(ctx, Dt)
    hw = hasse_witt_matrix(f, lift, 2, region, ctx)
    assert hw.L_k == 3
    # upper triangular in level-major order
    for i in range(4):
        for j in range(4):
            if j < i:
                assert not hw.entries[i][j]
    assert hw.entries[0][0] == PadicSeries.one(ctx, Dt)


def _assert_square_det_divisible(monkeypatch, k, N, Dt, L_k):
    """det HW^(k) of the square family at p = 5 and precision N is a nonzero
    multiple of p^L_k, and hw is the quotient."""
    p = 5
    ctx = PadicContext(p, N)
    f = _square_f(ctx, Dt)
    region = square_example_region(newton_polytope(f))
    lift = FrobLift.tp(ctx, Dt)
    hw = hasse_witt_matrix(f, lift, k, region, ctx)
    assert hw.L_k == L_k
    d = det(hw.entries)
    assert d and all(c % p ** L_k == 0 for c in d.coeffs)
    assert hw.hw.coeffs == [c // p ** L_k for c in d.coeffs]

    # negative control: one more unit on the last diagonal entry leaves a
    # determinant that p^L_k does not divide
    def perturbed(rows):
        rows = [list(row) for row in rows]
        rows[-1][-1] = rows[-1][-1] + PadicSeries.one(ctx, Dt)
        return det(rows)

    monkeypatch.setattr(hasse_witt, "det", perturbed)
    with pytest.raises(TheoremViolation, match=r"not divisible by p\^%d" % L_k):
        hasse_witt_matrix(f, lift, k, region, ctx)


def test_square_level3_det_is_divisible_by_p_to_L_k(monkeypatch):
    # 16 is the default precision of `hw` at level 3, L_3 + 3
    _assert_square_det_divisible(monkeypatch, 3, 16, 12, 13)


def test_square_level4_det_is_divisible_by_p_to_L_k(monkeypatch):
    # 38 is the default precision of `hw` at level 4, L_4 + 4; at Dt = 20
    # the determinant is 0 mod p^38 and the control could not fire
    _assert_square_det_divisible(monkeypatch, 4, 38, 30, 34)


def test_extended_basis_division_identity():
    # divide by the square-family f at the vertex (1,1), whose coefficient
    # 1 - t is a unit
    ctx = PadicContext(3, 4)
    Dt = 9
    one = PadicSeries.one(ctx, Dt)
    t = PadicSeries.t(ctx, Dt)
    f = _square_f(ctx, Dt)
    P_delta = newton_polytope(f)
    region = ()  # all of Delta
    b = (1, 1)
    A = LaurentPoly(
        2, {(2, 2): one, (1, 0): 5 * t, (0, 0): one + t, (2, 1): 3 * one}
    )
    Pq, Q = extended_basis_division(A, f, b, 2, region)
    assert Pq * f + Q == A
    # P is supported in (k-1) Delta, Q avoids b + (k-1) Delta
    lower = set(lattice_points(P_delta, 1, region))
    shifted = {(u[0] + b[0], u[1] + b[1]) for u in lower}
    assert set(Pq.terms) <= lower
    assert not (set(Q.terms) & shifted)


def test_extended_basis_division_needs_unit_pivot():
    ctx = PadicContext(3, 4)
    Dt = 6
    t = PadicSeries.t(ctx, Dt)
    one = PadicSeries.one(ctx, Dt)
    f = LaurentPoly(2, {(0, 0): one, (1, 1): t})  # coefficient at b is not a unit
    with pytest.raises(DomainError):
        extended_basis_division(LaurentPoly.one(2, one), f, (1, 1), 2, ())


def test_cy_level1_matches_direct_decimation():
    fam = FamilySpec.hyperoctahedral(2)
    p, Dt = 5, 15
    ctx = PadicContext(p, 4)
    lift = FrobLift.tp(ctx, Dt)
    hw = cy_hasse_witt(fam, lift, 1, ctx, Dt)
    one = PadicSeries.one(ctx, Dt)
    t = PadicSeries.t(ctx, Dt)
    f = LaurentPoly.one(2, one) - fam.g.map_coefficients(lambda c: t * c)
    direct = cartier_poly(F_k_polynomial(f, lift, 1, ctx, _every_class(p, 2)), p).constant_term(0)
    assert hw.entries[0][0] == direct


def test_cy_level2_dets_agree_across_bases():
    # (f, tg) and (1, tg) span the same space; both determinants realize hw^(2)
    fam = FamilySpec.hypercubic(2)
    p, Dt = 3, 18
    ctx = PadicContext(p, 5)
    lift = FrobLift.tp(ctx, Dt)
    hw_omega = cy_hasse_witt(fam, lift, 2, ctx, Dt, basis="omega")
    hw_unit = cy_hasse_witt(fam, lift, 2, ctx, Dt, basis="unit")
    cut = Dt - p  # column 1 entries are only determined below the top p degrees
    assert hw_omega.hw.truncate(cut) == hw_unit.hw.truncate(cut)


@pytest.mark.parametrize("basis", ["omega", "unit"])
def test_cy_terms_missing_from_the_image_read_as_the_zero_series(basis, monkeypatch):
    # every Cartier image emptied: each entry, and the det, is the zero
    # series of the ring, at degree Dt
    fam = FamilySpec.hypercubic(2)
    p, Dt = 5, 15
    ctx = PadicContext(p, 4)
    lift = FrobLift.tp(ctx, Dt)
    monkeypatch.setattr(hasse_witt, "cartier_poly", lambda F, p: LaurentPoly(F.n, {}))
    for k in (1, 2):
        hw = cy_hasse_witt(fam, lift, k, ctx, Dt, basis=basis)
        for s in [e for row in hw.entries for e in row] + [hw.hw]:
            assert type(s) is PadicSeries and s.is_zero() and s.D == Dt


def test_cy_guards():
    fam = FamilySpec.hypercubic(2)
    ctx = PadicContext(3, 3)
    lift = FrobLift.tp(ctx, 9)
    with pytest.raises(ConfigError):
        cy_hasse_witt(fam, lift, 3, ctx, 9)
    ctx5 = PadicContext(5, 3)
    with pytest.raises(ConfigError):
        cy_hasse_witt(fam, FrobLift.tp(ctx5, 9), 0, ctx5, 9)


def test_hw_json_roundtrip():
    import json

    fam = FamilySpec.hyperoctahedral(2)
    ctx = PadicContext(3, 3)
    lift = FrobLift.tp(ctx, 9)
    hw = cy_hasse_witt(fam, lift, 2, ctx, 9)
    obj = json.loads(hw.to_json())
    assert obj["level"] == 2 and obj["prime"] == 3 and obj["L_k"] == 1
    assert len(obj["entries"]) == 2


def _scalar_products(monkeypatch):
    """Record each PadicSeries product whose other operand is not a series."""
    seen = []
    mul = PadicSeries.__mul__

    def spy(self, other):
        if not isinstance(other, PadicSeries):
            seen.append(other)
        return mul(self, other)

    monkeypatch.setattr(PadicSeries, "__mul__", spy)
    monkeypatch.setattr(PadicSeries, "__rmul__", spy)
    return seen


def test_powers_over_series_make_no_scalar_products(monkeypatch):
    p, Dt = 5, 15
    ctx = PadicContext(p, 4)
    f = _square_f(ctx, Dt)
    lift = FrobLift.tp(ctx, Dt)
    # references by repeated products, before any product is recorded
    powers = [None, f]
    for _ in range(p + 1):
        powers.append(powers[-1] * f)
    fsp = lift.on_poly(f).scale_exponents(p)
    P = fsp - powers[p]
    expected_F = {1: powers[p - 1], 2: powers[p - 2] * (fsp + P)}
    seen = _scalar_products(monkeypatch)
    for e in range(1, 7):
        assert poly_pow(f, e) == powers[e]
    for k in (1, 2):
        assert F_k_polynomial(f, lift, k, ctx, _every_class(p, 2)) == expected_F[k]
    assert seen == []
    # the recorder sees a scalar product when one is made
    assert LaurentPoly.one(2) * f == f and seen


def test_point_levels_nested_regions_pass():
    ctx = PadicContext(3, 2)
    P = newton_polytope(_square_f(ctx, 6))
    # the half-open square, the interior and all of Delta
    for region in (square_example_region(P), range(len(P.facets)), ()):
        points, L_k = level_points(P, 3, region)
        levels = [lattice_points(P, k, region) for k in (1, 2, 3)]
        assert L_k == sum(len(levels[2]) - len(levels[l]) for l in (0, 1))
        assert sorted(points) == sorted(levels[2])
        # level-major: each point sits after every point of a lower level
        first = [min(k for k in (1, 2, 3) if u in levels[k - 1]) for u in points]
        assert first == sorted(first)


def test_point_levels_rejects_unnested_region():
    ctx = PadicContext(3, 3)
    one = PadicSeries.one(ctx, 0)
    # f = x - x^2 - xy: its polytope conv{(1,0),(2,0),(1,1)} misses the
    # origin, so (1, 0) is a level-1 point but not a level-2 one
    f = LaurentPoly(2, {(1, 0): one, (2, 0): -one, (1, 1): -one})
    with pytest.raises(ConfigError, match=r"not nested: \(1, 0\) of level 1 is not in level 2"):
        hasse_witt_matrix(f, FrobLift.tp(ctx, 0), 2, (), ctx)


def _shifted_image(F, u, p):
    """Phi(x^u F)."""
    return cartier_poly(LaurentPoly(F.n, {tuple(a + b for a, b in zip(w, u)): c
                                          for w, c in F.terms.items()}), p)


def test_restricted_F_k_keeps_every_cartier_image_it_is_asked_for():
    fam = FamilySpec.hyperoctahedral(2)
    p, Dt = 5, 15
    ctx = PadicContext(p, 4)
    lift = FrobLift.tp(ctx, Dt)
    one = PadicSeries.one(ctx, Dt)
    t = PadicSeries.t(ctx, Dt)
    f = LaurentPoly.one(2, one) - fam.g.map_coefficients(lambda c: t * c)
    shifts = sorted(set(f.terms) | {(2, -1)})
    for k in (1, 2):
        whole = F_k_polynomial(f, lift, k, ctx, _every_class(p, 2))
        part = F_k_polynomial(f, lift, k, ctx, shifts)
        wanted = {tuple(-e % p for e in u) for u in shifts}
        assert part == LaurentPoly(2, {w: c for w, c in whole.terms.items()
                                       if tuple(e % p for e in w) in wanted})
        assert len(part.terms) < len(whole.terms) / 2
        for u in shifts:
            image = _shifted_image(whole, u, p)
            assert image and _shifted_image(part, u, p) == image
            # negative control: without u's class, Phi(x^u F^(k)) changes
            rest = [v for v in shifts if v != u]
            assert _shifted_image(F_k_polynomial(f, lift, k, ctx, rest), u, p) != image


def _pairs_outside_powers(monkeypatch, run):
    """run() and [pairs formed, pairs of the unrestricted products] over the
    Laurent products it makes outside `poly_pow`: the powers of f are the
    same whatever part of F^(k) is formed.  Counts each term's partners as
    the kernels' pair loops draw them from `pair_partners`."""
    counts = [0, 0]
    in_power = [0]
    real_partners, real_pow = series.pair_partners, hasse_witt.poly_pow

    def counting_partners(items, keep):
        partners = real_partners(items, keep)

        def counted(u):
            got = partners(u)
            if not in_power[0]:
                counts[0] += len(got)
                counts[1] += len(items)
            return got

        return counted

    def power(f, e):
        in_power[0] += 1
        try:
            return real_pow(f, e)
        finally:
            in_power[0] -= 1

    with monkeypatch.context() as m:
        m.setattr(series, "pair_partners", counting_partners)
        m.setattr(laurent, "pair_partners", counting_partners)
        m.setattr(hasse_witt, "poly_pow", power)
        result = run()
    return result, counts


def _assert_restricted(counts):
    formed, unrestricted = counts
    assert 0 < formed < unrestricted / 10


def test_cy_level2_forms_under_a_tenth_of_the_pairs(monkeypatch):
    fam = FamilySpec.hyperoctahedral(2)
    p, Dt = 11, 363
    ctx = PadicContext(p, 4)
    lift = FrobLift.tp(ctx, Dt)

    def run():
        return cy_hasse_witt(fam, lift, 2, ctx, Dt)

    hw, counts = _pairs_outside_powers(monkeypatch, run)
    _assert_restricted(counts)
    # negative control: F^(2) formed whole, for every class mod p
    real_F = hasse_witt.F_k_polynomial

    def whole_F(f, lift, k, ctx, shifts):
        return real_F(f, lift, k, ctx, _every_class(ctx.p, f.n))

    monkeypatch.setattr(hasse_witt, "F_k_polynomial", whole_F)
    whole, counts = _pairs_outside_powers(monkeypatch, run)
    with pytest.raises(AssertionError):
        _assert_restricted(counts)
    assert whole.to_json() == hw.to_json()
