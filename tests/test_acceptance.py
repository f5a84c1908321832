"""End-to-end acceptance checks for the whole pipeline.

Each test recomputes a documented identity through two independent routes
or against a closed-form oracle; congruence checks assert the reported
excess valuation is non-negative.
"""

import random
from math import comb

import pytest

from cartier import harness
from cartier.catalog import FamilySpec
from cartier.cli import square_example_region
from cartier.errors import DomainError
from cartier.expansion import (
    RationalElement,
    cartier_rational,
    cartier_series,
    expand_at_vertex,
    expand_cy,
    fk_membership_defect,
    grading_functional,
)
from cartier.families import (
    PeriodData,
    ab_coefficients,
    canonical_q,
)
from cartier.frobenius import check_lift_hypothesis, excellent_lift, lambda_pair
from cartier.hasse_witt import hasse_witt_matrix
from cartier.laurent import LaurentPoly
from cartier.padic import PadicContext
from cartier.polytope import newton_polytope
from cartier.series import (
    PadicSeries,
    RationalSeries,
    reduce_mod,
)
from cartier.sigma import FrobLift
from series_oracle import dieudonne_dwork_check

CATALOG = ("simplicial", "hypercubic", "hyperoctahedral", "an")


# -- 1. rational-form Cartier operator vs direct coefficient decimation -----


def _random_f(rng, ctx):
    """Sparse f = 1 + ... whose support keeps the origin a vertex (every
    non-constant exponent is lexicographically positive)."""
    pool = [(a, b) for a in (1, 2) for b in range(-2, 3)] + [(0, 1), (0, 2)]
    pts = rng.sample(pool, rng.randint(3, 5))
    terms = {(0, 0): PadicSeries.one(ctx, 0)}
    for u in pts:
        terms[u] = PadicSeries(ctx, [rng.randrange(1, ctx.modulus)], 0)
    return LaurentPoly(2, terms)


@pytest.mark.parametrize("p", [3, 5])
def test_cartier_rational_matches_decimation(p):
    N, bound = 4, 12
    ctx = PadicContext(p, N)
    rng = random.Random(1000 + p)
    lift = FrobLift.tp(ctx, 0)
    for _ in range(10):
        f = _random_f(rng, ctx)
        gens = [u for u in f.support() if any(u)]
        ell = grading_functional(gens, 2)
        elem = RationalElement(1, LaurentPoly.one(2, PadicSeries.one(ctx, 0)), f)
        direct = cartier_series(expand_at_vertex(elem, (0, 0), bound * p, ell=ell), p)
        total = None
        for term in cartier_rational(elem, lift, N, ctx):
            E = expand_at_vertex(term, (0, 0), bound, ell=ell)
            total = E if total is None else total.add(E)
        assert total is not None
        assert total.restrict(bound) == direct.restrict(bound), f.terms


# -- 2. Hasse-Witt matrices of the square family ----------------------------


def _square_f(ctx, Dt):
    one = PadicSeries.one(ctx, Dt)
    t = PadicSeries.t(ctx, Dt)
    return LaurentPoly(2, {(0, 0): one, (1, 0): -one, (0, 1): -one, (1, 1): one - t})


@pytest.mark.parametrize("p", [3, 5])
def test_square_family_hasse_witt(p):
    Dt = 4 * p
    ctx = PadicContext(p, 5)
    f = _square_f(ctx, Dt)
    P = newton_polytope(f)
    lift = FrobLift.tp(ctx, Dt)
    hw1 = hasse_witt_matrix(f, lift, 1, square_example_region(P), ctx)
    assert hw1.entries == [[PadicSeries.one(ctx, Dt)]]
    hw2 = hasse_witt_matrix(f, lift, 2, square_example_region(P), ctx)
    assert hw2.L_k == 3
    C = comb(2 * p - 2, p - 1)
    # upper-triangular with diagonal 1, -C, -C, -C * sum binom(p-1,m)^2 (1-t)^m
    for i in range(4):
        for j in range(4):
            if j < i:
                assert not hw2.entries[i][j]
    one = PadicSeries.one(ctx, Dt)
    t = PadicSeries.t(ctx, Dt)
    assert hw2.entries[0][0] == one
    assert hw2.entries[1][1] == one * (-C)
    assert hw2.entries[2][2] == one * (-C)
    S = PadicSeries.zero(ctx, Dt)
    pw = one
    for m in range(p):
        S = S + pw * (comb(p - 1, m) ** 2)
        pw = pw * (one - t)
    assert hw2.entries[3][3] == S * (-C)
    # det is divisible by p^3 exactly, and hw = -(C/p)^3 t^{p-1} mod p
    hw = hw2.hw
    assert hw.coeffs[p - 1] % p == (-((C // p) ** 3)) % p
    assert any(c % p for c in hw.coeffs)
    for i in range(p - 1):
        assert hw.coeffs[i] % p == 0


# -- 3. diagonal supercongruences for the square family ---------------------


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("s", [1, 2])
def test_square_family_supercongruences(p, s):
    r = harness.verify_simple_example(p, s)
    assert r.status == harness.PASS, (p, s, r.min_excess)
    assert r.target == 2 * s


# -- 4. fourth-power diagonal (Apery) supercongruence -----------------------


def test_apery_diagonal_supercongruence():
    assert harness._layer_diagonal(1) == 5
    r = harness.verify_straub(5, 1)
    assert not r.conjecture
    assert r.status == harness.PASS


# -- 5. truncation-ratio congruence grid ------------------------------------


def test_truncation_ratio_grid():
    for kind in CATALOG:
        for n in (1, 2, 3):
            family = FamilySpec.by_name(kind, n)
            for p in (3, 5, 7):
                if family.support_index % p == 0:
                    continue
                for s in (1, 2):
                    for m in (1, 2):
                        r = harness.verify_dwork(family, p, s, m)
                        assert r.status == harness.PASS, r.check_id


# -- 6. excellent lift ------------------------------------------------------


def test_excellent_lift_closed_form_and_lambda1():
    p, N, D = 3, 6, 30
    fam = FamilySpec.hypercubic(1)
    periods = PeriodData(fam, D)
    ctx = PadicContext(p, N)
    lift = excellent_lift(fam, periods, ctx)
    q = reduce_mod(canonical_q(periods), ctx)
    qp = q
    for _ in range(p - 1):
        qp = qp * q
    oracle = qp * (qp * qp + 1).invert()
    assert lift.tsigma == oracle
    for kind in CATALOG:
        for n in (1, 2):
            family = FamilySpec.by_name(kind, n)
            for pp in (3, 5, 7):
                try:
                    check_lift_hypothesis(family, pp)
                except DomainError:
                    continue
                Dp = 2 * pp + 4
                per = PeriodData(family, Dp)
                cx = PadicContext(pp, 4)
                lam0, lam1 = lambda_pair(
                    family, per, excellent_lift(family, per, cx), cx
                )
                assert lam1.is_zero(), (kind, n, pp)
                assert lam0.coeffs[0] == 1
                A, B = ab_coefficients(per)
                assert A[0] == 0 and B[0] == 0 and per.W[0] == 1


# -- 7. mirror-map integrality ----------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mirror_map_integrality(p):
    D = 3 * p * p
    ctx = PadicContext(p, 4)
    for kind in CATALOG:
        periods = PeriodData(FamilySpec.by_name(kind, 2), D)
        q = canonical_q(periods)
        reduce_mod(q, ctx)  # raises ReductionError on any p in a denominator
        g = periods.G * periods.F.invert()
        tp = RationalSeries([0] * p + [1], D)
        assert dieudonne_dwork_check(g, tp, ctx, D) == (True, True), kind


# -- 8. compatibility of the Cartier matrix with the connection -------------


@pytest.mark.parametrize("lift_kind", ["tp", "excellent"])
def test_frobenius_structure(lift_kind):
    fam = FamilySpec.hypercubic(2)
    r = harness.verify_frobenius_structure(fam, 3, lift_kind=lift_kind)
    assert r.status == harness.PASS
    rc = harness.verify_frobenius_structure(fam, 3, control=True)
    assert rc.status == harness.PASS and rc.min_excess < 0


# -- 9. Hasse-Witt determinant congruences ----------------------------------


@pytest.mark.parametrize("kind", ["hyperoctahedral", "hypercubic"])
@pytest.mark.parametrize("p", [3, 5])
def test_hw_determinant_congruences(kind, p):
    fam = FamilySpec.by_name(kind, 2)
    r = harness.verify_hw_congruences(fam, p)
    assert r.status == harness.PASS, (kind, p, r.notes)
    assert any("HW^(2) mod p^2" in note for note in r.notes)


# -- 10. modular polynomials of the excellent lift --------------------------


def test_modular_polynomials():
    for p in (3, 5):
        r = harness.verify_modular_polynomial(p)
        assert r.status == harness.PASS, (p, r.min_excess)
    rc = harness.verify_modular_polynomial(3, control=True)
    assert rc.status == harness.PASS and rc.min_excess < 0


# -- 11. conjectural ratio congruence at doubled modulus --------------------


def test_conjecture_reports():
    cases = [
        (FamilySpec.hypercubic(2), 2),
        (FamilySpec.simplicial(2), 3),
    ]
    reports = []
    for fam, m in cases:
        r = harness.verify_super_conjecture(fam, 5, 1, m=m)
        assert r.conjecture
        assert r.min_excess is not None
        assert r.status in (harness.PASS, harness.FAIL)
        reports.append(r)
    # conjecture outcomes never gate the suite
    assert harness.suite_exit_code(reports) == 0


# -- 12. membership in the second derivative filtration ---------------------


def test_theta_squared_membership_square_family():
    p, Dt, bound = 3, 20, 15
    ctx = PadicContext(p, 4)
    f = _square_f(ctx, Dt)
    one = LaurentPoly.one(2, PadicSeries.one(ctx, Dt))
    E = expand_at_vertex(RationalElement(1, one, f), (0, 0), bound)
    E2 = E.map_coeffs(lambda c: c.theta().theta())
    assert fk_membership_defect(E2, 2, ctx) == 0


def test_picard_fuchs_residual_membership():
    p, Dt, sup = 3, 20, 9
    fam = FamilySpec.hypercubic(2)
    ctx = PadicContext(p, 4)
    periods = PeriodData(fam, Dt)
    Arat, Brat = ab_coefficients(periods)
    A = reduce_mod(Arat, ctx)
    B = reduce_mod(Brat, ctx)
    E = expand_cy(fam.g, ctx, Dt, sup)
    E1 = E.map_coeffs(lambda c: c.theta())
    E2 = E.map_coeffs(lambda c: c.theta().theta())
    R = E2.add(E1.map_coeffs(lambda c: c * B), scale=-1)
    R = R.add(E.map_coeffs(lambda c: c * A), scale=-1)
    assert fk_membership_defect(R, 2, ctx) == 0
