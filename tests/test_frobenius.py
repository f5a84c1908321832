"""Excellent Frobenius lifts and the 2x2 Cartier matrix."""

from fractions import Fraction
from math import isqrt

import pytest

from cartier import frobenius
from cartier.errors import DomainError, ReductionError, TheoremViolation
from cartier.catalog import FamilySpec
from cartier.families import PeriodData, canonical_q, mirror_map
from cartier.frobenius import (
    check_lift_hypothesis,
    excellent_lift,
    frobenius_matrix,
    lambda_pair,
    reduced_q,
    structure_residual,
)
from cartier.laurent import LaurentPoly
from cartier.padic import PadicContext
from cartier.series import PadicSeries, RationalSeries, reduce_mod
from cartier.sigma import FrobLift
from series_oracle import count_packed_products, lambda_det_excess


def test_lift_hypothesis_guard():
    with pytest.raises(DomainError):
        check_lift_hypothesis(FamilySpec.simplicial(2), 3)
    with pytest.raises(DomainError):
        check_lift_hypothesis(FamilySpec.hypercubic(3), 3)
    check_lift_hypothesis(FamilySpec.hypercubic(2), 3)
    check_lift_hypothesis(FamilySpec.simplicial(2), 5)


def test_excellent_lift_closed_form_n1():
    # for g = x + 1/x the mirror map is t(q) = q/(1+q^2), so the excellent
    # lift is t^sigma = (q^p/(1+q^{2p})) o q(t)
    p, N, D = 3, 6, 30
    fam = FamilySpec.hypercubic(1)
    periods = PeriodData(fam, D)
    ctx = PadicContext(p, N)
    lift = excellent_lift(fam, periods, ctx)
    q = reduce_mod(canonical_q(periods), ctx)
    qp = q
    for _ in range(p - 1):
        qp = qp * q
    one = qp * 0 + 1
    oracle = qp * (one + qp * qp).invert()
    assert lift.tsigma == oracle


def test_excellent_lift_reduces_to_tp_mod_p():
    fam = FamilySpec.hyperoctahedral(2)
    p, D = 5, 20
    periods = PeriodData(fam, D)
    lift = excellent_lift(fam, periods, PadicContext(p, 4))
    for i, c in enumerate(lift.tsigma.coeffs):
        assert (c - (1 if i == p else 0)) % p == 0


def test_excellent_lift_that_is_not_t_to_the_p_mod_p_is_a_violation(monkeypatch):
    # t(q) + t^2 adds (q^p)^2 = t^10 + ... to t^sigma at p = 5 (gamma = 1)
    fam = FamilySpec.hypercubic(2)
    periods = PeriodData(fam, 20)
    ctx = PadicContext(5, 4)
    real = frobenius.reduced_q

    def bent(periods, ctx):
        q, tq = real(periods, ctx)
        return q, tq + PadicSeries.t(ctx, tq.D) ** 2

    monkeypatch.setattr(frobenius, "reduced_q", bent)
    with pytest.raises(TheoremViolation, match="at degree 10$"):
        excellent_lift(fam, periods, ctx)


@pytest.mark.parametrize("kind", ["simplicial", "hypercubic", "hyperoctahedral", "an"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_lambda1_vanishes_for_excellent_lift(kind, p):
    for n in (1, 2):
        fam = FamilySpec.by_name(kind, n)
        try:
            check_lift_hypothesis(fam, p)
        except DomainError:
            continue
        D = 2 * p + 4
        periods = PeriodData(fam, D)
        ctx = PadicContext(p, 4)
        lift = excellent_lift(fam, periods, ctx)
        lam0, lam1 = lambda_pair(fam, periods, lift, ctx)
        assert lam1.is_zero()
        assert lam0.coeffs[0] == 1


def test_lambda1_nonzero_for_tp_lift():
    fam = FamilySpec.hypercubic(2)
    p, D = 3, 18
    periods = PeriodData(fam, D)
    ctx = PadicContext(p, 5)
    lam0, lam1 = lambda_pair(fam, periods, FrobLift.tp(ctx, D), ctx)
    assert not lam1.is_zero()
    # lambda1 is divisible by p (asserted internally, re-checked here)
    assert lam1.min_excess_ord(1) >= 0


@pytest.mark.parametrize("lift_kind", ["tp", "excellent"])
def test_det_Lambda_equals_p_wronskian_ratio(lift_kind):
    fam = FamilySpec.hypercubic(2)
    p, D = 3, 27
    periods = PeriodData(fam, D)
    ctx = PadicContext(p, 6)
    if lift_kind == "tp":
        lift = FrobLift.tp(ctx, D)
    else:
        lift = excellent_lift(fam, periods, ctx)
    data = frobenius_matrix(fam, periods, lift, ctx)
    diff = lambda_det_excess(data)
    assert diff.min_excess_ord(ctx.N) >= 0


def test_structure_residual_vanishes():
    fam = FamilySpec.hyperoctahedral(2)
    p, D = 5, 20
    periods = PeriodData(fam, D)
    ctx = PadicContext(p, 5)
    lift = FrobLift.tp(ctx, D)
    data = frobenius_matrix(fam, periods, lift, ctx)
    R = structure_residual(data)
    for row in R:
        for entry in row:
            assert entry.truncate(D - p).min_excess_ord(ctx.N) >= 0


def test_frobenius_data_lambda0_constant():
    fam = FamilySpec.simplicial(2)
    p, D = 5, 20
    periods = PeriodData(fam, D)
    ctx = PadicContext(p, 4)
    lift = excellent_lift(fam, periods, ctx)
    data = frobenius_matrix(fam, periods, lift, ctx)
    assert data.lambda0.coeffs[0] == 1
    assert data.lambda1.is_zero()
    # gamma = 1, so alpha1 = log(gamma^(p-1)) = 0
    assert data.Lambda0 == [[1, 0], [0, p]]


# alpha = 3 and gamma = -2: alpha1 = log((-2)^4) = 90 mod 5^4
CUSTOM = FamilySpec.custom(LaurentPoly(2, {(0, 0): 3, (1, 0): -2, (0, 1): -2, (-1, -1): -2}))


@pytest.mark.parametrize(
    "fam", [FamilySpec.simplicial(2), CUSTOM], ids=lambda f: "%s-n%d" % (f.kind, f.n)
)
def test_Lambda0_is_the_constant_term_of_Lambda_for_the_tp_lift(fam):
    # not so for the excellent lift when alpha1 != 0: there lambda1 = 0, so
    # the t^0 coefficient of Lambda[0][1] is 0, not alpha1
    p, D = 5, 20
    ctx = PadicContext(p, 4)
    data = frobenius_matrix(fam, PeriodData(fam, D), FrobLift.tp(ctx, D), ctx)
    assert data.Lambda0 == [[entry[0] for entry in row] for row in data.Lambda]
    assert data.Lambda0[0][1] == (90 if fam is CUSTOM else 0)


@pytest.mark.parametrize("kind", ["hypercubic", "hyperoctahedral"])
@pytest.mark.parametrize("p", [5, 7])
def test_reduced_q_reverts_in_Zp_like_over_Q(kind, p):
    # the mirror map reverted over Q and then reduced is the oracle for the
    # reversion done in Z/p^N at full degree; reduced_q reverts only the
    # prefix to degree D // p = 6 that t^sigma reads, and gives its prefix
    periods = PeriodData(FamilySpec.by_name(kind, 2), 6 * p)
    ctx = PadicContext(p, 6)
    full = reduce_mod(canonical_q(periods), ctx).reverse()
    assert full.coeffs == reduce_mod(mirror_map(periods), ctx).coeffs
    q, tq = reduced_q(periods, ctx)
    assert q.D == 6 * p and tq.D == 6
    assert tq.coeffs == full.coeffs[:7]


def _stub_periods(p, D):
    """F = 1, G = t/p: q = t exp(t/p) is not p-integral."""
    periods = PeriodData.__new__(PeriodData)
    periods.D, periods.F = D, RationalSeries.one(D)
    periods.G = RationalSeries([0, Fraction(1, p)], D)
    return periods


def test_reduced_q_rejects_non_integral_q():
    p = 5
    with pytest.raises(ReductionError):
        reduced_q(_stub_periods(p, 12), PadicContext(p, 4))


# Product-count guard on the Frobenius pull-back at the size `lift` runs,
# p = 7 and D = 147.  t^sigma has valuation p, so composition keeps the 22
# outer coefficients c_0..c_(D//p); a Brent-Kung composition of L outer
# coefficients forms at most k - 1 baby-step powers and m - 1 giant steps,
# k = isqrt(L - 1) + 1 and m = ceil(L / k), as packed products: 8 for 22
# coefficients, against 23 for all 148.  The same cut bounds the reversion
# of q, which t^sigma reads to degree D // p = 21: its Newton steps run at
# degrees 1, 2, 5, 10 and 21, and only those at 21 reach the _PACK_MIN = 12
# residues of a packed product, so the last step's composition, its two
# correction products and the final check form at most 2 * 8 + 2 (71
# products when q is reverted to degree 147).


def _brent_kung_products(L):
    k = isqrt(L - 1) + 1
    return k - 1 + (L + k - 1) // k - 1


def test_pull_back_forms_only_the_products_of_the_cut_outer_series(monkeypatch):
    p, D = 7, 147
    fam = FamilySpec.hypercubic(2)
    periods = PeriodData(fam, D)
    ctx = PadicContext(p, 6)
    lift = excellent_lift(fam, periods, ctx)
    F = reduce_mod(periods.F, ctx)
    calls = count_packed_products(monkeypatch)
    Fs = lift.on_series(F)
    assert 0 < len(calls) <= _brent_kung_products(D // p + 1) == 8
    assert Fs == F.truncate(D // p).compose(lift.tsigma)
    # excellent_lift beyond the reversion of q: q^p by square-and-multiply,
    # 4 products for p = 7, and one composition with an inner of valuation p
    del calls[:]
    reduced_q(periods, ctx)
    reversion = len(calls)
    assert 0 < reversion <= 2 * _brent_kung_products(D // p + 1) + 2
    assert max(calls) <= D // p + 1
    del calls[:]
    assert excellent_lift(fam, periods, ctx).tsigma == lift.tsigma
    assert len(calls) - reversion <= 4 + _brent_kung_products(D // p + 1)
