"""Frobenius lifts acting on series and polynomial coefficients."""

import pytest

from cartier.errors import DomainError
from cartier.laurent import LaurentPoly
from cartier.padic import PadicContext
from cartier.series import PadicSeries
from cartier.sigma import FrobLift


def test_tp_lift_is_substitution():
    ctx = PadicContext(3, 3)
    lift = FrobLift.tp(ctx, 12)
    s = PadicSeries(ctx, [1, 2, 3, 4], 12)
    got = lift.on_series(s)
    want = PadicSeries(ctx, [1, 0, 0, 2, 0, 0, 3, 0, 0, 4], 12)
    assert got == want
    assert lift.tsigma == PadicSeries(ctx, [0, 0, 0, 1], 12)
    assert lift.vsigma == PadicSeries.one(ctx, 12)


@pytest.mark.parametrize("D", [0, 1, 6, 7, 8, 20])
def test_tp_lift_matches_composition_with_t_to_the_p(D):
    # the slice form of the t^p pull-back against the general composition,
    # with trailing zeros and coefficients above D // p in the input
    ctx = PadicContext(3, 4)
    lift = FrobLift.tp(ctx, D)
    tp = PadicSeries(ctx, [0, 0, 0, 1], D)
    for coeffs in ([], [5], [1, 2, 0, 0], [0, 7, 0, 4, 1, 0, 2, 2, 9], list(range(1, 22))):
        s = PadicSeries(ctx, coeffs, D)
        got = lift.on_series(s)
        assert got.D == D and got == s.compose(tp)
        assert not got._c or got._c[-1]


def _compose_calls(monkeypatch):
    """Count the PadicSeries compositions made from here on."""
    calls = []
    compose = PadicSeries.compose

    def counted(self, *args, **kwargs):
        calls.append(self)
        return compose(self, *args, **kwargs)

    monkeypatch.setattr(PadicSeries, "compose", counted)
    return calls


@pytest.mark.parametrize("p", [3, 7])
def test_a_given_t_to_the_p_takes_the_tp_path(p, monkeypatch):
    # t^sigma = t^p read from a series, as `--lift explicit:FILE` does, pulls
    # back exactly as FrobLift.tp and composes nothing
    ctx = PadicContext(p, 4)
    D = 3 * p * p
    s = PadicSeries(ctx, [(3 * i + 1) % 11 for i in range(D + 1)], D)
    want = FrobLift.tp(ctx, D).on_series(s)
    t = PadicSeries.t(ctx, D)
    calls = _compose_calls(monkeypatch)
    got = FrobLift.from_tsigma(ctx, t ** p).on_series(s)
    assert (got.D, got.coeffs) == (want.D, want.coeffs) and calls == []
    # control: t^sigma = (1 + p) t^p composes, and pulls s back elsewhere
    other = FrobLift.from_tsigma(ctx, t ** p * (1 + p)).on_series(s)
    assert len(calls) == 1 and other != want


def test_tp_theta_ratio_is_p():
    ctx = PadicContext(5, 3)
    lift = FrobLift.tp(ctx, 10)
    assert lift.theta_ratio() == PadicSeries.constant(ctx, 5, 10)


def test_explicit_lift_consistency():
    ctx = PadicContext(3, 4)
    D = 15
    v = PadicSeries(ctx, [1, 3, 9], D)
    lift = FrobLift.from_tsigma(ctx, v.shift(ctx.p))
    assert lift.vsigma == v
    # composing t with the lift gives t^sigma itself
    t = PadicSeries.t(ctx, D)
    assert lift.on_series(t) == lift.tsigma
    # agreement with tp on scalars, ints and degree-0 series alike
    assert lift.on_coeff(7) == 7
    assert lift.on_coeff(PadicSeries(ctx, [7], 0)) == PadicSeries(ctx, [7], 0)


def test_explicit_lift_rejects_non_unit_v():
    ctx = PadicContext(3, 4)
    with pytest.raises(DomainError, match="at degree 3$"):
        FrobLift.from_tsigma(ctx, PadicSeries(ctx, [3, 1], 8).shift(3))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_from_tsigma_accepts_lifts_and_rejects_the_rest(p):
    ctx = PadicContext(p, 4)
    D = 3 * p
    t = PadicSeries.t(ctx, D)
    tp = t ** p
    for ts in (tp * (1 + p), tp * (1 + p * t)):
        assert FrobLift.from_tsigma(ctx, ts).tsigma == ts
    # 2 t^p is not t^p mod p at degree p, t^p + t^(p+1) at degree p + 1
    for ts, degree in ((tp * 2, p), (tp + tp * t, p + 1)):
        with pytest.raises(DomainError, match="at degree %d$" % degree):
            FrobLift.from_tsigma(ctx, ts)


def test_one_over_v_is_built_once():
    ctx = PadicContext(5, 3)
    D = 15
    t = PadicSeries.t(ctx, D)
    lift = FrobLift.from_tsigma(ctx, t ** 5 * (1 + 5 * t))
    assert lift.vinv is lift.vinv
    assert lift.vinv * lift.vsigma == PadicSeries.one(ctx, D)


def test_from_tsigma_recovers_v():
    ctx = PadicContext(3, 4)
    D = 12
    v = PadicSeries(ctx, [1, 6], D)
    ts = v.shift(3)
    lift = FrobLift.from_tsigma(ctx, ts)
    # shift_div pads the top p coefficients with zeros
    assert lift.vsigma.coeffs[: D - 3 + 1] == v.coeffs[: D - 3 + 1]


def test_on_poly_acts_on_coefficients_only():
    ctx = PadicContext(3, 3)
    D = 9
    lift = FrobLift.tp(ctx, D)
    t = PadicSeries.t(ctx, D)
    f = LaurentPoly(2, {(1, 0): t, (0, 1): PadicSeries.one(ctx, D)})
    fs = lift.on_poly(f)
    assert set(fs.terms) == {(1, 0), (0, 1)}
    assert fs.coeff((1, 0)) == lift.tsigma


def test_identity_lift():
    # a lift fixes scalars, so it fixes a polynomial with int coefficients
    lift = FrobLift.tp(PadicContext(3, 3), 12)
    f = LaurentPoly(2, {(0, 0): 1, (1, 0): -2, (0, 1): 7})
    assert lift.on_poly(f) == f
