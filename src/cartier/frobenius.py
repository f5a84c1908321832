"""Frobenius data for a completely symmetric family: the canonical
coordinate mod p^N, the excellent Frobenius lift, the coefficients
lambda0/lambda1 of the Cartier action on 1/f, and the full 2x2 matrix."""

from typing import NamedTuple

from .errors import DomainError, TheoremViolation
from .families import ab_coefficients, canonical_q
from .series import PadicSeries, padic_log_unit, reduce_mod
from .sigma import FrobLift, check_degree


class FrobeniusData(NamedTuple):
    """The Cartier matrix Lambda with the connection matrices it was built
    from, mod p^N: N = [[0, 1], [A, B]] and
    Ns = N_theta^sigma = (theta(t^sigma)/t^sigma) [[0, 1], [A(t^sigma), B(t^sigma)]]."""

    ctx: object
    family: object
    periods: object
    lift: object
    lambda0: object
    lambda1: object
    Lambda: list
    Lambda0: list
    N: list
    Ns: list


def check_lift_hypothesis(family, p):
    """The excellent lift exists when p does not divide
    gamma * #G * [Z^n : support lattice]."""
    prod = family.gamma * family.group_order * family.support_index
    if prod % p == 0:
        raise DomainError(
            "p=%d divides gamma*#G*index = %d for %s n=%d"
            % (p, prod, family.kind, family.n)
        )


def reduced_q(periods, ctx):
    """q(t) mod p^N to degree D, and the mirror map t(q) mod p^N to degree
    D // p, at least 1 and at most D.  t^sigma composes t(q) with
    gamma^(p-1) q^p, of valuation p, which reads only its coefficients to
    degree D // p (`series._outer_terms`); the cut is exact, as coefficient
    k of a reversion reads only q_1..q_k.  q, exact in Q from the integer
    recurrence of canonical_q, is reduced first and reverted in Z/p^N: the
    reversion of a p-integral t + O(t^2) is p-integral, so the
    ReductionError raised on q is the whole integrality check."""
    q = reduce_mod(canonical_q(periods), ctx)
    return q, q.truncate(min(q.D, max(1, q.D // ctx.p))).reverse()


def excellent_lift(family, periods, ctx):
    """t^sigma = t(gamma^{p-1} q(t)^p), the unique lift with lambda1 = 0,
    with t(q) to the degree D // p that the composition reads (`reduced_q`).
    The theory makes it t^p mod p, so a failed check of `from_tsigma` is a
    TheoremViolation here.  A degree D < p is a ConfigError (`check_degree`)."""
    check_lift_hypothesis(family, ctx.p)
    check_degree(periods.D, ctx.p)
    qp, tqp = reduced_q(periods, ctx)
    p = ctx.p
    tsigma = tqp.compose(qp ** p * pow(family.gamma, p - 1, ctx.modulus))
    try:
        return FrobLift.from_tsigma(ctx, tsigma, kind="excellent")
    except DomainError as exc:
        raise TheoremViolation(str(exc)) from None


def lambda_pair(family, periods, lift, ctx):
    """(lambda0, lambda1) with Phi(1/f) = lambda0/f^sigma + lambda1 theta(1/f)^sigma
    modulo p^2 F_2^sigma.

    lambda1 = F(t) F(t^sigma) W(t^sigma)^{-1} log(w) with
    w = gamma^{p-1} q(t)^p / q(t^sigma), computed from the unit part
    u = q/t so that no logarithm of t appears."""
    p = ctx.p
    F = reduce_mod(periods.F, ctx)
    W = reduce_mod(periods.W, ctx)
    u = reduce_mod(canonical_q(periods).shift_div(1), ctx)
    Fs = lift.on_series(F)
    Ws = lift.on_series(W)
    us = lift.on_series(u)
    w = u ** p * pow(family.gamma, p - 1, ctx.modulus) * lift.vinv * us.invert()
    # v = t^sigma/t^p and u = q/t are zero-padded at the top, so the
    # product is only determined to degree D - p
    w = w.truncate(max(w.D - p, 0))
    for i, c in enumerate(w.coeffs):
        expected = 1 if i == 0 else 0
        if (c - expected) % p:
            raise TheoremViolation("gamma^(p-1) q^p / q^sigma != 1 mod p at degree %d" % i)
    lam1 = F * Fs * Ws.invert() * w.log()
    lam0 = (F - lam1 * lift.on_series(F.theta())) * Fs.invert()
    if lam0[0] != 1 % ctx.modulus:
        raise TheoremViolation("lambda0(0) != 1")
    for c in lam1.coeffs:
        if c % p:
            raise TheoremViolation("lambda1 not divisible by p")
    return lam0, lam1


def frobenius_matrix(family, periods, lift, ctx):
    """The 2x2 matrix Lambda of the Cartier operator on (1/f, theta(1/f)).

    The second row is theta of the first plus the connection correction:
    (mu0, mu1) = (theta lambda0, theta lambda1) + c (lambda0, lambda1) N_theta(t^sigma),
    c = theta(t^sigma)/t^sigma.  A degree D < p is a ConfigError
    (`check_degree`)."""
    check_degree(lift.tsigma.D, ctx.p)
    lam0, lam1 = lambda_pair(family, periods, lift, ctx)
    A, B = (reduce_mod(x, ctx) for x in ab_coefficients(periods))
    c = lift.theta_ratio()
    N = [[PadicSeries.zero(ctx, lam0.D), PadicSeries.one(ctx, lam0.D)], [A, B]]
    Ns = [[PadicSeries.zero(ctx, c.D), c], [c * lift.on_series(A), c * lift.on_series(B)]]
    mu0 = lam0.theta() + lam1 * Ns[1][0]
    mu1 = lam1.theta() + lam0 * c + lam1 * Ns[1][1]
    p = ctx.p
    for co in mu1.coeffs:
        if co % p:
            raise TheoremViolation("mu1 not divisible by p")
    alpha1 = padic_log_unit(ctx, pow(family.gamma, p - 1, ctx.modulus))
    return FrobeniusData(ctx, family, periods, lift, lam0, lam1,
                         [[lam0, lam1], [mu0, mu1]], [[1, alpha1], [0, p]], N, Ns)


def structure_residual(data):
    """N_theta Lambda - Lambda N_theta^sigma - theta(Lambda); zero when the
    Cartier matrix is compatible with the connection."""
    L = data.Lambda

    def mul(X, Y):
        return [
            [X[i][0] * Y[0][j] + X[i][1] * Y[1][j] for j in range(2)]
            for i in range(2)
        ]

    NL = mul(data.N, L)
    LNs = mul(L, data.Ns)
    return [
        [NL[i][j] - LNs[i][j] - L[i][j].theta() for j in range(2)]
        for i in range(2)
    ]
