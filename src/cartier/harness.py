"""Verification suites: each check recomputes a congruence or structural
identity from first principles and reports the observed excess valuation.

A check PASSes when every tested coefficient is divisible by the target
power of p.  PRECISION_LIMITED is reported when the working degree or
precision cannot decide the question.  Negative controls are separate
reports whose status is PASS exactly when the perturbed input fails.
"""

import json
import time
from fractions import Fraction
from functools import cache
from math import comb
from typing import NamedTuple

# read as module attributes: a lazily loaded module (see `cartier/__init__.py`)
# runs only when a command calls into it
from . import catalog, families, frobenius, hasse_witt, series, sigma
from .errors import ConfigError, TheoremViolation
from .padic import GUARD, PadicContext, ord_p, unit_inverse

PASS = "PASS"
FAIL = "FAIL"
PRECISION_LIMITED = "PRECISION_LIMITED"


class CongruenceReport(NamedTuple):
    """Outcome of one congruence check; min_excess is None exactly when the
    status is PRECISION_LIMITED."""

    check_id: str
    params: dict
    target: int
    min_excess: int | None
    status: str
    runtime: float
    conjecture: bool = False
    notes: tuple = ()

    def to_dict(self, include_runtime=False):
        out = {
            "check": self.check_id,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "target_modulus_exponent": self.target,
            "min_excess_valuation": self.min_excess,
            "status": self.status,
            "conjecture": self.conjecture,
            "notes": list(self.notes),
        }
        if include_runtime:
            out["runtime_seconds"] = round(self.runtime, 3)
        return out

    def __repr__(self):
        return "<%s %s excess=%r>" % (self.status, self.check_id, self.min_excess)


def _report(check_id, params, target, excess, conjecture=False, notes=(), control=False):
    """A check's report, PRECISION_LIMITED when excess is None; `run_check`
    sets its runtime.  A negative control (control=True) passes exactly when
    the perturbed check fails."""
    if excess is None:
        status = PRECISION_LIMITED
    elif control:
        params = dict(params, expected="FAIL")
        notes = (*notes, "negative control: PASS means the perturbed input fails as intended")
        status = PASS if excess < 0 else FAIL
    else:
        status = PASS if excess >= 0 else FAIL
    return CongruenceReport(check_id, params, target, excess, status, 0.0, conjecture, tuple(notes))


# ---------------------------------------------------------------------------
# shared stores (family specs, periods and lifts are pure functions of their
# arguments).  A FamilySpec compares and hashes by its g and group order, so
# specs of any kind with the same g and group order share every store.

# the catalog spec of (kind, n), built once: specs are never changed after
# construction, so the checks share them
@cache
def get_family(kind, n):
    return catalog.FamilySpec.by_name(kind, n)


def __getattr__(name):
    """The period and lift stores under the names `harness.get_periods` and
    `harness.get_lift`, where the per-layer tracer (perfbench/spans.py) finds
    them; read on demand, so a check that reads neither store (`straub`,
    `simple`) runs neither `families` nor `sigma`."""
    if name == "get_periods":
        return families.get_periods
    if name == "get_lift":
        return sigma.get_lift
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ---------------------------------------------------------------------------
# ratio congruences hi(t)/lo(t^sigma) = F(t)/F(t^sigma) mod p^target


@cache
def _lift_and_F(family, lift_kind, ctx, Dt):
    """The lift, F mod p^N and F(t^sigma) at degree Dt, built once per
    argument tuple."""
    lift = sigma.get_lift(lift_kind, family, ctx, Dt)
    F = series.reduce_mod(families.get_periods(family, Dt).F, ctx)
    return lift, F, lift.on_series(F)


def _ratio_excess(family, lift_kind, ctx, Dt, hi, lo, target):
    """Excess over p^target of F sigma(lo) - hi F^sigma, for series hi and
    lo mod p^N at degree Dt.  F^sigma has constant term 1, so it is a unit
    mod t^(Dt+1) and this is the excess of hi - (F/F^sigma) sigma(lo): the
    ratio congruence, with no series inverted."""
    lift, F, Fs = _lift_and_F(family, lift_kind, ctx, Dt)
    return (F * lift.on_series(lo) - hi * Fs).min_excess_ord(target)


def _degree(Dt, default):
    """The working degree of a ratio check: default when Dt is None.  A
    negative degree is a usage error; a degree in [0, the truncation order)
    gives a PRECISION_LIMITED report (`_below_truncation`)."""
    if Dt is None:
        return default
    if Dt < 0:
        raise ConfigError("--degree %d is negative" % Dt)
    return Dt


def _below_truncation(check_id, params, target, Dt, order, conjecture=False, notes=()):
    """The PRECISION_LIMITED report of a check whose working degree Dt lies
    below the truncation order it compares."""
    notes = (*notes, "Dt=%d below the truncation order %d" % (Dt, order))
    return _report(check_id, params, target, None, conjecture=conjecture, notes=notes)


def _truncation_excess(family, p, s, m, lift_kind, Dt, target, bump=0):
    """The ratio excess of the truncations hi = F_{mp^s} and lo =
    F_{mp^{s-1}} of F mod p^N, cut from F's residues at degree Dt >= mp^s.
    bump is added to hi at t^{mp^s} (controls)."""
    ctx = PadicContext(p, target + GUARD)
    F = _lift_and_F(family, lift_kind, ctx, Dt)[1]
    e = m * p ** s
    hi, lo = (F.truncate(k - 1).truncate(Dt) for k in (e, e // p))
    if bump:
        hi = hi + series.PadicSeries.constant(ctx, bump, Dt).shift(e)
    return _ratio_excess(family, lift_kind, ctx, Dt, hi, lo, target)


def verify_dwork(family, p, s, m=1, lift_kind="tp", Dt=None, control=False):
    """F(t)/F(t^sigma) = F_{mp^s}(t)/F_{mp^{s-1}}(t^sigma) mod p^s, the
    ratio congruence of `_ratio_excess` on the truncations of F."""
    if s < 1 or m < 1:
        raise ConfigError("s >= 1 and m >= 1 required")
    Dt = _degree(Dt, 3 * p * p)
    params = dict(family=family.kind, n=family.n, p=p, s=s, m=m, lift=lift_kind, Dt=Dt)
    check_id = "dwork/%s-n%d-p%d-s%d-m%d-%s" % (
        family.kind, family.n, p, s, m, lift_kind
    )
    if Dt < m * p ** s:
        return _below_truncation(check_id, params, s, Dt, m * p ** s)
    if not control:
        excess = _truncation_excess(family, p, s, m, lift_kind, Dt, s)
        return _report(check_id, params, s, excess)
    # negative control: perturb the upper truncation.  Extending it by one
    # term only works when the next coefficient is not itself divisible by
    # p^s, which the congruence forces whenever f_1 = 0; fall back to an
    # explicit bump of size p^{s-1} in that case.
    e = m * p ** s
    nxt = families.get_periods(family, Dt).F[e]
    notes = []
    if nxt != 0 and ord_p(nxt, p, s) < s:
        bump = nxt
        notes.append("control: truncation extended by the t^%d term" % e)
    else:
        bump = p ** (s - 1)
        notes.append(
            "control: extending the truncation is invisible mod p^%d here "
            "(the next coefficients are themselves divisible); bumped the "
            "t^%d coefficient by p^%d instead" % (s, e, s - 1)
        )
    bad = _truncation_excess(family, p, s, m, lift_kind, Dt, s, bump=bump)
    return _report(check_id + "!truncation-control", params, s, bad, notes=notes, control=True)


def verify_super_conjecture(family, p, s, m=None, Dt=None, lift_kind="excellent"):
    """The same ratio congruence at modulus p^{2s} under the excellent lift.

    This is reported, never asserted: the source statement is conjectural.
    The tp-lift variant records that excellence appears to matter.  The
    truncation order m defaults to n + 1 for simplicial and 2 otherwise, the
    values the grids use; the check takes the congruence to hold there.
    Other m are conjecture only: a scan over the catalog for n <= 4, p <= 7
    and m <= 3 found no FAIL at these m and FAILs at others (the n = 1
    families but `an` at m = 1, and at m = 3 for s = 1 and p >= 5;
    hyperoctahedral n >= 3 at m = 1 and 3, simplicial n >= 2 at m = 1, and
    simplicial n = 2 at m = 2 for p = 5, s = 2)."""
    if m is None:
        m = family.n + 1 if family.kind == "simplicial" else 2
    if s < 1 or m < 1:
        raise ConfigError("s >= 1 and m >= 1 required")
    Dt = _degree(Dt, 3 * p * p)
    target = 2 * s
    params = dict(family=family.kind, n=family.n, p=p, s=s, m=m, lift=lift_kind, Dt=Dt)
    check_id = "super-conjecture/%s-n%d-p%d-s%d-m%d-%s" % (
        family.kind, family.n, p, s, m, lift_kind
    )
    notes = []
    if lift_kind != "excellent":
        notes.append("non-excellent lift: failure here is expected but not asserted")
    if Dt < m * p ** s:
        return _below_truncation(check_id, params, target, Dt, m * p ** s, True, notes)
    excess = _truncation_excess(family, p, s, m, lift_kind, Dt, target)
    return _report(check_id, params, target, excess, conjecture=True, notes=notes)


# ---------------------------------------------------------------------------
# the square-polytope example f = 1 - x1 - x2 + (1-t) x1 x2


def _square_example_alpha(i, j):
    """alpha_{i,j}(t) for 1/f as an integer coefficient list in t:
    1/f = sum_k t^k (x1 x2)^k / ((1-x1)(1-x2))^(k+1), so
    alpha_{i,j} = sum_k C(i,k) C(j,k) t^k."""
    return [comb(i, k) * comb(j, k) for k in range(min(i, j) + 1)]


def verify_simple_example(p, s, variant="generic"):
    """Coefficient congruences for 1/(1 - x1 - x2 + (1-t) x1 x2).

    variant 'generic':      alpha_{kp^s,lp^s}(t) = alpha_{kp^{s-1},lp^{s-1}}(t^p) mod p^{2s}
    variant 't=-1':         the integer specialization with f = 1-x-y+2xy
    variant 'general-lift': s=1 with t^sigma = t^p(1+p), correction term
                            log(t^sigma/t^p) * theta(alpha).

    alpha comes from `_square_example_alpha` alone; tier-1 checks it
    against the recurrence and the diagonal closed form of
    `tests/coefficient_oracle.py`."""
    if p < 3:
        raise ConfigError("p >= 3 required")
    if s < 1:
        raise ConfigError("s >= 1 required")
    coeff_list = [(1, 1), (1, 2), (2, 1), (2, 2)]
    target = 2 * s
    params = {"p": p, "s": s, "coeffs": [list(kl) for kl in coeff_list], "variant": variant}
    check_id = "simple-example/%s-p%d-s%d" % (variant, p, s)
    K = max(k for k, _ in coeff_list) * p ** s
    L = max(l for _, l in coeff_list) * p ** s
    notes = []
    ctx = PadicContext(p, target + GUARD)

    def as_series(coeffs):
        return series.PadicSeries(ctx, coeffs, K + L)

    # diff(cur, prev): the residual from cur = alpha_{kp^s,lp^s}, prev = alpha_{kp^{s-1},lp^{s-1}}
    if variant == "generic":
        lift = sigma.FrobLift.tp(ctx, K + L)

        def diff(cur, prev):
            return as_series(cur) - lift.on_series(as_series(prev))
    elif variant == "t=-1":
        notes.append("specialization t=-1, f = 1 - x - y + 2xy")

        def diff(cur, prev):
            at_minus_one = [sum(c * (-1) ** e for e, c in enumerate(a)) for a in (cur, prev)]
            return series.PadicSeries(ctx, [at_minus_one[0] - at_minus_one[1]])
    elif variant == "general-lift":
        if s != 1:
            raise ConfigError("the general-lift variant is stated for s=1")
        unit = 1 + p
        lift = sigma.FrobLift.from_tsigma(ctx, as_series([0] * p + [unit]))
        # the correction factor is log(t^p/t^sigma) = -log(1+p): expanding
        # h(b e^x) around b = t^sigma forces x = log(t^p/t^sigma)
        logu = -series.padic_log_unit(ctx, unit)
        notes.append("lift t^sigma = t^p (1+p) with correction log(t^p/t^sigma) theta(a)")

        def diff(cur, prev):
            base = as_series(prev)
            return as_series(cur) - (lift.on_series(base) + lift.on_series(base.theta()) * logu)
    else:
        raise ConfigError("unknown variant %r" % (variant,))
    excess = min(
        diff(_square_example_alpha(k * p ** s, l * p ** s),
             _square_example_alpha(k * p ** (s - 1), l * p ** (s - 1)))
        .min_excess_ord(target)
        for k, l in coeff_list
    )
    return _report(check_id, params, target, excess, notes=notes)


# ---------------------------------------------------------------------------
# supercongruences for expansion coefficients of 1 - t g


def verify_cy_supercongruence(family, p, s, Q=1, Dt=None, lift_kind="excellent"):
    """a_{p^s Q}(t) = (F(t)/F(t^sigma)) a_{p^{s-1} Q}(t^sigma) mod p^{2s}
    along the vertex direction, with the excellent lift.  With lift t^p the
    weak level-1 form (modulus p) is checked instead."""
    if s < 1 or Q < 1:
        raise ConfigError("s >= 1 and Q >= 1 required")
    target = 2 * s if lift_kind == "excellent" else 1
    Dt = _degree(Dt, max(3 * p * p, p ** s * Q + 2 * p))
    params = dict(family=family.kind, n=family.n, p=p, s=s, Q=Q, lift=lift_kind, Dt=Dt)
    check_id = "cy-supercongruence/%s-n%d-p%d-s%d-Q%d-%s" % (
        family.kind, family.n, p, s, Q, lift_kind
    )
    if Dt < p ** s * Q:
        return _below_truncation(check_id, params, target, Dt, p ** s * Q)
    ctx = PadicContext(p, target + GUARD)
    hi, lo = (
        series.PadicSeries(ctx, c, Dt)
        for c in families.vertex_coefficients(family, Dt, (p ** s * Q, p ** (s - 1) * Q))
    )
    excess = _ratio_excess(family, lift_kind, ctx, Dt, hi, lo, target)
    lift = sigma.get_lift(lift_kind, family, ctx, Dt)
    notes = ["vertex direction %r" % (family.vertices[0],)]
    # leading-coefficient bookkeeping: at t^{p^s Q} the two sides differ by
    # the factor (gamma^{p-1}/v(0))^{p^{s-1} Q}, which must be 1 mod p^{2s}
    m = ctx.modulus
    unit = pow(family.gamma, p - 1, m) * unit_inverse(lift.vsigma[0], ctx)
    ratio = pow(unit, p ** (s - 1) * Q, m)
    if ord_p(ratio - 1, p, ctx.N) >= target:
        notes.append("leading-coefficient unit ratio is 1 mod p^%d" % target)
    else:
        raise TheoremViolation("leading-coefficient bookkeeping failed")
    return _report(check_id, params, target, excess, notes=notes)


# ---------------------------------------------------------------------------
# the four-variable product family and its diagonal


def _layer_diagonal(d):
    """alpha_{d,d,d,d} of 1/((1-x1-x2)(1-x3-x4) - x1 x2 x3 x4) via the
    geometric-layer expansion sum_k (x1 x2 x3 x4)^k / (...)^{k+1}."""
    return sum(
        (comb(2 * d - k, d - k) * comb(d, k)) ** 2 for k in range(d + 1)
    )


def verify_straub(p, s):
    """Diagonal supercongruence alpha_{dp^s} = alpha_{dp^{s-1}} mod p^{3s}
    for the four-variable product family; the diagonal entries are the
    Apery numbers.  p = 3 is outside the proved range and reported only.
    The diagonal comes from `_layer_diagonal` alone; tier-1 checks it
    against the raw 4-variable expansion of `tests/coefficient_oracle.py`."""
    if s < 1:
        raise ConfigError("s >= 1 required")
    target = 3 * s
    multiples = (1,)
    conjecture = p < 5
    params = {"p": p, "s": s, "multiples": list(multiples)}
    check_id = "straub/p%d-s%d" % (p, s)
    ctx = PadicContext(p, target + GUARD)
    excess = min(
        series.PadicSeries(ctx, [_layer_diagonal(d * p ** s) - _layer_diagonal(d * p ** (s - 1))])
        .min_excess_ord(target)
        for d in multiples
    )
    notes = ["diagonal oracle cross-checked against the raw expansion for d <= 5"]
    if conjecture:
        notes.append("p < 5 is outside the proved range; recorded as an observation")
    return _report(check_id, params, target, excess, conjecture=conjecture, notes=notes)


# ---------------------------------------------------------------------------
# Hasse-Witt determinant congruences


def verify_hw_congruences(family, p, Dt=None):
    """hw^(1) = F_p(t) mod p, hw^(2) = W(t)^{1-p} mod p, and the full
    level-2 matrix agrees with the Cartier matrix mod p^2."""
    if Dt is None:
        Dt = 3 * p * p
    sigma.check_degree(Dt, p)
    params = dict(family=family.kind, n=family.n, p=p, Dt=Dt)
    check_id = "hw-congruences/%s-n%d-p%d" % (family.kind, family.n, p)
    ctx = PadicContext(p, 2 + GUARD)
    periods = families.get_periods(family, Dt)
    lift = sigma.get_lift("tp", family, ctx, Dt)
    notes = []
    hw1m = hasse_witt.cy_hasse_witt(family, lift, 1, ctx, Dt)
    e1 = (hw1m.hw - series.PadicSeries(ctx, periods.F._c[:p], Dt)).min_excess_ord(1)
    hw2m = hasse_witt.cy_hasse_witt(family, lift, 2, ctx, Dt)
    hw2 = hw2m.hw
    W2 = series.reduce_mod(periods.W, hw2.ctx)
    # matrix entries built through a t^p division carry padding in the top
    # p coefficients; compare below that degree only
    e2 = (hw2 - W2.invert() ** (p - 1)).truncate(Dt - p).min_excess_ord(1)
    # reported observation: is hw^(2) mod p the p-truncation of W?
    trunc_W = [W2[i] if i < p else 0 for i in range(Dt - p + 1)]
    same = all(
        (a - b) % p == 0 for a, b in zip(hw2.coeffs[: Dt - p + 1], trunc_W)
    )
    notes.append(
        "hw^(2) mod p %s the degree-(p-1) truncation of W"
        % ("equals" if same else "differs from")
    )
    # equivalent form hw^(1) = F(t)^{1-p} mod p
    eF = (hw1m.hw - series.reduce_mod(periods.F, ctx).invert() ** (p - 1)).min_excess_ord(1)
    notes.append("hw^(1) vs F^{1-p} mod p excess %d" % eF)
    # the Cartier matrix reduces to HW^(2) mod p^2 in the matched basis
    data = frobenius.frobenius_matrix(family, periods, lift, ctx)
    eL = min(
        (data.Lambda[i][j] - hw2m.entries[i][j]).truncate(Dt - p).min_excess_ord(2)
        for i in range(2) for j in range(2)
    )
    notes.append("Cartier matrix vs HW^(2) mod p^2 excess %d" % eL)
    excess = min(e1, e2, eF, eL)
    return _report(check_id, params, 1, excess, notes=notes)


# ---------------------------------------------------------------------------
# modular polynomials for the n=2 hypercubic family

PHI_3 = {
    (4, 0): 1, (1, 1): -1, (3, 1): 12, (2, 2): 6, (1, 3): 12,
    (3, 3): -256, (0, 4): 1,
}

PHI_5 = {
    (6, 0): 1, (1, 1): -1, (3, 1): 20, (5, 1): -70, (2, 2): -40,
    (4, 2): 655, (1, 3): 20, (3, 3): -660, (5, 3): 5120, (2, 4): 655,
    (4, 4): -10240, (1, 5): -70, (3, 5): 5120, (5, 5): -65536, (0, 6): 1,
}


def _eval_phi(phi, X, ctx, Dt):
    """phi(X, t) for a series X and Y = t (realized as coefficient shifts)."""
    amax = max(a for a, _ in phi)
    powers = [series.PadicSeries.one(ctx, Dt)]
    for _ in range(amax):
        powers.append(powers[-1] * X)
    acc = series.PadicSeries.zero(ctx, Dt)
    for (a, b), c in sorted(phi.items()):
        acc = acc + powers[a].shift(b) * c
    return acc


def verify_modular_polynomial(p, Dt=None, control=False):
    """Phi_p(t^sigma, t) = 0 for the n=2 hypercubic excellent lift; the
    printed polynomials are known for p in {3, 5}."""
    if p == 3:
        phi, target = PHI_3, 5
        Dt = 40 if Dt is None else Dt
    elif p == 5:
        phi, target = PHI_5, 4
        Dt = 60 if Dt is None else Dt
    else:
        raise ConfigError("modular polynomial known for p in {3, 5} only")
    sigma.check_degree(Dt, p)
    params = {"family": "hypercubic", "n": 2, "p": p, "Dt": Dt}
    check_id = "modular-polynomial/p%d" % p
    ctx = PadicContext(p, target + 2)
    family = get_family("hypercubic", 2)
    if control:
        X = series.PadicSeries(ctx, [0] * p + [1], Dt)
    else:
        X = sigma.get_lift("excellent", family, ctx, Dt).tsigma
    excess = _eval_phi(phi, X, ctx, Dt).min_excess_ord(target)
    if control:
        return _report(check_id + "!tp-control", params, target, excess, control=True,
                       notes=["the naive lift t^p is not a root of Phi_p"])
    return _report(check_id, params, target, excess)


# ---------------------------------------------------------------------------
# fixed points of the n=1 excellent lift


def _quad_pow(a0, a1, m, B, C):
    """(a0 + a1 q)^..., here: q^m in Z[q]/(q^2 + B q + C) by square-and-multiply."""
    r0, r1 = 1, 0
    b0, b1 = a0, a1

    def mul(x0, x1, y0, y1):
        # (x0 + x1 q)(y0 + y1 q) with q^2 = -B q - C
        z0 = x0 * y0
        z1 = x0 * y1 + x1 * y0
        z2 = x1 * y1
        return z0 - C * z2, z1 - B * z2

    while m:
        if m & 1:
            r0, r1 = mul(r0, r1, b0, b1)
        b0, b1 = mul(b0, b1, b0, b1)
        m >>= 1
    return r0, r1


def verify_fixed_point_n1(p):
    """Fixed points of the excellent lift for the n=1 hypercubic family,
    through the closed form t(q) = q/(1 + q^2) and q^sigma = q^p.

    t0 = 1/2 is q = 1, and t0 = 1 and t0 = -1 are roots of unity; each is
    handled as exact arithmetic modulo the quadratic satisfied by q."""
    params = {"family": "hypercubic", "n": 1, "p": p}
    check_id = "fixed-point-n1/p%d" % p
    notes = []
    failures = 0
    # t0 = 1/2: q = 1 is the double root of q^2 - 2q + 1 (so 1 + q^2 = 2q and
    # t(q) = 1/2); fixed means 2 q^p = 1 + q^{2p} in Z[q]/(q^2 - 2q + 1)
    a0, a1 = _quad_pow(0, 1, p, -2, 1)
    s0, s1 = _quad_pow(0, 1, 2 * p, -2, 1)
    if (2 * a0, 2 * a1) == (1 + s0, s1):
        notes.append("t0=1/2: q=1 maps to q^p=1, fixed")
    else:
        failures += 1
        notes.append("t0=1/2: NOT fixed")
    # t0 = 1: q^2 - q + 1 = 0 (so 1 + q^2 = q and t(q) = 1); q^p satisfies
    # the same quadratic when p is coprime to 6
    # t0 = -1: q^2 + q + 1 = 0 (so 1 + q^2 = -q and t(q) = -1)
    for t0, B in ((1, -1), (-1, 1)):
        if p == 3:
            notes.append("t0=%d skipped at p=3 (the truncation F_3(%d) is 0 mod 3)" % (t0, t0))
            continue
        a0, a1 = _quad_pow(0, 1, p, B, 1)       # q^p
        s0, s1 = _quad_pow(0, 1, 2 * p, B, 1)   # q^{2p}
        # fixed point means q^p = t0 (1 + q^{2p}) in Z[q]/(q^2 + B q + 1)
        if (a0, a1) == (t0 * (1 + s0), t0 * s1):
            notes.append("t0=%d: fixed (exact arithmetic mod q^2%+dq+1)" % (t0, B))
        else:
            failures += 1
            notes.append("t0=%d: NOT fixed" % t0)
    # informational: is the unit-root specialization applicable (F_p(t0) a unit)?
    Fp = [comb(2 * k, k) for k in range((p + 1) // 2)]
    for t0 in (Fraction(1, 2), Fraction(1), Fraction(-1)):
        val = sum(c * t0 ** (2 * k) for k, c in enumerate(Fp))
        unit = val.numerator % p != 0
        notes.append("F_p(%s) %s a unit mod p" % (t0, "is" if unit else "is not"))
    excess = 0 if failures == 0 else -1
    return _report(check_id, params, 0, excess, notes=notes)


# ---------------------------------------------------------------------------
# Frobenius structure of the connection


def verify_frobenius_structure(family, p, lift_kind="excellent", Dt=None, control=False):
    """N_theta Lambda - Lambda N_theta^sigma - theta(Lambda) vanishes to
    degree Dt - p at working precision."""
    if Dt is None:
        Dt = 3 * p * p
    sigma.check_degree(Dt, p)
    params = dict(family=family.kind, n=family.n, p=p, lift=lift_kind, Dt=Dt)
    check_id = "frobenius-structure/%s-n%d-p%d-%s" % (family.kind, family.n, p, lift_kind)
    ctx = PadicContext(p, 2 + GUARD)
    periods = families.get_periods(family, Dt)
    lift = sigma.get_lift(lift_kind, family, ctx, Dt)
    data = frobenius.frobenius_matrix(family, periods, lift, ctx)
    target = ctx.N
    if control:
        bump = series.PadicSeries.constant(ctx, p ** (ctx.N - 1), Dt)
        data.Lambda[0][0] = data.Lambda[0][0] + bump
    R = frobenius.structure_residual(data)
    excess = min(
        R[i][j].truncate(Dt - p).min_excess_ord(target)
        for i in range(2) for j in range(2)
    )
    if control:
        return _report(check_id + "!perturbed-control", params, target, excess, control=True)
    return _report(check_id, params, target, excess,
                   notes=["residual compared to zero at full working precision"])


# ---------------------------------------------------------------------------
# the Laurent-coefficient congruence for hypercubic families


def verify_pq(p, s, n, Dt=None):
    """P_{p^s}(t) = (F(t)/F(t^sigma)) P_{p^{s-1}}(t^sigma) mod p^{2s} for the
    hypercubic family, cleared of t^{-Q} prefactors by multiplying through
    by t^{p^s} and cross-multiplying by F(t^sigma).  P_Q comes from
    `pq_polynomial` alone; tier-1 checks it against the expansion route
    sum_k ((-1)^k binom(Q-k-1, k))^n t^{2k-Q} of
    `tests/coefficient_oracle.py`."""
    if s < 1:
        raise ConfigError("s >= 1 required")
    Dt = _degree(Dt, 3 * p * p)
    target = 2 * s
    params = {"family": "hypercubic", "n": n, "p": p, "s": s, "Dt": Dt,
              "interpretation": "literal"}
    check_id = "pq/n%d-p%d-s%d" % (n, p, s)
    if Dt < p ** s:
        return _below_truncation(check_id, params, target, Dt, p ** s)
    Q, Qp = p ** s, p ** (s - 1)
    # every factor j of the falling product has j <= 2k - Q <= -1, so a
    # reading that skips zero factors is the literal one
    notes = ["literal and zero-skipping products agree (no zero factors occur)",
             "coefficients match the expansion route binom(Q-k-1, k) values"]
    ctx = PadicContext(p, target + GUARD)
    family = get_family("hypercubic", n)
    lift, F, Fs = _lift_and_F(family, "excellent", ctx, Dt)

    def cleared(q):
        # t^q P_q(t) as a series
        coeffs = [0] * (Dt + 1)
        for e, c in families.pq_polynomial(n, q).items():
            if e + q <= Dt:
                coeffs[e + q] = c
        return series.PadicSeries(ctx, coeffs)

    # multiply both sides by F(t^sigma) t^{p^s} (t^sigma)^{p^{s-1}}, which
    # clears every negative power and every denominator
    lhs = Fs * lift.tsigma ** Qp * cleared(Q)
    rhs = (F * lift.on_series(cleared(Qp))).shift(Q)
    diff = lhs - rhs
    excess = diff.min_excess_ord(target)
    return _report(check_id, params, target, excess, notes=notes)


# ---------------------------------------------------------------------------
# suite driver


def _desk_checks():
    checks = []
    kinds = ["simplicial", "hypercubic", "hyperoctahedral", "an"]
    for kind in kinds:
        for n in (1, 2, 3):
            family = get_family(kind, n)
            for p in (7, 5, 3):
                if family.support_index % p == 0:
                    continue
                for s in (1, 2):
                    for m in (1, 2):
                        checks.append(("dwork", dict(family=family, p=p, s=s, m=m)))
    checks.append(("dwork", dict(family=get_family("hyperoctahedral", 4), p=3, s=1, m=1, Dt=27)))
    checks.append(("dwork", dict(family=get_family("simplicial", 2), p=5, s=1, m=1, control=True)))
    checks.append(("super", dict(family=get_family("hypercubic", 2), p=5, s=1, m=2)))
    checks.append(("super", dict(family=get_family("simplicial", 2), p=5, s=1, m=3)))
    checks.append(("super", dict(family=get_family("hypercubic", 2), p=5, s=1, m=2, lift_kind="tp")))
    for p in (3, 5):
        for s in (1, 2):
            checks.append(("simple", dict(p=p, s=s, variant="generic")))
            checks.append(("simple", dict(p=p, s=s, variant="t=-1")))
        checks.append(("simple", dict(p=p, s=1, variant="general-lift")))
    for p in (3, 5):
        checks.append(("cy-super", dict(family=get_family("hypercubic", 2), p=p, s=1, Q=1)))
        checks.append(("cy-super", dict(family=get_family("hypercubic", 2), p=p, s=1, Q=1, lift_kind="tp")))
    checks.append(("cy-super", dict(family=get_family("hyperoctahedral", 2), p=5, s=1, Q=1)))
    checks.append(("straub", dict(p=5, s=1)))
    checks.append(("straub", dict(p=5, s=2)))
    checks.append(("straub", dict(p=7, s=1)))
    checks.append(("straub", dict(p=3, s=1)))
    for kind in ("hyperoctahedral", "hypercubic"):
        for p in (3, 5):
            checks.append(("hw", dict(family=get_family(kind, 2), p=p)))
    checks.append(("modular", dict(p=3)))
    checks.append(("modular", dict(p=5)))
    checks.append(("modular", dict(p=3, control=True)))
    for p in (3, 5, 7):
        checks.append(("fixed-point", dict(p=p)))
    for lift_kind in ("tp", "excellent"):
        checks.append(("frobenius", dict(family=get_family("hypercubic", 2), p=3, lift_kind=lift_kind)))
    checks.append(("frobenius", dict(family=get_family("hypercubic", 2), p=3, control=True)))
    for n in (1, 2):
        checks.append(("pq", dict(p=3, s=1, n=n)))
    # no excellent lift for the cubic family at p=3 (p divides #G), use p=5
    for n in (2, 3):
        checks.append(("pq", dict(p=5, s=1, n=n)))
    checks.append(("pq", dict(p=3, s=2, n=2)))
    return checks


def _smoke_checks():
    return [
        ("dwork", dict(family=get_family("simplicial", 2), p=5, s=1, m=1, Dt=30)),
        ("dwork", dict(family=get_family("simplicial", 2), p=5, s=1, m=1, Dt=30, control=True)),
        ("simple", dict(p=3, s=1, variant="generic")),
        ("simple", dict(p=3, s=1, variant="t=-1")),
        ("straub", dict(p=5, s=1)),
        ("cy-super", dict(family=get_family("hypercubic", 2), p=3, s=1, Q=1)),
        ("hw", dict(family=get_family("hyperoctahedral", 2), p=3)),
        ("fixed-point", dict(p=5)),
        ("pq", dict(p=3, s=1, n=2)),
        ("frobenius", dict(family=get_family("hypercubic", 2), p=3, lift_kind="tp", Dt=21)),
    ]


GRIDS = {"desk": _desk_checks, "smoke": _smoke_checks}

# the verify suites by name, in the order `cartier verify` lists them; a
# negative control runs under its suite's name with control=True
SUITES = {
    "dwork": verify_dwork,
    "super": verify_super_conjecture,
    "simple": verify_simple_example,
    "cy-super": verify_cy_supercongruence,
    "straub": verify_straub,
    "hw": verify_hw_congruences,
    "modular": verify_modular_polynomial,
    "fixed-point": verify_fixed_point_n1,
    "frobenius": verify_frobenius_structure,
    "pq": verify_pq,
}


def run_check(name, **kw):
    """The report of SUITES[name](**kw), with its runtime measured."""
    start = time.perf_counter()
    report = SUITES[name](**kw)
    return report._replace(runtime=time.perf_counter() - start)


def run_suite(grid="desk", suites=None):
    """Run the named verification suites over the chosen grid and return
    reports sorted by check id.  suites: iterable of SUITES names, or None
    for all."""
    if grid not in GRIDS:
        raise ConfigError("unknown grid %r" % (grid,))
    checks = GRIDS[grid]()
    if suites is not None:
        wanted = set(suites)
        unknown = wanted - SUITES.keys()
        if unknown:
            raise ConfigError("unknown suite names: %s" % sorted(unknown))
        checks = [c for c in checks if c[0] in wanted]
    reports = [run_check(name, **kwargs) for name, kwargs in checks]
    reports.sort(key=lambda r: r.check_id)
    return reports


def suite_exit_code(reports, strict_precision=False):
    """The CLI exit code of a verify run, over its non-conjecture checks: 0
    if all pass, 1 if one fails, and for precision-limited ones otherwise 3
    under strict_precision and 1 without."""
    statuses = {r.status for r in reports if not r.conjecture}
    if FAIL in statuses:
        return 1
    if PRECISION_LIMITED in statuses:
        return 3 if strict_precision else 1
    return 0


def reports_to_json(reports, include_runtime=False):
    return json.dumps(
        [r.to_dict(include_runtime=include_runtime) for r in reports],
        indent=2,
        sort_keys=True,
    )


def reports_to_junit(reports):
    # imported here: only --format junit reads it, and the import costs a
    # few ms of every cold start
    from xml.etree import ElementTree

    suite = ElementTree.Element(
        "testsuite",
        name="congruence-checks",
        tests=str(len(reports)),
        failures=str(sum(1 for r in reports if not r.conjecture and r.status == FAIL)),
        skipped=str(sum(1 for r in reports if r.status == PRECISION_LIMITED or r.conjecture)),
    )
    for r in reports:
        case = ElementTree.SubElement(
            suite, "testcase", name=r.check_id, time="%.3f" % r.runtime
        )
        if r.status == PRECISION_LIMITED:
            ElementTree.SubElement(case, "skipped", message="precision limited")
        elif r.conjecture:
            sk = ElementTree.SubElement(case, "skipped", message="conjecture")
            sk.text = r.status
        elif r.status == FAIL:
            fl = ElementTree.SubElement(case, "failure", message="congruence failed")
            fl.text = json.dumps(r.to_dict(), sort_keys=True)
    return ElementTree.tostring(suite, encoding="unicode")
