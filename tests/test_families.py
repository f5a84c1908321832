"""Period data for the catalog families against combinatorial oracles."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from cartier import families, harness, sigma
from cartier.catalog import FamilySpec
from cartier.errors import ConfigError, DomainError, ReductionError
from cartier.expansion import expand_cy
from cartier.families import (
    PeriodData,
    _closed_FG,
    _closed_terms,
    ab_coefficients,
    canonical_q,
    generic_periods,
    mirror_map,
    pq_polynomial,
    vertex_coefficients,
)
from cartier.laurent import LaurentPoly, poly_pow
from cartier.padic import PadicContext
from cartier.series import PadicSeries, RationalSeries, reduce_mod
from coefficient_oracle import e_sums_by_convolution, pq_from_expansion
from series_oracle import is_p_integral


def brute_force_F(family, D):
    """Constant terms of g^k, computed directly by polynomial powers."""
    out = []
    for k in range(D + 1):
        out.append(Fraction(poly_pow(family.g, k).constant_term(0)))
    return out


@pytest.mark.parametrize(
    "family",
    [
        FamilySpec.simplicial(2),
        FamilySpec.hypercubic(2),
        FamilySpec.hyperoctahedral(2),
        FamilySpec.a_n(1),
        FamilySpec.a_n(2),
        FamilySpec.hyperoctahedral(3),
    ],
    ids=lambda f: "%s-n%d" % (f.kind, f.n),
)
def test_period_F_matches_constant_terms(family):
    D = 9
    periods = PeriodData(family, D)
    assert periods.F.coeffs[: D + 1] == brute_force_F(family, D)


def test_closed_form_coefficients():
    assert PeriodData(FamilySpec.hypercubic(2), 8).F.coeffs[::2] == [
        Fraction(comb(2 * k, k) ** 2) for k in range(5)
    ]
    assert PeriodData(FamilySpec.simplicial(2), 9).F.coeffs[::3] == [
        Fraction(factorial(3 * k), factorial(k) ** 3) for k in range(4)
    ]
    assert PeriodData(FamilySpec.a_n(1), 8).F.coeffs == [
        Fraction(comb(2 * k, k)) for k in range(9)
    ]


def test_period_data_normalization():
    periods = PeriodData(FamilySpec.hyperoctahedral(2), 12)
    assert periods.F[0] == 1
    assert periods.G[0] == 0
    assert periods.W[0] == 1


def test_ab_oracle_hypercubic_n1():
    # F = sum binom(2k,k) t^{2k} satisfies theta^2 F = 4t^2 (theta+2)(theta+1) F,
    # so B = 12t^2/(1-4t^2) and A = 8t^2/(1-4t^2)
    D = 16
    periods = PeriodData(FamilySpec.hypercubic(1), D)
    A, B = ab_coefficients(periods.F, periods.W)
    denom = RationalSeries([1, 0, -4], D)
    assert (B * denom) == RationalSeries([0, 0, 12], D)
    assert (A * denom) == RationalSeries([0, 0, 8], D)


def test_ab_vanish_at_zero():
    for fam in (FamilySpec.hyperoctahedral(2), FamilySpec.simplicial(2)):
        periods = PeriodData(fam, 12)
        A, B = ab_coefficients(periods.F, periods.W)
        assert A[0] == 0 and B[0] == 0


@pytest.mark.parametrize("kind", ["simplicial", "hypercubic", "hyperoctahedral", "an"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ab_coefficients_on_residues_reduce_those_over_Q(kind, n):
    # one formula in either ring: run on the residues of F and W, as
    # frobenius_matrix does, it gives the reductions of A and B over Q
    periods = PeriodData(FamilySpec.by_name(kind, n), 30)
    over_Q = ab_coefficients(periods.F, periods.W)
    for p in (3, 5, 7):
        ctx = PadicContext(p, 4)
        got = ab_coefficients(reduce_mod(periods.F, ctx), reduce_mod(periods.W, ctx))
        assert all(type(s) is PadicSeries for s in got)
        assert [s.coeffs for s in got] == [reduce_mod(s, ctx).coeffs for s in over_Q]


def test_mirror_map_roundtrip():
    periods = PeriodData(FamilySpec.hypercubic(2), 14)
    q = canonical_q(periods)
    tq = mirror_map(periods)
    assert q[0] == 0 and q[1] == 1
    assert q.compose(tq) == RationalSeries.t(14)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mirror_integrality_small(p):
    periods = PeriodData(FamilySpec.hyperoctahedral(2), 20)
    assert is_p_integral(canonical_q(periods), p)
    assert is_p_integral(mirror_map(periods), p)


def test_pq_polynomial_oracle():
    # n=1, Q=5: coefficients (-1)^k binom(Q-k-1, k) at t^{2k-Q}
    assert pq_polynomial(1, 5) == {-5: 1, -3: -3, -1: 1}
    # n=2 squares them
    assert pq_polynomial(2, 5) == {-5: 1, -3: 9, -1: 1}
    assert pq_polynomial(1, 1) == {-1: 1}
    # the expansion route, for every n and odd Q the grids use and more
    assert all(pq_polynomial(n, Q) == pq_from_expansion(n, Q)
               for n in range(1, 5) for Q in range(1, 28, 2))
    with pytest.raises(DomainError):
        pq_polynomial(1, 4)
    with pytest.raises(DomainError):
        pq_polynomial(1, 0)


def test_family_validation():
    # non-reflexive Newton polytope is rejected
    with pytest.raises(ConfigError):
        FamilySpec.custom(LaurentPoly(2, {(2, 0): 1, (0, 2): 1, (-2, -2): 1}))
    # support must consist of vertices (plus an optional constant term)
    with pytest.raises(ConfigError):
        FamilySpec.custom(
            LaurentPoly(2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1, (1, 0): 1})
        )
    # unequal vertex coefficients are rejected
    with pytest.raises(ConfigError):
        FamilySpec.custom(LaurentPoly(2, {(1, 0): 1, (0, 1): 2, (-1, -1): 1}))


def test_by_name():
    fam = FamilySpec.by_name("an", 2)
    assert fam.kind == "an"
    with pytest.raises(ConfigError):
        FamilySpec.by_name("dodecahedral", 2)


def test_catalog_invariants():
    fam = FamilySpec.hypercubic(2)
    assert fam.gamma == 1 and fam.alpha == 0 and fam.group_order == 8
    fam = FamilySpec.a_n(1)
    # g = (1+x)(1+1/x) = 2 + x + 1/x
    assert fam.alpha == 2 and fam.gamma == 1


# every catalog family the verification grids use
CATALOG = [(k, n) for k in ("simplicial", "hypercubic", "hyperoctahedral", "an") for n in (1, 2, 3)]
CATALOG.append(("hyperoctahedral", 4))


# the runtime uses the closed forms unchecked; this compares them with the
# relation-lattice enumeration of the definition.  `an` n=4 is compared with
# the E-series products instead (test_closed_form_matches_e_series), as its
# enumeration takes seconds; hypercubic n=4 stops at degree 4 for that reason
@pytest.mark.parametrize(
    "kind,n,D",
    [pytest.param(k, n, 12, id="%s-%d" % (k, n)) for k, n in CATALOG + [("simplicial", 4)]]
    + [pytest.param("hypercubic", 4, 4, id="hypercubic-4")],
)
def test_closed_form_matches_enumeration(kind, n, D):
    family = FamilySpec.by_name(kind, n)
    F, build_G = _closed_FG(family, D)
    G = build_G()
    Fg, Gg = generic_periods(family, D)
    assert F.coeffs == Fg.coeffs and G.coeffs == Gg.coeffs


def test_cross_check_catches_a_wrong_closed_form():
    # negative control of the comparison above: a closed form off by t^2 in
    # F or in G does not match the enumeration
    family = FamilySpec.hypercubic(2)
    F, build_G = _closed_FG(family, 12)
    G = build_G()
    Fg, Gg = generic_periods(family, 12)
    bump = RationalSeries([0, 0, 1], 12)
    assert (F + bump).coeffs != Fg.coeffs
    assert (G + bump).coeffs != Gg.coeffs


@pytest.mark.parametrize("kind,n", [kn for kn in CATALOG if kn[1] <= 3], ids=str)
def test_a_wrong_G_weight_differs_from_enumeration(kind, n, monkeypatch):
    # negative control of the _G_WEIGHTS table: w + 1 in place of a kind's w
    # gives a G that the enumeration does not match
    family = FamilySpec.by_name(kind, n)
    w = families._G_WEIGHTS[kind](n)
    monkeypatch.setitem(families._G_WEIGHTS, kind, lambda n: w + 1)
    _, build_G = _closed_FG(family, 12)
    assert build_G().coeffs != generic_periods(family, 12)[1].coeffs


def e_series_FG(family, D):
    """F and G of `an` and `hyperoctahedral` from Fraction series products of
    E = sum t^j/(j!)^2 and E_H = sum H_j t^j/(j!)^2: (k!)^2 [t^k] E^(n+1) and
    2 (k!)^2 [t^k] (H_k E^(n+1) - E_H E^n) at t^k for `an`, (2k)! [t^k] E^n
    and (2k)! [t^k] (H_{2k} E^n - E_H E^(n-1)) at t^{2k} for
    `hyperoctahedral`."""
    an = family.kind == "an"
    half = D if an else D // 2
    m = family.n + 1 if an else family.n
    H = [sum(Fraction(1, i) for i in range(1, j + 1)) for j in range(D + 1)]
    E = RationalSeries([Fraction(1, factorial(j) ** 2) for j in range(half + 1)])
    EH = RationalSeries([H[j] / factorial(j) ** 2 for j in range(half + 1)])
    powers = [RationalSeries.one(half)]
    for _ in range(m):
        powers.append(powers[-1] * E)
    Em, mixed = powers[m], EH * powers[m - 1]
    F, G = [0] * (D + 1), [0] * (D + 1)
    for k in range(half + 1):
        d = k if an else 2 * k
        scale = factorial(k) ** 2 if an else factorial(2 * k)
        F[d] = scale * Em[k]
        G[d] = (2 if an else 1) * scale * (H[d] * Em[k] - mixed[k])
    return F, G


@pytest.mark.parametrize("kind", ["an", "hyperoctahedral"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_matches_e_series(kind, n):
    D = 60
    family = FamilySpec.by_name(kind, n)
    F, build_G = _closed_FG(family, D)
    G = build_G()
    Fe, Ge = e_series_FG(family, D)
    assert F.coeffs == Fe and G.coeffs == Ge


# the zero-shift chain against the relation lattice: `an` n has F_k = R_k of
# n + 1 zero shifts, and `hyperoctahedral` n has F_(2w) = C(2w, w) R_w of n;
# `an` stops at lower degrees as n grows, where its enumeration gets slow
CHAIN_CASES = [("an", 1, 40), ("an", 2, 24), ("an", 3, 12), ("an", 4, 6)]
CHAIN_CASES += [("hyperoctahedral", n, 40) for n in (1, 2, 3, 4)]


def chain_F(kind, n, D, sums):
    """F from the sums R_0..R_M of z zero shifts, sums(z, M)."""
    if kind == "an":
        return list(sums(n + 1, D))
    R, out = sums(n, D // 2), [0] * (D + 1)
    for w in range(D // 2 + 1):
        out[2 * w] = comb(2 * w, w) * R[w]
    return out


@lru_cache(maxsize=None)
def relation_lattice_F(kind, n, D):
    return generic_periods(FamilySpec.by_name(kind, n), D)[0].coeffs


def binomial_power_chain(z, M, power):
    """z steps of e(m) <- sum_j C(m, j)^power e(j) from e = (1, 0, .., 0)."""
    e = [1] + [0] * M
    for _ in range(z):
        e = [sum(comb(m, j) ** power * e[j] for j in range(m + 1)) for m in range(M + 1)]
    return e


@pytest.mark.parametrize("kind,n,D", CHAIN_CASES)
def test_chain_sums_match_the_relation_lattice(kind, n, D):
    assert chain_F(kind, n, D, lambda z, M: families._e_sums((0,) * z, M)) == (
        relation_lattice_F(kind, n, D))
    assert chain_F(kind, n, D, lambda z, M: binomial_power_chain(z, M, 2)) == (
        relation_lattice_F(kind, n, D))


@pytest.mark.parametrize("kind,n,D", [c for c in CHAIN_CASES if c[:2] != ("hyperoctahedral", 1)])
def test_an_unsquared_binomial_chain_differs_from_the_relation_lattice(kind, n, D):
    # negative control of the comparison above: C(m, j) in place of C(m, j)^2.
    # One zero shift gives R_m = 1 either way, so hyperoctahedral n=1 is left out
    assert chain_F(kind, n, D, lambda z, M: binomial_power_chain(z, M, 1)) != (
        relation_lattice_F(kind, n, D))


# one factor u >= 0, and two factors u1 >= u2 with u1 + u2 >= 0, as the
# sorted shift chains of `_closed_terms` give them
CLOSED_FACTORS = [(u1,) for u1 in range(7)] + [
    (u1, u2) for u1 in range(7) for u2 in range(-u1, u1 + 1)
]


@pytest.mark.parametrize("M", [30, 5])
def test_closed_factors_match_the_convolution(M):
    # 7 one-factor and 49 two-factor chains; at M = 5 most lower bounds lie
    # above M, so the sums are zero throughout
    for shifts in CLOSED_FACTORS:
        R = families._e_sums(shifts, M)
        assert R == e_sums_by_convolution(shifts, M), shifts
        # zero below the lower bound max(u1, 0) + max(u2, 0), nonzero from it
        lo = sum(max(u, 0) for u in shifts)
        assert R[:lo] == (0,) * min(lo, M + 1) and all(R[lo:]), shifts


def test_longer_chains_convolve_from_the_closed_factors():
    for shifts in [(0, 0, 0), (0, 0, 0, 0), (3, 1, -2), (2, 0, 0, -1), (1, 1, -1, -1)]:
        assert families._e_sums(shifts, 40) == e_sums_by_convolution(shifts, 40), shifts


def test_G_after_F_runs_only_the_last_factor(monkeypatch):
    # F of `an` n reads the zero-shift chain's sums, whose prefixes of one
    # and two factors are closed forms and whose longer prefixes are
    # convolutions; `an` n - 1 built all but the last, so F of `an` 3 adds
    # one entry and one convolution.  G then forms the summands of the last
    # factor only, from the stored sums, and computes no new sums
    calls = []
    summands = families._e_summands

    def counted(shifts, M):
        calls.append((shifts, M))
        return summands(shifts, M)

    monkeypatch.setattr(families, "_e_summands", counted)
    families._e_sums.cache_clear()
    D = 30
    PeriodData(FamilySpec.a_n(2), D)
    assert families._e_sums.cache_info().misses == 2
    assert calls == [((0,) * 3, D)]
    del calls[:]
    periods = PeriodData(FamilySpec.a_n(3), D)
    assert families._e_sums.cache_info().misses == 3
    assert calls == [((0,) * 4, D)]
    del calls[:]
    assert periods.G.coeffs == e_series_FG(FamilySpec.a_n(3), D)[1]
    assert families._e_sums.cache_info().misses == 3
    assert calls == [((0,) * 4, D)]


@pytest.mark.parametrize("n,D", [(1, 40), (2, 40), (3, 16), (3, 75)])
def test_vertex_coefficients_hypercubic_closed_form(n, D):
    # g = prod (x_i + 1/x_i), so [x^{c(1,..,1)}] g^k = binom(k, (k+c)/2)^n;
    # every vertex gives the same by symmetry
    family = FamilySpec.hypercubic(n)
    cs = list(range(11))
    for c, coeffs in zip(cs, vertex_coefficients(family, D, cs)):
        assert coeffs == [
            comb(k, (k + c) // 2) ** n if (k + c) % 2 == 0 else 0 for k in range(D + 1)
        ]


VERTEX_CASES = [(kind, n, 12) for kind, n in CATALOG if n <= 3]
VERTEX_CASES += [(kind, 4, 6) for kind in ("simplicial", "hypercubic", "hyperoctahedral", "an")]
VERTEX_CS = (0, 1, 2, 3, 5)


@lru_cache(maxsize=None)
def relation_lattice_vertex_coefficients(kind, n, D):
    """The relation-lattice DP for the catalog polynomial as a custom family,
    with the vertex it runs along."""
    custom = FamilySpec.custom(FamilySpec.by_name(kind, n).g)
    return custom.vertices[0], vertex_coefficients(custom, D, VERTEX_CS)


@pytest.mark.parametrize("kind,n,D", VERTEX_CASES)
def test_closed_vertex_coefficients_match_relation_lattice(kind, n, D):
    family = FamilySpec.by_name(kind, n)
    v1, expected = relation_lattice_vertex_coefficients(kind, n, D)
    assert family.vertices[0] == v1
    assert vertex_coefficients(family, D, VERTEX_CS) == expected
    # the symmetry group moves every vertex to v_1, and the closed forms
    # hold for any exponent, so every vertex gives the same coefficients
    for v in family.vertices:
        assert [_closed_terms(family, [c * x for x in v], D) for c in VERTEX_CS] == expected


def e_series(c, D, step):
    """E_c(z^step) = sum_w z^(step w)/(w!(w+c)!) to degree D, in Fractions."""
    out = [Fraction(0)] * (D + 1)
    for w in range(D // step + 1):
        out[step * w] = Fraction(1, factorial(w) * factorial(w + c))
    return out


def series_product(factors, D):
    out = [Fraction(1)] + [Fraction(0)] * D
    for f in factors:
        out = [sum(out[i] * f[k - i] for i in range(k + 1)) for k in range(D + 1)]
    return out


def shifted(f, a):
    return [Fraction(0)] * a + f[: len(f) - a]


def hyperoctahedral_form(u, D, step):
    """k! [z^k] prod_i z^{|u_i|} E_{|u_i|}(z^step); step 2 is the closed form."""
    P = series_product([shifted(e_series(abs(x), D, step), abs(x)) for x in u], D)
    return [factorial(k) * P[k] for k in range(D + 1)]


def an_form(u, D, S):
    """sum_m C(k,m) C(k,m-S) R_m, R_m = m!(m-S)! [z^m] prod_i z^{max(u_i,0)}
    E_{|u_i|}(z); S = sum(u) is the closed form."""
    P = series_product([shifted(e_series(abs(x), D, 1), max(x, 0)) for x in u], D)
    R = [factorial(m) * factorial(m - S) * P[m] if m >= S else 0 for m in range(D + 1)]
    return [
        sum(comb(k, m) * comb(k, m - S) * R[m] for m in range(max(S, 0), k + 1))
        for k in range(D + 1)
    ]


@pytest.mark.parametrize(
    "kind,form,wrong",
    [
        # E_c(z) in place of E_c(z^2)
        ("hyperoctahedral", lambda u, D: hyperoctahedral_form(u, D, 2),
         lambda u, D: hyperoctahedral_form(u, D, 1)),
        # sum |u_i| in place of S
        ("an", lambda u, D: an_form(u, D, sum(u)),
         lambda u, D: an_form(u, D, sum(map(abs, u)))),
    ],
)
def test_wrong_closed_vertex_form_differs_from_relation_lattice(kind, form, wrong):
    # the closed form written out in Fractions matches the DP; the same form
    # with one deliberate error differs from it in at least one case
    mismatches = 0
    for n in (1, 2, 3):
        v1, expected = relation_lattice_vertex_coefficients(kind, n, 12)
        for c, coeffs in zip(VERTEX_CS, expected):
            u = [c * x for x in v1]
            assert form(u, 12) == coeffs
            mismatches += wrong(u, 12) != coeffs
    assert mismatches > 0


# alpha = 3 and gamma = -2 exercise the constant term and the vertex coefficient
CUSTOM_G = LaurentPoly(2, {(0, 0): 3, (1, 0): -2, (0, 1): -2, (-1, -1): -2})


@pytest.mark.parametrize(
    "family",
    [FamilySpec.by_name(kind, n) for kind, n in CATALOG] + [FamilySpec.custom(CUSTOM_G)],
    ids=lambda f: "%s-n%d" % (f.kind, f.n),
)
def test_vertex_coefficients_match_box_expansion(family):
    D = 10
    cs = (0, 1, 2, 3)
    # p^N exceeds every |[x^u] g^k| for k <= 10 here, so agreement mod p^N
    # is exact agreement
    ctx = PadicContext(10007, 4)
    v = family.vertices[0]
    E = expand_cy(family.g, ctx, D, max(cs) * max(map(abs, v)))
    got = vertex_coefficients(family, D, cs)
    for c, coeffs in zip(cs, got):
        expected = E.coeff(tuple(c * e for e in v), PadicSeries.zero(ctx, D))
        assert PadicSeries(ctx, coeffs, D) == expected
    if family.kind != "custom":
        F, _ = _closed_FG(family, D)
        assert got[0] == [F[k] for k in range(D + 1)]


def test_vertex_coefficients_reject_negative_multiples():
    with pytest.raises(ConfigError):
        vertex_coefficients(FamilySpec.hypercubic(2), 5, [1, -1])


@pytest.fixture
def empty_stores(monkeypatch):
    """The stores of periods and lifts, emptied."""
    monkeypatch.setattr(families, "_PERIOD_CACHE", {})
    sigma.get_lift.cache_clear()
    harness._lift_and_F.cache_clear()


def test_W_is_built_only_when_read(empty_stores):
    # a check that reads only F (dwork with the t^p lift) leaves the
    # Wronskian unbuilt; hw-congruences reads W, which fills the cache
    family = FamilySpec.hypercubic(2)
    assert harness.verify_dwork(family, 3, 1, 1, Dt=27).status == harness.PASS
    (periods,) = families._PERIOD_CACHE.values()
    assert "W" not in vars(periods)
    assert harness.verify_hw_congruences(family, 3, Dt=27).status == harness.PASS
    assert families._PERIOD_CACHE == {(family, 27): periods}
    W = vars(periods)["W"]
    assert periods.W is W


def test_canonical_q_is_cached_at_full_degree():
    periods = PeriodData(FamilySpec.hypercubic(2), 14)
    q = canonical_q(periods)
    assert canonical_q(periods) is q


CATALOG = [
    (kind, n) for kind in ("simplicial", "hypercubic", "hyperoctahedral", "an") for n in (1, 2, 3)
] + [("hyperoctahedral", 4)]


def period_readings(periods):
    """Everything the checks read off a PeriodData, as coefficient lists."""
    A, B = ab_coefficients(periods.F, periods.W)
    series = [periods.F, periods.G, periods.W, canonical_q(periods), A, B]
    series += [RationalSeries(periods.F._c[:Nt], periods.D) for Nt in (1, 9, 25, periods.D)]
    return periods.D, [s.coeffs for s in series]


@pytest.mark.parametrize("read_on_base", [True, False], ids=["read-on-base", "read-on-view"])
@pytest.mark.parametrize("kind,n", CATALOG, ids=str)
def test_truncated_periods_match_a_build_at_the_lower_degree(kind, n, read_on_base):
    family = FamilySpec.by_name(kind, n)
    base = PeriodData(family, 147)
    if read_on_base:
        canonical_q(base)
        assert base.W is vars(base)["W"]
    cached = set(vars(base))
    for D in (27, 40, 60, 75):
        view = base.truncate(D)
        # the view carries the base's series instead of building them again
        assert set(vars(view)) == set(vars(base))
        assert period_readings(view) == period_readings(PeriodData(family, D))
    # reading a view builds nothing on the base but G, which views read from it
    assert set(vars(base)) - {"G"} == cached - {"G"}


def test_truncate_never_extends():
    with pytest.raises(ConfigError):
        PeriodData(FamilySpec.hypercubic(2), 27).truncate(28)


@pytest.fixture
def period_builds(monkeypatch, empty_stores):
    """The (kind, n, D) of each period build, with the period and lift
    stores emptied."""
    builds = []
    build = families._periods

    def counted(family, D):
        builds.append((family.kind, family.n, D))
        return build(family, D)

    monkeypatch.setattr(families, "_periods", counted)
    return builds


def _spec(kind, n):
    return FamilySpec.by_name(kind, n)


def _largest_cached_degree(family):
    return max(d for f, d in families._PERIOD_CACHE if f == family)


def test_desk_builds_each_family_once_at_its_largest_degree(period_builds):
    # simplicial, hypercubic and hyperoctahedral n = 1 are one family,
    # g = x + 1/x with group order 2, so 13 catalog specs make 11 builds
    reports = harness.run_suite("desk")
    assert len(reports) == 186
    assert len(period_builds) == 11
    assert {_spec(kind, n) for kind, n, _ in period_builds} == {_spec(*kn) for kn in CATALOG}
    for kind, n, D in period_builds:
        assert D == _largest_cached_degree(_spec(kind, n))


def test_a_request_above_every_cached_degree_builds(period_builds):
    family = FamilySpec.hypercubic(2)
    small = families.get_periods(family, 27)
    large = families.get_periods(family, 147)
    assert period_builds == [("hypercubic", 2, 27), ("hypercubic", 2, 147)]
    assert families.get_periods(family, 27) is small
    assert families.get_periods(family, 75).D == 75
    assert len(period_builds) == 2
    assert large.D == 147


def test_n1_catalog_kinds_share_one_key():
    # simplicial, hypercubic and hyperoctahedral n = 1 are all g = x + 1/x
    # with group order 2; an n = 1 is g = 2 + x + 1/x
    keys = {FamilySpec.by_name(kind, 1).key for kind in ("simplicial", "hypercubic", "hyperoctahedral")}
    assert len(keys) == 1 and FamilySpec.a_n(1).key not in keys


def test_specs_compare_and_hash_by_key():
    n1 = [FamilySpec.by_name(kind, 1) for kind in ("simplicial", "hypercubic", "hyperoctahedral")]
    assert n1[0] == n1[1] == n1[2] and len({hash(f) for f in n1}) == 1
    # control: simplicial n = 2's g with group order 1 is another family
    catalog = FamilySpec.simplicial(2)
    assert catalog != FamilySpec.custom(catalog.g) and catalog.group_order == 6


def test_stores_keep_the_group_order_in_the_key(period_builds):
    # simplicial n = 2's g with group order 1 has an excellent lift at p = 3,
    # which must not serve the catalog spec, whose group order 6 p divides
    catalog = FamilySpec.simplicial(2)
    custom = FamilySpec.custom(catalog.g)
    ctx = PadicContext(3, 4)
    assert sigma.get_lift("excellent", custom, ctx, 27).vsigma != 1
    with pytest.raises(DomainError, match="divides"):
        sigma.get_lift("excellent", catalog, ctx, 27)
    with pytest.raises(DomainError, match="divides"):
        harness.verify_dwork(catalog, 3, 1, lift_kind="excellent", Dt=27)


@pytest.fixture
def G_builds(monkeypatch, empty_stores):
    """The (kind, n, D) of each G build, with the harness stores emptied."""
    builds = []
    build = families._periods

    def counted(family, D):
        F, build_G = build(family, D)

        def counted_G():
            builds.append((family.kind, family.n, D))
            return build_G()

        return F, counted_G

    monkeypatch.setattr(families, "_periods", counted)
    return builds


def test_desk_builds_G_once_for_each_family_that_reads_it(G_builds):
    harness.run_suite("desk")
    # hypercubic n = 1 shares its key with simplicial and hyperoctahedral n = 1
    keys = [_spec(kind, n).key for kind, n, _ in G_builds]
    assert sorted(keys) == sorted(_spec(*kn).key for kn in [
        ("hypercubic", 1), ("hypercubic", 2), ("hypercubic", 3), ("hyperoctahedral", 2),
        ("simplicial", 2),
    ])
    for kind, n, D in G_builds:
        assert D == _largest_cached_degree(_spec(kind, n))


@pytest.mark.parametrize("kind,n", [("hypercubic", 2), ("hyperoctahedral", 3), ("an", 2)])
def test_a_truncated_view_reads_G_from_its_base(kind, n, G_builds):
    family = FamilySpec.by_name(kind, n)
    base = PeriodData(family, 75)
    early = base.truncate(27)
    assert early.G[0] == 0  # read before the base has: the base builds G, at 75
    assert G_builds == [(kind, n, 75)]
    late = base.truncate(40)
    assert base.G is base.G and late.G is late.G
    assert G_builds == [(kind, n, 75)]
    for view in (early, late):
        assert view.G.coeffs == PeriodData(family, view.D).G.coeffs
    assert G_builds == [(kind, n, 75), (kind, n, 27), (kind, n, 40)]


@pytest.fixture
def series_builds(monkeypatch):
    """A Counter of the RationalSeries inverts and exps run from here on."""
    calls = Counter()
    for name in ("invert", "exp"):
        run = getattr(RationalSeries, name)

        def counted(self, run=run, name=name):
            calls[name] += 1
            return run(self)

        monkeypatch.setattr(RationalSeries, name, counted)
    return calls


@pytest.mark.parametrize("kind,n", [("hypercubic", 2), ("hyperoctahedral", 3), ("an", 2)])
def test_views_cut_l_W_and_q_from_one_store(kind, n, series_builds):
    family = FamilySpec.by_name(kind, n)
    base = PeriodData(family, 147)
    early = base.truncate(27)
    top = base.truncate(75)
    derived = [top.l, top.W, top.q]
    # l inverts F once and q takes one exp; W needs neither
    assert series_builds == {"invert": 1, "exp": 1}
    views = [early] + [base.truncate(D) for D in (40, 60)]
    got = [[s.coeffs for s in (v.l, v.W, v.q)] for v in views]
    assert series_builds == {"invert": 1, "exp": 1}
    for v, coeffs in zip(views, got):
        fresh = PeriodData(family, v.D)
        assert coeffs == [s.coeffs for s in (fresh.l, fresh.W, fresh.q)]
        assert [s.D for s in (v.l, v.W, v.q)] == [v.D] * 3
    assert [s.coeffs for s in derived] == [
        s.coeffs for s in (PeriodData(family, 75).l, PeriodData(family, 75).W, PeriodData(family, 75).q)]
    # control: a read above 75 builds anew, at its own degree, and is then
    # the store's entry, which the lower views still agree with
    series_builds.clear()
    high = base.truncate(100)
    assert high.q.D == 100 and series_builds == {"invert": 1, "exp": 1}
    assert base._store["q"] is high.q and base._store["l"].D == 100
    assert high.q.truncate(75).coeffs == derived[2].coeffs


def test_data_built_without_init_keeps_a_store_of_its_own(series_builds):
    # the tests build PeriodData stubs with __new__; each gets its own store
    D = 12
    a, b = PeriodData.__new__(PeriodData), PeriodData.__new__(PeriodData)
    for stub, G in ((a, [0, 1]), (b, [0, 2])):
        stub.D, stub.F, stub.G = D, RationalSeries.one(D), RationalSeries(G, D)
    assert a.l.coeffs == [0, 1] + [0] * (D - 1)
    assert b.l.coeffs == [0, 2] + [0] * (D - 1)
    assert a.q != b.q and vars(a)["_store"] is not vars(b)["_store"]


def q_series_oracle(F, G):
    """W, q, A, B and the mirror map by Q-series arithmetic, as the runtime
    built them before the integer period layer: W = F^2 + F thetaG - thetaF G,
    q = t exp(G/F), A and B by Cramer's rule, and Newton reversion of q."""
    tF, t2F = F.theta(), F.theta().theta()
    tG, t2G = G.theta(), G.theta().theta()
    W = F * F + F * tG - tF * G
    Winv = W.invert()
    A = ((F + tG) * t2F - tF * (t2G + 2 * tF)) * Winv
    B = (F * (t2G + 2 * tF) - G * t2F) * Winv
    q = (G * F.invert()).exp().shift(1)
    return W, q, A, B, q.reverse()


def integer_layer(periods):
    A, B = ab_coefficients(periods.F, periods.W)
    return periods.W, canonical_q(periods), A, B, mirror_map(periods)


@pytest.mark.parametrize(
    "family",
    [FamilySpec.by_name(kind, n) for kind, n in CATALOG] + [FamilySpec.custom(CUSTOM_G)],
    ids=lambda f: "%s-n%d" % (f.kind, f.n),
)
def test_integer_period_layer_matches_q_series_oracle(family):
    periods = PeriodData(family, 30)
    got = integer_layer(periods)
    expected = q_series_oracle(periods.F, periods.G)
    assert [s.coeffs for s in got] == [s.coeffs for s in expected]
    # F and every derived series are integral, so they are held as ints
    for s in (periods.F,) + got:
        assert all(type(c) is int for c in s.coeffs)


def test_integer_period_layer_keeps_a_non_integral_G_exact():
    # negative control: G = t/p + t^3/p^2 makes every derived series
    # non-integral at p; the exact divisions keep its value in Q, and
    # reduce_mod is where it fails
    p, D = 5, 12
    periods = PeriodData.__new__(PeriodData)
    periods.D = D
    periods.F = PeriodData(FamilySpec.hypercubic(2), D).F
    periods.G = RationalSeries([0, Fraction(1, p), 0, Fraction(1, p * p)], D)
    got = integer_layer(periods)
    expected = q_series_oracle(periods.F, periods.G)
    assert [s.coeffs for s in got] == [s.coeffs for s in expected]
    assert not is_p_integral(got[1], p)
    ctx = PadicContext(p, 4)
    for s in got:
        with pytest.raises(ReductionError):
            reduce_mod(s, ctx)
