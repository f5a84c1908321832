"""Completely symmetric Calabi-Yau families: the catalog, period series F
and G, the Wronskian, differential-equation coefficients and the canonical
coordinate.

A family is given by a Laurent polynomial g = alpha + gamma sum_i x^{v_i}
whose non-constant support consists of the vertices v_i of a reflexive
polytope.  Period series are computed by closed forms for the named
families and by enumeration of the relation lattice of the vertices for
custom ones; the tests compare the two paths on the catalog.  The closed
forms keep F in integers and G over one common denominator: for `an` and
`hyperoctahedral`, the powers of E = sum t^j/(j!)^2 they need are the
binomial-square convolution e_{j+1}(k) = sum_i C(k,i)^2 e_j(i), where
e_j(k) = (k!)^2 [t^k] E^j.

The same enumeration gives the coefficients [x^{c v_1}] g^k along the first
vertex (`vertex_coefficients`): a relation ell_1 v_1 + sum_{i>=2} ell_i v_i
= 0 with its v_1 exponent shifted to ell_1 + c >= 0 is a monomial of g^k
at x^{c v_1}.  c = 0 is F.  The enumeration keeps integer weights (sums of
multinomials), so these coefficients are exact ints.

W, q, A, B and the mirror map come from F and G by exact recurrences on
coefficient lists.  A division gives an int when it divides and a Fraction
otherwise, so the catalog stays in integers, and a family that is not
p-integral keeps its exact value in Q and fails in reduce_mod.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm

from .errors import ConfigError, DomainError
from .exactla import solve
from .laurent import LaurentPoly
from .polytope import newton_polytope, support_lattice_index
from .series import RationalSeries


def _sign_vectors(n):
    out = [[]]
    for _ in range(n):
        out = [v + [s] for v in out for s in (1, -1)]
    return [tuple(v) for v in out]


class FamilySpec:
    """A completely symmetric family 1 - t g(x)."""

    __slots__ = (
        "kind",
        "n",
        "g",
        "alpha",
        "gamma",
        "group_order",
        "polytope",
        "vertices",
        "support_index",
    )

    def __init__(self, kind, n, g, group_order):
        self.kind = kind
        self.n = n
        self.g = g
        self.group_order = group_order
        self.alpha = g.constant_term(0)
        P = newton_polytope(g)
        if not P.full_dimensional or not P.is_reflexive():
            raise ConfigError("Newton polytope must be reflexive")
        self.polytope = P
        self.vertices = list(P.vertices)
        vset = set(self.vertices)
        gamma = None
        for u, c in g.terms.items():
            if not any(u):
                continue
            if u not in vset:
                raise ConfigError(
                    "support point %r is not a vertex of the Newton polytope" % (u,)
                )
            if gamma is None:
                gamma = c
            elif c != gamma:
                raise ConfigError("vertex coefficients are not all equal")
        if gamma is None:
            raise ConfigError("g has no non-constant terms")
        if set(g.terms) - vset != ({(0,) * n} if self.alpha else set()):
            raise ConfigError("unexpected support")
        self.gamma = int(gamma)
        self.support_index = support_lattice_index(g)

    @classmethod
    def simplicial(cls, n):
        terms = {}
        for i in range(n):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = 1
        terms[(-1,) * n] = 1
        return cls("simplicial", n, LaurentPoly(n, terms), factorial(n + 1))

    @classmethod
    def hypercubic(cls, n):
        terms = {v: 1 for v in _sign_vectors(n)}
        return cls("hypercubic", n, LaurentPoly(n, terms), 2 ** n * factorial(n))

    @classmethod
    def hyperoctahedral(cls, n):
        terms = {}
        for i in range(n):
            for s in (1, -1):
                e = [0] * n
                e[i] = s
                terms[tuple(e)] = 1
        return cls("hyperoctahedral", n, LaurentPoly(n, terms), 2 ** n * factorial(n))

    @classmethod
    def a_n(cls, n):
        ones = LaurentPoly(n, {(0,) * n: 1})
        up = ones
        down = ones
        for i in range(n):
            e = [0] * n
            e[i] = 1
            up = up + LaurentPoly(n, {tuple(e): 1})
            down = down + LaurentPoly(n, {tuple(-x for x in e): 1})
        return cls("an", n, up * down, 2 * factorial(n + 1))

    @classmethod
    def custom(cls, g, group_order=1):
        return cls("custom", g.n, g, group_order)

    @classmethod
    def by_name(cls, name, n):
        name = name.lower()
        if name == "simplicial":
            return cls.simplicial(n)
        if name == "hypercubic":
            return cls.hypercubic(n)
        if name == "hyperoctahedral":
            return cls.hyperoctahedral(n)
        if name in ("an", "a_n"):
            return cls.a_n(n)
        raise ConfigError("unknown family %r" % (name,))


def _harmonics(D):
    H = [Fraction(0)]
    for j in range(1, D + 1):
        H.append(H[-1] + Fraction(1, j))
    return H


def _square_binomial_powers(m, D):
    """e_m(0..D) for e_0(k) = [k = 0] and e_{j+1}(k) = sum_i C(k,i)^2 e_j(i),
    so that e_m(k) = (k!)^2 [t^k] E^m for E = sum_j t^j/(j!)^2."""
    e = [1] + [0] * D
    for _ in range(m):
        e = [sum(comb(k, i) ** 2 * e[i] for i in range(k + 1)) for k in range(D + 1)]
    return e


def _closed_FG(family, D):
    kind, n = family.kind, family.n
    F = [Fraction(0)] * (D + 1)
    G = [Fraction(0)] * (D + 1)
    H = _harmonics(D)
    if kind == "simplicial":
        k = 0
        while (n + 1) * k <= D:
            d = (n + 1) * k
            c = Fraction(factorial((n + 1) * k), factorial(k) ** (n + 1))
            F[d] = c
            G[d] = c * (H[(n + 1) * k] - H[k])
            k += 1
        return RationalSeries(F), RationalSeries(G)
    if kind == "hypercubic":
        k = 0
        while 2 * k <= D:
            c = Fraction(comb(2 * k, k) ** n)
            F[2 * k] = c
            G[2 * k] = c * n * (H[2 * k] - H[k])
            k += 1
        return RationalSeries(F), RationalSeries(G)
    # the harmonic weights over one denominator L, so that G sums ints
    L = lcm(*range(1, D + 1))
    HL = [int(h * L) for h in H]
    if kind == "hyperoctahedral":
        # (2k)! [t^k] E^n and (2k)! [t^k] (H_{2k} E^n - E_H E^(n-1)), where
        # E_H = sum_j H_j t^j/(j!)^2
        e = _square_binomial_powers(n - 1, D // 2)
        for k in range(D // 2 + 1):
            c = comb(2 * k, k)
            terms = [comb(k, i) ** 2 * e[k - i] for i in range(k + 1)]
            F[2 * k] = c * sum(terms)
            G[2 * k] = Fraction(c * sum(x * (HL[2 * k] - HL[i]) for i, x in enumerate(terms)), L)
        return RationalSeries(F), RationalSeries(G)
    if kind == "an":
        # (k!)^2 [t^k] E^(n+1) and 2 (k!)^2 [t^k] (H_k E^(n+1) - E_H E^n)
        e = _square_binomial_powers(n, D)
        for k in range(D + 1):
            terms = [comb(k, i) ** 2 * e[k - i] for i in range(k + 1)]
            F[k] = sum(terms)
            G[k] = Fraction(2 * sum(x * (HL[k] - HL[i]) for i, x in enumerate(terms)), L)
        return RationalSeries(F), RationalSeries(G)
    raise ConfigError("no closed form for kind %r" % (kind,))


def relation_mu(family):
    """mu = max{mu' : mu' v1 in conv(v2,..,vN)}, by exact enumeration of
    basic solutions of the defining linear program."""
    verts = family.vertices
    v1 = verts[0]
    others = verts[1:]
    n = family.n
    best = Fraction(0)
    for size in range(1, n + 2):
        for sub in combinations(others, size):
            # mu*v1 = sum lam_i v_i, sum lam_i = 1; unknowns (lam_1.., mu)
            rows = [[Fraction(v[i]) for v in sub] + [-Fraction(v1[i])] for i in range(n)]
            rows.append([Fraction(1)] * size + [Fraction(0)])
            rhs = [Fraction(0)] * n + [Fraction(1)]
            sol = solve(rows, rhs)
            if sol is None:
                continue
            lams, mu = sol[:size], sol[size]
            if all(l >= 0 for l in lams) and mu > best:
                # confirm (solve may return one of many solutions)
                ok = all(
                    sum(lams[j] * sub[j][i] for j in range(size)) == mu * v1[i]
                    for i in range(n)
                )
                if ok:
                    best = mu
    if best >= 1:
        raise DomainError("relation cone is degenerate (mu >= 1)")
    return best


def _relation_weights(family, bound, deg_bound):
    """Aggregate the relation enumeration ell_1 v_1 + sum_{i>=2} ell_i v_i = 0:
    {(ell_1, s): s! * sum of 1/prod_{i>=2}(ell_i!)} over relations with
    ell_2..ell_N >= 0, s = sum_{i>=2} ell_i <= bound and ell_1 + s <=
    deg_bound.  Each value is a sum of multinomials s!/prod(ell_i!), so an
    int.  Dynamic programming over partial exponent sums merges tails that
    reach the same state."""
    verts = family.vertices
    v1 = verts[0]
    n = family.n
    j0 = next(i for i in range(n) if v1[i])

    def parallel_ratio(v):
        q = Fraction(v[j0], v1[j0])
        return q if all(Fraction(v[i]) == q * v1[i] for i in range(n)) else None

    parallel = [v for v in verts[1:] if parallel_ratio(v) is not None]
    ratios = [parallel_ratio(v) for v in parallel]
    others = sorted(
        (v for v in verts[1:] if parallel_ratio(v) is None),
        key=lambda v: tuple(-abs(v[i]) for i in range(n - 1, -1, -1)),
    )
    m = len(others)
    suffix = [[0] * n for _ in range(m + 1)]
    for idx in range(m - 1, -1, -1):
        for i in range(n):
            suffix[idx][i] = max(suffix[idx + 1][i], abs(others[idx][i]))

    def feasible(idx, s, w):
        budget = bound - s
        reach = suffix[idx]
        lo, hi = None, None
        for i in range(n):
            slack = budget * reach[i]
            vi = v1[i]
            if vi == 0:
                if w[i] > slack or -w[i] > slack:
                    return False
                continue
            a, b = -w[i] - slack, -w[i] + slack
            if vi > 0:
                clo, chi = -((-a) // vi), b // vi
            else:
                clo, chi = -((-b) // vi), a // vi
            if lo is None or clo > lo:
                lo = clo
            if hi is None or chi < hi:
                hi = chi
            if lo > hi:
                return False
        return lo is None or lo + s <= deg_bound

    # adding c copies of a vertex to a state of exponent sum s multiplies
    # its value by (s + c)!/(s! c!)
    states = {((0,) * n, 0): 1}
    for idx in range(m):
        v = others[idx]
        new = {}
        for (w, s), val in states.items():
            for c in range(bound - s + 1):
                w2 = tuple(a + c * b for a, b in zip(w, v))
                s2 = s + c
                if not feasible(idx + 1, s2, w2):
                    continue
                key = (w2, s2)
                new[key] = new.get(key, 0) + val * comb(s2, c)
        states = new
    out = {}
    for (w, s), val in states.items():
        c0 = Fraction(w[j0], v1[j0])
        if any(Fraction(w[i]) != c0 * v1[i] for i in range(n)):
            continue

        def par(idx, rem, acc, val2, s2):
            if idx == len(parallel):
                ell1 = -c0 - acc
                if ell1.denominator != 1:
                    return
                e1 = int(ell1)
                if e1 + s2 > deg_bound:
                    return
                key = (e1, s2)
                out[key] = out.get(key, 0) + val2
                return
            for c in range(rem + 1):
                par(idx + 1, rem - c, acc + c * ratios[idx], val2 * comb(s2 + c, c), s2 + c)

        par(0, bound - s, Fraction(0), val, s)
    return out


def _weights_to_degree(family, D):
    """The relation weights that reach every t-degree <= D of [x^{c v_1}] g^k
    for all c >= 0: a relation with ell_1 v_1 shifted by c counts in degree
    >= ell_1 + c + s >= s (1 - mu) + c, so s <= D/(1 - mu) suffices."""
    mu = relation_mu(family)
    bound = int(D / (1 - mu)) + 1
    return _relation_weights(family, bound, deg_bound=D)


def _constant_powers(alpha, room):
    """The numbers m of factors alpha of g^d in a term with room degrees
    to spare: 0..room, or only 0 when alpha = 0."""
    return range(room + 1 if alpha else min(room, 0) + 1)


def _shifted_terms(family, weights, c, D):
    """The terms of [x^{c v_1}] g^d for d <= D, as (d, ell_1, term) with
    term = d!/(m! L! s!) alpha^m gamma^(L+s) val, L = ell_1 + c >= 0: the
    x^{v_1} exponent is L and the constant term of g is taken m times."""
    alpha, gamma = family.alpha, family.gamma
    for (ell1, s), val in weights.items():
        L = ell1 + c
        if L < 0:
            continue
        total = L + s
        for m in _constant_powers(alpha, D - total):
            d = total + m
            term = factorial(d) // (factorial(m) * factorial(L) * factorial(s))
            yield d, ell1, term * alpha ** m * gamma ** total * val


def vertex_coefficients(family, D, cs):
    """For each c in cs, the exact coefficients [x^{c v_1}] g^k, k = 0..D, of
    1/(1 - t g) along the first vertex v_1, as a list of D + 1 ints.  All of
    them come from one enumeration of the relation lattice."""
    if any(c < 0 for c in cs):
        raise ConfigError("vertex multiples must be >= 0")
    weights = _weights_to_degree(family, D)
    out = []
    for c in cs:
        coeffs = [0] * (D + 1)
        for d, _, term in _shifted_terms(family, weights, c, D):
            coeffs[d] += term
        out.append(coeffs)
    return out


def generic_periods(family, D):
    """F and G to degree D by direct enumeration of the relation lattice: F
    is [x^0] of 1/(1 - t g), and G adds the relations with ell_1 < 0."""
    weights = _weights_to_degree(family, D)
    H = _harmonics(D)
    F = [0] * (D + 1)
    G = [Fraction(0)] * (D + 1)
    for d, ell1, term in _shifted_terms(family, weights, 0, D):
        F[d] += term
        G[d] += term * (H[d] - H[ell1])
    alpha, gamma = family.alpha, family.gamma
    for (ell1, s), val in weights.items():
        total = ell1 + s
        if ell1 >= 0 or total < 0:
            continue
        sign = -1 if ell1 % 2 == 0 else 1  # (-1)^(ell1+1)
        for m in _constant_powers(alpha, D - total):
            d = total + m
            G[d] += Fraction(
                sign * factorial(d) * factorial(-1 - ell1) * alpha ** m * gamma ** total * val,
                factorial(m) * factorial(s),
            )
    return RationalSeries(F), RationalSeries(G)


def _periods(family, D):
    if family.kind == "custom":
        return generic_periods(family, D)
    return _closed_FG(family, D)


class PeriodData:
    """F and G to degree D.  Series derived from them, the Wronskian W and
    the canonical coordinate q, are built on first read and kept in
    `_cache`."""

    __slots__ = ("family", "D", "F", "G", "_cache")

    def __init__(self, family, D):
        self.family = family
        self.D = D
        self.F, self.G = _periods(family, D)
        if self.F[0] != 1:
            raise DomainError("F(0) != 1")
        if self.G[0] != 0:
            raise DomainError("G(0) != 0")
        self._cache = {}

    @property
    def W(self):
        """The Wronskian W = F^2 + F thetaG - thetaF G = F^2 (1 + theta(G/F))."""
        W = self._cache.get("W")
        if W is None:
            F, c = _exact(self.F), _theta_log_u(self)
            W = self._cache["W"] = RationalSeries(_mul(_mul(F, F), [1] + c[1:]), self.D)
        return W

    def truncated_F(self, Nt):
        """The truncation F_Nt = g_0 + g_1 t + ... + g_{Nt-1} t^{Nt-1}."""
        if Nt < 1:
            raise ConfigError("truncation order must be >= 1")
        return RationalSeries(self.F._c[:Nt], self.D)


def _exact(s):
    """The D + 1 coefficients of a RationalSeries, integers as ints."""
    return [c.numerator if c.denominator == 1 else c for c in s.coeffs]


def _quo(x, d):
    """x / d exactly: an int when d divides the int x, else a Fraction."""
    return x // d if type(x) is int and x % d == 0 else Fraction(x, d)


def _mul(a, b):
    """The product of two coefficient lists of one length, cut there."""
    return [sum(b[k] * a[m - k] for k in range(m + 1) if b[k]) for m in range(len(a))]


def _over(a, b):
    """a/b for two coefficient lists of one length, b[0] = 1."""
    out, nonzero = [], []
    for m, y in enumerate(b):
        if y and m:
            nonzero.append((m, y))
        out.append(a[m] - sum(y * out[m - k] for k, y in nonzero))
    return out


def _exp_theta(c, s, n):
    """Coefficients 0..n of exp(s l), where l(0) = 0 and theta l = c: the
    recurrence m e_m = s sum_{j=1..m} c_j e_{m-j}."""
    e, nonzero = [1], []
    for m in range(1, n + 1):
        if c[m]:
            nonzero.append((m, c[m]))
        e.append(_quo(s * sum(y * e[m - j] for j, y in nonzero), m))
    return e


def _theta_log_u(periods):
    """c = theta(G/F) = theta log(q/t), as theta(G^/F)/L for G = G^/L over
    the lcm L of G's denominators; kept in the cache."""
    c = periods._cache.get("c")
    if c is None:
        G = periods.G.coeffs
        L = lcm(*(x.denominator for x in G))
        ratio = _over([x.numerator * (L // x.denominator) for x in G], _exact(periods.F))
        c = periods._cache["c"] = [_quo(k * x, L) for k, x in enumerate(ratio)]
    return c


def ab_coefficients(periods):
    """A, B with theta^2 y = B theta y + A y for y = F and y = F log t + G.
    Cramer's rule on those two equations, whose determinant is -W, gives
    B = thetaW/W; the equation for y = F then gives
    A = (theta^2F - B thetaF)/F."""
    F, W = _exact(periods.F), _exact(periods.W)
    tF, t2F = _exact(periods.F.theta()), _exact(periods.F.theta().theta())
    B = _over(_exact(periods.W.theta()), W)
    A = _over([x - y for x, y in zip(t2F, _mul(tF, B))], F)
    return RationalSeries(A, periods.D), RationalSeries(B, periods.D)


def canonical_q(periods):
    """q(t) = t exp(G(t)/F(t)) = t u, with u(0) = 1 and theta u = u
    theta(G/F); built once per PeriodData and kept in its cache."""
    q = periods._cache.get("q")
    if q is None:
        u = _exp_theta(_theta_log_u(periods), 1, periods.F.D - 1)
        q = periods._cache["q"] = RationalSeries([0] + u, periods.F.D)
    return q


def mirror_map(periods):
    """t as a power series in q, the reversion of q = t u, by Lagrange
    inversion: [q^k] t = (1/k) [t^(k-1)] u^(-k), where u^(-k) = exp(-k G/F)."""
    c, D = _theta_log_u(periods), periods.F.D
    t = [0] + [_quo(_exp_theta(c, -k, k - 1)[-1], k) for k in range(1, D + 1)]
    return RationalSeries(t, D)


def pq_polynomial(n, Q):
    """The Laurent polynomial t^{-Q} sum_{k<=(Q-1)/2} P(n,Q,k) t^{2k} with
    P(n,Q,k) = ((2k-Q)(2k-1-Q)...(k+1-Q)/k!)^n.  Returns {t-exponent: int}."""
    if Q < 1 or Q % 2 == 0:
        raise DomainError("Q must be odd and positive")
    out = {}
    for k in range((Q - 1) // 2 + 1):
        num = 1
        for j in range(k + 1 - Q, 2 * k - Q + 1):
            num *= j
        c = Fraction(num, factorial(k)) ** n
        if c.denominator != 1:
            raise DomainError("non-integer coefficient in P_Q")
        if c:
            out[2 * k - Q] = int(c)
    return out
