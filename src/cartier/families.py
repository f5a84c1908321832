"""Completely symmetric Calabi-Yau families: the catalog, period series F
and G, the Wronskian, differential-equation coefficients and the canonical
coordinate.

A family is given by a Laurent polynomial g whose non-constant support
consists of the vertices of a reflexive polytope, all with the same
coefficient gamma.  Period series are computed by closed forms for the
named families and by enumeration of the relation lattice of the vertices
in general; the two paths are cross-checked.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

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


def constant_terms(family, D):
    """g_0..g_D, g_k = constant term of g^k, by sparse power accumulation."""
    g = family.g
    n = g.n
    gnorm = max(max(map(abs, u), default=0) for u in g.terms)
    out = [1]
    cur = {(0,) * n: 1}
    for k in range(1, D + 1):
        reach = (D - k) * gnorm
        nxt = {}
        for u, cu in cur.items():
            for w, cw in g.terms.items():
                uw = tuple(a + b for a, b in zip(u, w))
                if max(map(abs, uw), default=0) > reach:
                    continue
                nxt[uw] = nxt.get(uw, 0) + cu * cw
        cur = {u: c for u, c in nxt.items() if c}
        out.append(cur.get((0,) * n, 0))
    return out


def _harmonics(D):
    H = [Fraction(0)]
    for j in range(1, D + 1):
        H.append(H[-1] + Fraction(1, j))
    return H


def _exp_sq_series(D):
    """E = sum t^j/(j!)^2 and E_H = sum H_j t^j/(j!)^2 to degree D."""
    H = _harmonics(D)
    E = RationalSeries(
        [Fraction(1, factorial(j) ** 2) for j in range(D + 1)]
    )
    EH = RationalSeries(
        [H[j] * Fraction(1, factorial(j) ** 2) for j in range(D + 1)]
    )
    return E, EH


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
    if kind == "hyperoctahedral":
        E, EH = _exp_sq_series(D // 2)
        En = _power(E, n)
        mixed = EH * _power(E, n - 1)
        k = 0
        while 2 * k <= D:
            fk = factorial(2 * k)
            F[2 * k] = fk * En[k]
            G[2 * k] = fk * (H[2 * k] * En[k] - mixed[k])
            k += 1
        return RationalSeries(F), RationalSeries(G)
    if kind == "an":
        E, EH = _exp_sq_series(D)
        En1 = _power(E, n + 1)
        mixed = EH * _power(E, n)
        for k in range(D + 1):
            fk2 = factorial(k) ** 2
            F[k] = fk2 * En1[k]
            G[k] = 2 * fk2 * (H[k] * En1[k] - mixed[k])
        return RationalSeries(F), RationalSeries(G)
    raise ConfigError("no closed form for kind %r" % (kind,))


def _power(s, e):
    out = RationalSeries.one(s.D)
    for _ in range(e):
        out = out * s
    return out


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
    """Aggregate the relation enumeration: {(ell_1, s): sum of 1/prod(ell_i!)}
    over relations with ell_2..ell_N >= 0, s = sum_{i>=2} ell_i <= bound and
    ell_1 + s <= deg_bound.  Dynamic programming over partial exponent sums
    merges tails that reach the same state."""
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

    states = {((0,) * n, 0): Fraction(1)}
    for idx in range(m):
        v = others[idx]
        new = {}
        for (w, s), val in states.items():
            invc = Fraction(1)
            for c in range(bound - s + 1):
                if c:
                    invc /= c
                w2 = tuple(a + c * b for a, b in zip(w, v))
                s2 = s + c
                if not feasible(idx + 1, s2, w2):
                    continue
                key = (w2, s2)
                prev = new.get(key)
                add = val * invc
                new[key] = add if prev is None else prev + add
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
                prev = out.get(key)
                out[key] = val2 if prev is None else prev + val2
                return
            invc = Fraction(1)
            for c in range(rem + 1):
                if c:
                    invc /= c
                par(idx + 1, rem - c, acc + c * ratios[idx], val2 * invc, s2 + c)

        par(0, bound - s, Fraction(0), val, s)
    return out


def generic_periods(family, D):
    """F and G to degree D by direct enumeration of the relation lattice."""
    mu = relation_mu(family)
    lam = 1 / (1 - mu)
    bound = int(lam * D) + 1
    weights = _relation_weights(family, bound, deg_bound=D)
    H = _harmonics(D)
    F = [Fraction(0)] * (D + 1)
    G = [Fraction(0)] * (D + 1)
    alpha, gamma = family.alpha, family.gamma
    for (ell1, s), val in weights.items():
        total = ell1 + s
        if total < 0 or total > D:
            continue
        m = 0
        while total + m <= D:
            am = alpha ** m if (alpha or m == 0) else 0
            if am:
                d = total + m
                base = Fraction(factorial(d), factorial(m)) * am * gamma ** total * val
                if ell1 >= 0:
                    w = base / factorial(ell1)
                    F[d] += w
                    G[d] += w * (H[d] - H[ell1])
                else:
                    sign = -1 if ell1 % 2 == 0 else 1  # (-1)^(ell1+1)
                    G[d] += sign * base * factorial(-1 - ell1)
            m += 1
            if alpha == 0:
                break
    return RationalSeries(F), RationalSeries(G)


# (kind, n) -> degree to which the closed form has been checked against the
# enumeration in this process; an entry is made only after a check passes.
_CROSS_CHECKED = {}
# degree of that check; enumeration cost grows fast with it
_CROSS_CHECK_DEGREE = 12


def _periods(family, D):
    if family.kind == "custom":
        return generic_periods(family, D)
    F, G = _closed_FG(family, D)
    d = min(D, _CROSS_CHECK_DEGREE)
    key = (family.kind, family.n)
    if _CROSS_CHECKED.get(key, -1) < d:
        Fg, Gg = generic_periods(family, d)
        if F.truncate(d) != Fg or G.truncate(d) != Gg:
            raise DomainError(
                "closed-form and enumerated periods disagree for %s n=%d"
                % (family.kind, family.n)
            )
        _CROSS_CHECKED[key] = d
    return F, G


class LogPairSeries:
    """a(t) + b(t) log t with theta = t d/dt acting as (a,b) -> (theta a + b, theta b)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        self.a = a
        self.b = RationalSeries.zero(a.D) if b is None else b

    def theta(self):
        return LogPairSeries(self.a.theta() + self.b, self.b.theta())

    def __add__(self, other):
        return LogPairSeries(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return LogPairSeries(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        if isinstance(other, LogPairSeries):
            if other.b.is_zero():
                return LogPairSeries(self.a * other.a, self.b * other.a)
            if self.b.is_zero():
                return LogPairSeries(self.a * other.a, self.a * other.b)
            raise DomainError("product of two genuine log-pairs is not defined")
        return LogPairSeries(self.a * other, self.b * other)

    def is_log_free(self):
        return self.b.is_zero()


class PeriodData:
    """F, G, the Wronskian W = F^2 + F thetaG - thetaF G, and derived data."""

    __slots__ = ("family", "D", "F", "G", "W", "_cache")

    def __init__(self, family, D):
        self.family = family
        self.D = D
        self.F, self.G = _periods(family, D)
        if self.F[0] != 1:
            raise DomainError("F(0) != 1")
        if self.G[0] != 0:
            raise DomainError("G(0) != 0")
        self.W = self.F * self.F + self.F * self.G.theta() - self.F.theta() * self.G
        if self.W[0] != 1:
            raise DomainError("W(0) != 1")
        self._cache = {}

    def truncated_F(self, Nt):
        """The truncation F_Nt = g_0 + g_1 t + ... + g_{Nt-1} t^{Nt-1}."""
        if Nt < 1:
            raise ConfigError("truncation order must be >= 1")
        coeffs = [self.F[i] if i < Nt else Fraction(0) for i in range(self.D + 1)]
        return RationalSeries(coeffs)


def ab_coefficients(periods, D=None):
    """A, B with theta^2 y = B theta y + A y for y = F and y = F log t + G."""
    F, G, W = periods.F, periods.G, periods.W
    if D is not None and D < F.D:
        F, G, W = F.truncate(D), G.truncate(D), W.truncate(D)
    tF, t2F = F.theta(), F.theta().theta()
    tG, t2G = G.theta(), G.theta().theta()
    Winv = W.invert()
    A = ((F + tG) * t2F - tF * (t2G + 2 * tF)) * Winv
    B = (F * (t2G + 2 * tF) - G * t2F) * Winv
    if A[0] != 0 or B[0] != 0:
        raise DomainError("A(0) and B(0) must vanish")
    # defining property, including log-term cancellation
    if not (t2F - B * tF - A * F).is_zero():
        raise DomainError("theta^2 F != B theta F + A F")
    y2 = LogPairSeries(G, F)
    resid = y2.theta().theta() - y2.theta() * B - y2 * A
    if not (resid.a.is_zero() and resid.b.is_zero()):
        raise DomainError("second solution fails the differential equation")
    return A, B


def canonical_q(periods, D=None):
    """q(t) = t exp(G(t)/F(t)).  At the full degree it is built once per
    PeriodData and kept in its cache."""
    F, G = periods.F, periods.G
    if D is not None:
        if D < F.D:
            F, G = F.truncate(D), G.truncate(D)
        return (G * F.invert()).exp().shift(1)
    q = periods._cache.get("q")
    if q is None:
        q = periods._cache["q"] = (G * F.invert()).exp().shift(1)
    return q


def mirror_map(periods, D=None):
    """t as a power series in q: the reversion of canonical_q."""
    return canonical_q(periods, D).reverse()


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
