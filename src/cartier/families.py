"""Period data of the completely symmetric Calabi-Yau families whose specs
`catalog` builds: the period series F and G, the Wronskian,
differential-equation coefficients and the canonical coordinate.

A family is given by a Laurent polynomial g = alpha + gamma sum_i x^{v_i}
whose non-constant support consists of the vertices v_i of a reflexive
polytope.  The coefficients [x^u] g^k are taken from one closed form per
named kind (`_closed_terms`) and by enumeration of the relation lattice of
the vertices for custom ones; the tests compare the two paths on the
catalog.  F is the coefficient at u = 0, and `vertex_coefficients` reads it
along the first vertex, u = c v_1.  G takes F's summands again, weighted by
the harmonic numbers, with one weight w per kind.  Both paths keep F in
integers and G, built on first read, in integers over one common
denominator.  For `an` and `hyperoctahedral` the coefficients are products
of the series E_c(z) = sum_w z^w/(w!(w+c)!), taken in ints one factor at a
time by a memoized chain of convolutions (`_e_sums`), which keeps the
running sums of each sorted prefix of shifts; for c = 0 it is the
binomial-square convolution e_{j+1}(k) = sum_i C(k,i)^2 e_j(i), where
e_j(k) = (k!)^2 [t^k] E_0^j, so `an` n starts from `an` n - 1, and G forms
only the last factor's summands from the stored sums (`_e_summands`).  In
the enumeration, a relation ell_1 v_1 + sum_{i>=2} ell_i v_i = 0 with its
v_1 exponent shifted to ell_1 + c >= 0 is a monomial of g^k at x^{c v_1},
and the weights are sums of multinomials, so these coefficients are exact
ints too.

G, l = G/F, W and q are cached properties of `PeriodData`; W, q, A, B and
the mirror map are RationalSeries formulas in F and l.  A RationalSeries
keeps an integral coefficient as an int, and for the catalog theta(l) is
integral, so these products and recurrences run in ints; a family that is
not p-integral keeps its exact value in Q and fails in reduce_mod.
"""

from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb, factorial, lcm, prod
from operator import add, mul

from .errors import ConfigError, DomainError
from .polytope import signed_minors
from .series import RationalSeries, exp_from_theta, quo


def _harmonics(D):
    """L = lcm(1..D) and the harmonic numbers L H_0, .., L H_D over it."""
    L = lcm(*range(1, D + 1))
    H = [0]
    for j in range(1, D + 1):
        H.append(H[-1] + L // j)
    return L, H


@cache
def _e_sums(shifts, M):
    """R_m = m!(m-S)! [z^m] prod_i z^{max(u_i,0)} E_{|u_i|}(z), m = 0..M, as
    a tuple of ints, for a tuple of shifts u_i in decreasing order with
    S = sum(shifts) >= 0 and E_c(z) = sum_w z^w/(w!(w+c)!).  R_m is a sum of
    products of two multinomials, so an int.  Each prefix of the shifts is
    an entry of its own, built once and never changed, so the zero-shift
    chain of `an` n - 1 is the start of that of `an` n."""
    if not shifts:
        return (1,) + (0,) * M
    return tuple(map(sum, _e_summands(shifts, M)))


def _e_summands(shifts, M):
    """For m = 0..M, an iterator over the summands of R_m (`_e_sums`) for the
    last factor.  It takes the sums R' of the shifts before it, of sum S', to
    R_m = sum_j C(m,j) C(m-S'-u, j-S') R'_j over j >= S' and m - j >= max(u, 0),
    for the last shift u; in decreasing order every partial sum is >= 0.  For
    u = S' = 0 it is the binomial-square convolution
    e_{i+1}(m) = sum_j C(m,j)^2 e_i(j) of e_i(m) = (m!)^2 [t^m] E_0^i.  The
    binomial rows are formed on the way and dropped after the last m."""
    *head, u = shifts
    S = sum(head)
    T, lo = S + u, max(u, 0)
    Rs = _e_sums(tuple(head), M)[S:]
    rows, row = [], [1]
    for m in range(M + 1):
        rows.append(row)
        row = list(map(add, [0] + row, row + [0]))
        yield map(mul, map(mul, rows[m][S : m - lo + 1], rows[m - T]), Rs) if m - lo >= S else ()


def _e_column(us, M, H=None):
    """R_0..R_M of `_e_sums` for the shifts us in any order; with harmonic
    numbers H, sum_i r_i H_(m-i) over the summands r_i of R_m instead, which
    only G reads, at u = 0, where the shifts before the last sum to 0."""
    shifts = tuple(sorted(us, reverse=True))
    if H is None:
        return _e_sums(shifts, M)
    return [sum(map(mul, r, H[m::-1])) for m, r in enumerate(_e_summands(shifts, M))]


# the weight w of each catalog kind's G: G_k = w (H_k F_k - F^H_k), F^H the
# summands of F_k weighted by harmonic numbers (`_closed_terms` with H).  For
# `hyperoctahedral` and `an` these are (2k)! [t^k] (H_{2k} E^n - E_H E^(n-1))
# and 2 (k!)^2 [t^k] (H_k E^(n+1) - E_H E^n), where E = E_0 and
# E_H = sum_j H_j t^j/(j!)^2: the summands of e_n(k) are C(k,j)^2 e_(n-1)(j),
# which E_H weights by H_(k-j)
_G_WEIGHTS = {
    "simplicial": lambda n: 1,
    "hypercubic": lambda n: n,
    "hyperoctahedral": lambda n: 1,
    "an": lambda n: 2,
}


def _closed_FG(family, D):
    """F in ints, and a function that builds G in ints over L = lcm(1..D)
    from the harmonic numbers L H_j of _harmonics.  F is _closed_terms at
    u = 0, and G_k = w (H_k F_k - F^H_k) with the kind's w of _G_WEIGHTS and
    F^H from _closed_terms with H.  F takes the sums of the shift chain
    directly; G forms only the last factor's summands, from the sums stored
    for the factors before it, so it runs no second convolution, and F alone
    costs no harmonic sums."""
    origin = (0,) * family.n
    F = _closed_terms(family, origin, D)

    def build_G():
        w = _G_WEIGHTS[family.kind](family.n)
        L, H = _harmonics(D)
        FH = _closed_terms(family, origin, D, H)
        G = [w * (H[k] * f - x) for k, (f, x) in enumerate(zip(F, FH))]
        return RationalSeries([quo(x, L) for x in G])

    return RationalSeries(F), build_G


def relation_mu(family):
    """mu = max{mu' : mu' v1 in conv(v2,..,vN)}, the linear program
    mu v1 = sum lam_i v_i, sum lam_i = 1, lam >= 0.  An optimum with mu > 0
    is a basic solution whose basis is mu and n of the lam: the columns
    (v_i, 1) and (-v1, 0) span Q^(n+1), as 0 is interior to Delta.  So
    Cramer's rule over the n-subsets of v2..vN finds it, with the last-row
    cofactors over their sum, the determinant."""
    verts = family.vertices
    v1 = verts[0]
    n = family.n
    best = Fraction(0)
    for sub in combinations(verts[1:], n):
        cof = signed_minors([[v[i] for v in sub] + [-v1[i]] for i in range(n)])
        d = sum(cof[:n])
        if d and all(c * d >= 0 for c in cof[:n]):
            best = max(best, Fraction(cof[n], d))
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


def _closed_terms(family, u, D, H=None):
    """[x^u] g^k for k = 0..D as ints, for a catalog family and any u.  Each
    is c sum(r) over summands r: one, r = 1, for `simplicial` and
    `hypercubic`, and for `an` and `hyperoctahedral` those of the last factor
    of a shift chain, whose sum `_e_sums` stores.  Given harmonic numbers H,
    each is c sum_i r_i H_(k/step - i) instead, step the spacing of the
    nonzero terms of F; only G reads this, at u = 0."""
    kind, n, S = family.kind, family.n, sum(u)
    weight = H or [1] * (D + 1)
    if kind == "hypercubic":
        # prod_i C(k, (k+|u_i|)/2), nonzero only at k >= max |u_i| with
        # k = u_i mod 2 for every i, so nowhere when the u_i differ in parity
        out = [0] * (D + 1)
        if len({x % 2 for x in u}) == 1:
            for k in range(max(map(abs, u)), D + 1, 2):
                out[k] = prod(comb(k, (k + abs(x)) // 2) for x in u) * weight[k // 2]
        return out
    if kind == "an":
        # g = sum_{i,j=0..n} x_i/x_j with x_0 = 1, so [x^u] g^k = (k!)^2 [z^k] of
        # the product over u_1..u_n and u_0 = -S, which is R_k for shift sum 0
        return list(_e_column(tuple(u) + (-S,), D, H))
    out = [0] * (D + 1)
    if kind == "simplicial":
        # b factors 1/(x_1..x_n) and u_i + b factors x_i: k = S + (n+1) b
        b0 = max(0, -min(u))
        for k in range(S + (n + 1) * b0, D + 1, n + 1):
            b = (k - S) // (n + 1)
            out[k] = factorial(k) // (factorial(b) * prod(factorial(x + b) for x in u)) * weight[b]
    elif kind == "hyperoctahedral":
        # k! [z^k] prod_i z^{|u_i|} E_{|u_i|}(z^2) = C(k, w) R_{w+T} at
        # k = 2w + T, for the shifts |u_i|
        T = sum(map(abs, u))
        if T <= D:
            R = _e_column([abs(x) for x in u], (D + T) // 2, H)
            for w in range((D - T) // 2 + 1):
                out[2 * w + T] = comb(2 * w + T, w) * R[w + T]
    else:
        raise ConfigError("no closed form for kind %r" % (kind,))
    return out


def vertex_coefficients(family, D, cs):
    """For each c in cs, the exact coefficients [x^{c v_1}] g^k, k = 0..D, of
    1/(1 - t g) along the first vertex v_1, as a list of D + 1 ints.  The
    catalog families take them from _closed_terms; a custom family takes
    them all from one enumeration of the relation lattice."""
    if any(c < 0 for c in cs):
        raise ConfigError("vertex multiples must be >= 0")
    v1 = family.vertices[0]
    if family.kind != "custom":
        return [_closed_terms(family, [c * x for x in v1], D) for c in cs]
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
    is [x^0] of 1/(1 - t g), and G adds the relations with ell_1 < 0.  G is
    summed in ints over L = lcm(1..S), S the largest s of a relation: the
    term d!(a-1)!/(m! s!) of a relation with ell_1 = -a has denominator
    a C(s, a), which divides lcm(1..s)."""
    weights = _weights_to_degree(family, D)
    L, H = _harmonics(max([D] + [s for _, s in weights]))
    F = [0] * (D + 1)
    G = [0] * (D + 1)
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
            G[d] += (
                sign * L * factorial(d) * factorial(-1 - ell1) // (factorial(m) * factorial(s))
                * alpha ** m * gamma ** total * val
            )
    return RationalSeries(F), RationalSeries([quo(x, L) for x in G])


def _periods(family, D):
    """F to degree D, and a function that builds G to degree D."""
    if family.kind == "custom":
        F, G = generic_periods(family, D)
        return F, lambda: G
    return _closed_FG(family, D)


class PeriodData:
    """F and G to degree D.  F is built with the data; G, l = G/F, the
    Wronskian W and the canonical coordinate q are cached properties, built
    on first read.  `truncate` serves a lower degree from the same data
    without building it again."""

    def __init__(self, family, D):
        self.D = D
        self.F, self._build_G = _periods(family, D)
        if self.F[0] != 1:
            raise DomainError("F(0) != 1")

    @cached_property
    def G(self):
        G = self._build_G()
        if G[0] != 0:
            raise DomainError("G(0) != 0")
        return G

    @cached_property
    def l(self):
        """l = G/F = log(q/t), as (G L) F^-1 (1/L) over the lcm L of G's
        denominators, so that the product is taken in ints.  theta(l) is
        integral for the catalog families."""
        L = lcm(*(c.denominator for c in self.G._c))
        return self.G * L * self.F.invert() * Fraction(1, L)

    @cached_property
    def W(self):
        """The Wronskian W = F^2 + F thetaG - thetaF G = F^2 (1 + theta(G/F))."""
        return self.F * self.F * (self.l.theta() + 1)

    @cached_property
    def q(self):
        """q(t) = t exp(G(t)/F(t))."""
        return self.l.exp().shift(1)

    def truncate(self, D):
        """The same data at degree D <= self.D, without calling `__init__`:
        every series already built cut at D, and G, if not built yet, cut
        from self's on first read, so it is built once.  Any other series
        first read later is built at D on the result.  This is exact, as each
        derived series is causal over Q: its coefficient k reads only
        coefficients <= k."""
        if D > self.D:
            raise ConfigError("cannot extend periods of degree %d to %d" % (self.D, D))
        view = PeriodData.__new__(PeriodData)
        vars(view).update(
            (name, s.truncate(D)) for name, s in vars(self).items() if isinstance(s, RationalSeries))
        view.D, view._build_G = D, lambda: self.G.truncate(D)
        return view


# (family, D) -> PeriodData: a miss is served by truncating the same family's
# data at a larger degree, which is exact, and builds only when D is above
# every cached degree; `harness._desk_checks` runs its primes in descending
# order, so each family is built once, at its largest D.  A FamilySpec
# compares and hashes by its g and group order, so specs of any kind with the
# same g and group order share the store.
_PERIOD_CACHE = {}


def get_periods(family, D):
    """The PeriodData of a family at degree D, cached by (family, D)."""
    periods = _PERIOD_CACHE.get((family, D))
    if periods is None:
        base = max(
            (cached for (f, _), cached in _PERIOD_CACHE.items() if f == family),
            key=lambda cached: cached.D,
            default=None,
        )
        periods = base.truncate(D) if base and base.D > D else PeriodData(family, D)
        _PERIOD_CACHE[family, D] = periods
    return periods


def ab_coefficients(periods):
    """A, B with theta^2 y = B theta y + A y for y = F and y = F log t + G.
    Cramer's rule on those two equations, whose determinant is -W, gives
    B = thetaW/W; the equation for y = F then gives
    A = (theta^2F - B thetaF)/F."""
    F, W = periods.F, periods.W
    B = W.theta() * W.invert()
    A = (F.theta().theta() - F.theta() * B) * F.invert()
    return A, B


def canonical_q(periods):
    """q(t) = t exp(G(t)/F(t)), built once per PeriodData."""
    return periods.q


def mirror_map(periods):
    """t as a power series in q, the reversion of q = t exp(l), l = G/F, by
    Lagrange inversion: [q^k] t = (1/k) [t^(k-1)] exp(-k l).  theta(l) is
    taken once, and each exp runs its recurrence on theta(-k l) = -k theta(l),
    in ints for the catalog families."""
    l = periods.l
    th = l.theta()._c
    t = [0] + [quo(exp_from_theta([-k * c for c in th[:k]], k - 1)[k - 1], k)
               for k in range(1, l.D + 1)]
    return RationalSeries(t, l.D)


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
