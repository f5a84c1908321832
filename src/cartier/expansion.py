"""Formal Laurent expansions at a vertex and the Cartier operator.

An element prefactor * A(x)/f(x)^m is expanded as a Laurent series
supported in the cone C(Delta - b); truncation is controlled by an
integer grading functional ell, strictly positive on the cone.
"""

from fractions import Fraction
from math import comb, factorial, gcd

from .errors import ConfigError, ExpansionError, PrecisionError
from .laurent import cartier_poly, poly_pow
from .padic import ord_p
from .polytope import newton_polytope
from .series import PadicSeries


class RationalElement:
    """prefactor * A(x) / f(x)^m."""

    __slots__ = ("m", "A", "f", "prefactor")

    def __init__(self, m, A, f, prefactor=1):
        if m < 1:
            raise ConfigError("pole order must be >= 1")
        self.m = m
        self.A = A
        self.f = f
        self.prefactor = Fraction(prefactor)

    def __repr__(self):
        return "RationalElement(m=%d, |A|=%d, prefactor=%s)" % (
            self.m,
            len(self.A.terms),
            self.prefactor,
        )


class ConeExpansion:
    """Truncated Laurent expansion: exponent -> coefficient.

    mode 'cone': supported in C(Delta-b), truncated at ell(u) <= bound.
    mode 'cy': supported anywhere with sup-norm <= bound (t-adic expansions).
    """

    __slots__ = ("n", "vertex", "ell", "bound", "terms", "mode")

    def __init__(self, n, vertex, ell, bound, terms, mode="cone"):
        self.n = n
        self.vertex = vertex
        self.ell = ell
        self.bound = bound
        self.terms = {u: c for u, c in terms.items() if c}
        self.mode = mode

    def coeff(self, u, default=0):
        return self.terms.get(tuple(u), default)

    def map_coeffs(self, fn):
        return ConeExpansion(
            self.n,
            self.vertex,
            self.ell,
            self.bound,
            {u: fn(c) for u, c in self.terms.items()},
            self.mode,
        )

    def add(self, other, scale=1):
        terms = dict(self.terms)
        for u, c in other.terms.items():
            s = c * scale
            prev = terms.get(u)
            s = s if prev is None else prev + s
            if s:
                terms[u] = s
            elif u in terms:
                del terms[u]
        return ConeExpansion(
            self.n, self.vertex, self.ell, min(self.bound, other.bound), terms, self.mode
        )

    def restrict(self, bound):
        if self.mode == "cone":
            keep = {
                u: c
                for u, c in self.terms.items()
                if sum(l * e for l, e in zip(self.ell, u)) <= bound
            }
        else:
            keep = {
                u: c for u, c in self.terms.items() if max(map(abs, u), default=0) <= bound
            }
        return ConeExpansion(self.n, self.vertex, self.ell, bound, keep, self.mode)

    def __eq__(self, other):
        if not isinstance(other, ConeExpansion):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[u] == other.terms[u] for u in self.terms)


def grading_functional(generators, n, max_norm=30):
    """Smallest integer covector ell with ell(w) >= 1 on all cone generators."""
    gens = [g for g in generators if any(g)]
    if not gens:
        raise ExpansionError("empty generator set")

    def candidates(B):
        if n == 1:
            yield (B,)
            yield (-B,)
            return
        # all vectors with max-norm exactly B, deterministic order
        def rec(prefix):
            if len(prefix) == n:
                if max(abs(x) for x in prefix) == B:
                    yield tuple(prefix)
                return
            for x in range(-B, B + 1):
                yield from rec(prefix + [x])

        yield from rec([])

    for B in range(1, max_norm + 1):
        for ell in candidates(B):
            if all(sum(l * w for l, w in zip(ell, g)) >= 1 for g in gens):
                return ell
    raise ExpansionError("no grading functional found; cone is not pointed?")


def invert_coefficient(c):
    """1/c for a PadicSeries (InvertError unless its constant term is a unit)
    or an exact scalar (ExpansionError if it is zero)."""
    if isinstance(c, PadicSeries):
        return c.invert()
    c = Fraction(c)
    if c == 0:
        raise ExpansionError("vertex coefficient is zero")
    return 1 / c


def _ell_value(ell, u):
    return sum(l * e for l, e in zip(ell, u))


def expand_at_vertex(elem, b, bound, ell=None):
    """Cone expansion of elem at the vertex b of Newton(f), to ell-degree bound."""
    f = elem.f
    n = f.n
    b = tuple(b)
    P = newton_polytope(f)
    if b not in P.vertices:
        raise ExpansionError("%r is not a vertex of the Newton polytope" % (b,))
    fb = f.coeff(b)
    try:
        fb_inv = invert_coefficient(fb)
    except Exception as exc:
        raise ExpansionError("vertex coefficient not a unit: %s" % exc)
    if ell is None:
        gens = [tuple(v[i] - b[i] for i in range(n)) for v in P.vertices if v != b]
        ell = grading_functional(gens, n)
    # f = f_b x^b (1 - h)
    h = {}
    for u, c in f.terms.items():
        if u == b:
            continue
        w = tuple(ui - bi for ui, bi in zip(u, b))
        if _ell_value(ell, w) < 1:
            raise ExpansionError("grading not positive on support shift %r" % (w,))
        h[w] = -(c * fb_inv)
    m = elem.m
    # S = sum_j binom(m+j-1, j) h^j, truncated
    S = {(0,) * n: 1}
    hj = {(0,) * n: 1}
    j = 0
    while hj:
        j += 1
        nxt = {}
        for u, cu in hj.items():
            for w, cw in h.items():
                uw = tuple(a + c for a, c in zip(u, w))
                if _ell_value(ell, uw) > bound:
                    continue
                c = cu * cw
                prev = nxt.get(uw)
                s = c if prev is None else prev + c
                if s:
                    nxt[uw] = s
                elif uw in nxt:
                    del nxt[uw]
        hj = nxt
        bj = comb(m + j - 1, j)
        for u, c in hj.items():
            s = c * bj
            prev = S.get(u)
            s = s if prev is None else prev + s
            if s:
                S[u] = s
            elif u in S:
                del S[u]
    # result = prefactor * fb^{-m} * A x^{-mb} * S
    scale = fb_inv
    for _ in range(m - 1):
        scale = scale * fb_inv
    pref = elem.prefactor
    terms = {}
    for a_u, a_c in elem.A.terms.items():
        base = tuple(ai - m * bi for ai, bi in zip(a_u, b))
        if _ell_value(ell, base) > bound:
            continue
        ac = a_c * scale
        if pref != 1:
            ac = ac * pref
        for u, c in S.items():
            uw = tuple(x + y for x, y in zip(base, u))
            if _ell_value(ell, uw) > bound:
                continue
            s = ac * c
            prev = terms.get(uw)
            s = s if prev is None else prev + s
            if s:
                terms[uw] = s
            elif uw in terms:
                del terms[uw]
    return ConeExpansion(n, b, ell, bound, terms)


def cartier_series(E, p):
    """Coefficient decimation u -> pu on an expansion."""
    terms = {
        tuple(e // p for e in u): c
        for u, c in E.terms.items()
        if all(e % p == 0 for e in u)
    }
    return ConeExpansion(E.n, E.vertex, E.ell, E.bound // p, terms, E.mode)


def cartier_rational(elem, lift, K, ctx):
    """Cartier image of prefactor*A/f^m as a finite list of rational elements.

    Terms are indexed by r >= 0; the r-th term is

        prefactor * (m-1)! * binom(r + ceil(m/p) - 1, r)
            * Phi(A * f^{p ceil(m/p) - m} * (f^sigma(x^p) - f^p)^r)
            / (f^sigma)^{r + ceil(m/p)}

    and is dropped once the valuation bound r - r/(p-1) + ceil(m/p) - 1
    reaches the cutoff K.
    """
    if K > ctx.N:
        raise PrecisionError("cutoff K=%d exceeds precision N=%d" % (K, ctx.N))
    p = ctx.p
    m = elem.m
    cm = -(-m // p)  # ceil(m/p)
    f = elem.f
    fs = lift.on_poly(f)
    fsp = fs.scale_exponents(p)
    Pg = fsp - poly_pow(f, p)  # this is p*G(x)
    base = elem.A * poly_pow(f, p * cm - m)
    out = []
    # base * Pg^r, the polynomial under Phi in the r-th term
    Pr = base
    r = 0
    while Fraction(r) - Fraction(r, p - 1) + cm - 1 < K:
        Qr = cartier_poly(Pr, p)
        coeff = Fraction(
            elem.prefactor
            * Fraction(
                factorial(m - 1) * comb(r + cm - 1, r)
            )
        )
        if Qr:
            out.append(RationalElement(r + cm, Qr, fs, coeff))
        Pr = Pr * Pg
        r += 1
    return out


def expand_cy(g, ctx, Dt, sup_bound):
    """t-adic expansion of 1/(1 - t g(x)): coefficients c_u(t) as PadicSeries,
    kept for exponents with sup-norm <= sup_bound."""
    n = g.n
    gnorm = max(max(map(abs, u), default=0) for u in g.terms) if g.terms else 0
    acc = {}

    def put(u, k, val):
        s = acc.get(u)
        if s is None:
            s = [0] * (Dt + 1)
            acc[u] = s
        s[k] = (s[k] + val) % ctx.modulus

    gk = {(0,) * n: 1}
    put((0,) * n, 0, 1)
    for k in range(1, Dt + 1):
        nxt = {}
        reach = sup_bound + (Dt - k) * gnorm
        for u, cu in gk.items():
            for w, cw in g.terms.items():
                uw = tuple(a + c for a, c in zip(u, w))
                if max(map(abs, uw), default=0) > reach:
                    continue
                c = cu * cw
                prev = nxt.get(uw)
                nxt[uw] = c if prev is None else prev + c
        gk = {u: c % ctx.modulus for u, c in nxt.items() if c % ctx.modulus}
        for u, c in gk.items():
            if max(map(abs, u), default=0) <= sup_bound:
                put(u, k, c)
    terms = {u: PadicSeries(ctx, cs) for u, cs in acc.items()}
    terms = {u: c for u, c in terms.items() if c}
    return ConeExpansion(n, (0,) * n, None, sup_bound, terms, mode="cy")


def fk_membership_defect(E, k, ctx):
    """Katz criterion at level k: every coefficient a_u must be divisible by
    p^{min(N, k * ord_p(gcd(u)))}.  Returns 0 on PASS, else the worst margin."""
    p, N = ctx.p, ctx.N
    worst = 0
    for u, c in E.terms.items():
        if not any(u):
            continue
        required = min(N, k * ord_p(gcd(*u), p, N))
        if required == 0:
            continue
        if not isinstance(c, PadicSeries):
            raise ConfigError("membership test needs p-adic coefficients")
        actual = c.min_excess_ord(0)
        if actual < required:
            worst = max(worst, required - actual)
    return worst
