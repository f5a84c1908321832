"""Level-k Hasse-Witt matrices and their normalized determinants.

Every entry is a PadicSeries, a term missing from a Cartier image reading
as the zero series, so `exactla.det` of the entries is a PadicSeries of the
same ring, which is divided by p^L_k."""

import json
from operator import add

from .errors import (
    ConfigError,
    DomainError,
    ReductionError,
    TheoremViolation,
)
from .exactla import det
from .laurent import LaurentPoly, cartier_poly, mul_classes, poly_pow
from .padic import unit_inverse
from .polytope import lattice_points, newton_polytope
from .series import PadicSeries


def F_k_polynomial(f, lift, k, ctx, shifts):
    """The part of F^(k) = f^{p-k} sum_{r<k} (f^sigma(x^p) - f^p)^r
    f^sigma(x^p)^{k-r-1} that the Cartier operator reads after the shifts:
    the terms at exponents w = -u (mod p), u in shifts, so that
    Phi(x^u F^(k)) is exact for each u in shifts and nothing else is
    formed.  Shifts covering every class mod p give the whole F^(k).

    The sum S_k is formed as S_2 = f^sigma(x^p) + P, S_(j+1) = S_j
    f^sigma(x^p) + P^j with P = f^sigma(x^p) - f^p, and S_1 = 1 is not
    multiplied at all, so every product stays in f's coefficient ring; f^p
    is f^{p-k} f^k, reusing f^{p-k}.  The last product, f^{p-k} S_k (f^{p-2} f when k = 1), is the restricted
    `mul_classes`."""
    p = ctx.p
    if k >= p:
        raise DomainError("F^(k) requires k < p")
    classes = [tuple(-e for e in u) for u in shifts]
    if k == 1:
        return mul_classes(poly_pow(f, p - 2), f, p, classes)
    fpk = poly_pow(f, p - k)
    fsp = lift.on_poly(f).scale_exponents(p)
    P = fsp - fpk * poly_pow(f, k)
    S, Pj = fsp + P, P
    for _ in range(k - 2):
        Pj = Pj * P
        S = S * fsp + Pj
    return mul_classes(fpk, S, p, classes)


class HasseWittMatrix:
    """Entries and hw are PadicSeries; JSON prints each as its D + 1
    coefficients, so a zero entry is D + 1 zeros."""

    __slots__ = ("level", "prime", "precision", "basis", "entries", "L_k", "hw")

    def __init__(self, level, prime, precision, basis, entries, L_k, hw):
        self.level = level
        self.prime = prime
        self.precision = precision
        self.basis = basis
        self.entries = entries
        self.L_k = L_k
        self.hw = hw

    def to_json(self):
        obj = {
            "level": self.level,
            "prime": self.prime,
            "precision": self.precision,
            "basis": [list(map(str, b)) if isinstance(b, tuple) else str(b) for b in self.basis],
            "entries": [[c.coeffs for c in row] for row in self.entries],
            "L_k": self.L_k,
            "hw_det": self.hw.coeffs,
        }
        return json.dumps(obj, sort_keys=True)


def level_points(P, k, open_facets):
    """The points of level k of the region mu = P without the facets listed
    in open_facets (`lattice_points`), ordered by the least level each lies
    in, and L_k = sum over l < k of (m_k - m_l), m_l the number of level-l
    points: the power of p that divides det HW^(k).  Each level's points
    must lie in the next level's."""
    levels = [lattice_points(P, lev, open_facets) for lev in range(1, k + 1)]
    first = {}
    for lev, pts in enumerate(levels, 1):
        missing = first.keys() - set(pts)
        if missing:
            raise ConfigError(
                "region levels are not nested: %r of level %d is not in level %d"
                % (min(missing), lev - 1, lev)
            )
        for u in pts:
            first.setdefault(u, lev)
    ordered = sorted(levels[-1], key=lambda u: (first[u], u))
    return ordered, sum(len(ordered) - len(pts) for pts in levels[:-1])


def hasse_witt_matrix(f, lift, k, open_facets, ctx):
    """Matrix of the Cartier operator on the level-k part, in the monomial
    basis x^u, u in (k mu), level-major order, mu the Newton polytope of f
    without the facets listed in open_facets.

    Entry (i, j) is the coefficient of x^(u_j) in Phi(x^(u_i) * F^(k)).
    The coefficients of f are PadicSeries over ctx."""
    p = ctx.p
    points, L_k = level_points(newton_polytope(f), k, open_facets)
    Fk = F_k_polynomial(f, lift, k, ctx, points)
    zero = PadicSeries.zero(ctx, next(iter(f.terms.values())).D)
    point_set = set(points)
    entries = []
    for u in points:
        shifted = {tuple(map(add, v, u)): c for v, c in Fk.terms.items()}  # x^u Fk
        img = cartier_poly(LaurentPoly(f.n, shifted), p)
        extra = [v for v in img.terms if v not in point_set]
        if extra:
            raise TheoremViolation(
                "Cartier image supported outside the level-%d region at %r" % (k, extra[0])
            )
        entries.append([img.coeff(v, zero) for v in points])
    hw = _normalized_det(entries, ctx, k, L_k)
    return HasseWittMatrix(k, p, ctx.N, list(points), entries, L_k, hw)


def _normalized_det(rows, ctx, k, L_k):
    """det HW^(k) / p^L_k for PadicSeries entries over ctx, which keeps a
    digit only when the precision N exceeds L_k."""
    if ctx.N <= L_k:
        raise ConfigError(
            "precision %d leaves no digit of det HW^(%d) / p^%d; "
            "the least precision that works is %d" % (ctx.N, k, L_k, L_k + 1)
        )
    try:
        return det(rows).divide_exact_p(L_k)
    except ReductionError as exc:
        raise TheoremViolation("det HW^(%d) not divisible by p^%d: %s" % (k, L_k, exc))



def cy_hasse_witt(family, lift, k, ctx, Dt, basis="omega"):
    """HW^(k) for the invariant crystal of f = 1 - t g(x), k in {1, 2}, of
    the FamilySpec `family`, which gives g, alpha, gamma and the vertices.

    basis 'omega': level-2 basis (f, t g) matching (1/f, theta(1/f)).
    basis 'unit':  level-2 basis (1, t g) matching (1/f^2, t g/f^2).

    F^(k) is formed only where the Cartier operator reads it: with shifts
    {0} at level 1, and at level 2 with the supports of both basis
    polynomials b, so Phi(b F^(2)) is exact; each product b F^(2) forms only
    its p-divisible exponents.
    """
    if k not in (1, 2):
        raise ConfigError("CY Hasse-Witt implemented for k in {1,2}")
    p = ctx.p
    if k >= p:
        raise DomainError("k < p required")
    g, n, verts = family.g, family.n, family.vertices
    one = PadicSeries.one(ctx, Dt)
    zero = PadicSeries.zero(ctx, Dt)
    t = PadicSeries.t(ctx, Dt)
    f = LaurentPoly.one(n, one) - g.map_coefficients(lambda c: t * c)
    v1 = verts[0]
    origin = (0,) * n
    if k == 1:
        img = cartier_poly(F_k_polynomial(f, lift, 1, ctx, [origin]), p)
        _check_cy_support(img, verts, 1)
        entry = img.constant_term(zero)
        return HasseWittMatrix(1, p, ctx.N, ["1"], [[entry]], 0, entry)
    tg = g.map_coefficients(lambda c: t * c)
    if basis == "omega":
        b1 = f
        labels = ["f", "t*g"]
    elif basis == "unit":
        b1 = LaurentPoly.one(n, one)
        labels = ["1", "t*g"]
    else:
        raise ConfigError("unknown CY basis %r" % (basis,))
    Fk = F_k_polynomial(f, lift, 2, ctx, b1.terms.keys() | tg.terms.keys())
    gamma_inv = unit_inverse(family.gamma, ctx)
    rows = []
    for bi in (b1, tg):
        img = cartier_poly(mul_classes(bi, Fk, p, [origin]), p)
        _check_cy_support(img, verts, 2)
        C0 = img.constant_term(zero)
        Cv = img.coeff(v1, zero)
        for w in verts[1:]:
            if img.coeff(w, zero) != Cv:
                raise TheoremViolation("vertex coefficients are not symmetric")
        c1 = Cv.shift_div(p) * lift.vinv * gamma_inv
        c0 = C0 - Cv * family.alpha * gamma_inv
        if basis == "omega":
            # the image decomposes over (1/(f^sigma)^2, t^sigma g/(f^sigma)^2);
            # since 1/(f^sigma)^2 = 1/f^sigma + t^sigma g/(f^sigma)^2, the
            # coordinates in (1/f^sigma, t^sigma g/(f^sigma)^2) are (c0, c0+c1)
            rows.append([c0, c0 + c1])
        else:
            rows.append([c0, c1])
    return HasseWittMatrix(2, p, ctx.N, labels, rows, 1, _normalized_det(rows, ctx, 2, 1))


def _check_cy_support(img, verts, k):
    allowed = {tuple(0 for _ in verts[0])} | set(verts)
    for u in img.terms:
        if u not in allowed:
            raise TheoremViolation(
                "level-%d Cartier image supported at non-basis point %r" % (k, u)
            )
