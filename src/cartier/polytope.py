"""Newton polytopes: facet inequalities, reflexivity, the lattice points of
a region mu (Delta with some facets removed, given by their indices) and
the support-lattice index.

A facet normal is the vector of signed maximal minors of the differences
q_i - q_0 of n points, formed one row at a time (`_wedge`) so that subsets
with a common prefix share its minors.  Rank and the support-lattice index
are read off one integer row reduction (`_pivots`)."""

from itertools import combinations, product
from math import gcd, prod
from operator import mul

from .errors import ConfigError, DomainError, InfiniteIndexError
from .exactla import det


class Polytope:
    """Convex hull of a finite set of lattice points, with facet description
    Delta = {x : <a_i, x> <= c_i} when full-dimensional."""

    __slots__ = ("n", "points", "vertices", "facets", "full_dimensional")

    def __init__(self, points):
        pts = sorted({tuple(int(e) for e in p) for p in points})
        if not pts:
            raise DomainError("empty point set")
        self.n = len(pts[0])
        if any(len(p) != self.n for p in pts):
            raise ConfigError("mixed dimensions in point set")
        if self.n > 4:
            raise DomainError("dimension capped at n <= 4")
        self.points = pts
        diffs = [[x - y for x, y in zip(q, pts[0])] for q in pts[1:]]
        self.full_dimensional = len(_pivots(diffs, self.n)) == self.n
        if self.full_dimensional:
            self.facets = _facets(pts, self.n)
            self.vertices = _extreme_points(pts, self.facets, self.n)
        else:
            self.facets = None
            self.vertices = pts

    def require_facets(self):
        if self.facets is None:
            raise DomainError("polytope is not full-dimensional")
        return self.facets

    def is_reflexive(self):
        return all(c == 1 for _, c in self.require_facets())


def signed_minors(rows):
    """The signed maximal minors (-1)^j det(rows without column j) of an
    m x (m + 1) matrix: a vector orthogonal to every row, nonzero
    exactly when the rows are independent."""
    return [(-1) ** j * det([r[:j] + r[j + 1 :] for r in rows]) for j in range(len(rows) + 1)]


def _wedge(minors, row, plan):
    """The minors of k + 1 rows from those of the last k and the new first
    row, by Laplace expansion along it: the terms of each are listed in
    `plan` as (column, index of the k x k minor, sign)."""
    return [sum(sign * row[j] * minors[m] for j, m, sign in terms) for terms in plan]


def _side(a, c, pts):
    """s = 1 or -1 if s (<a, p> - c) <= 0 for every point p, else 0, found
    as soon as points on both sides are seen."""
    side = 0
    for p in pts:
        v = sum(map(mul, a, p)) - c
        if side * v > 0:
            return 0
        side = side or (v < 0) - (v > 0)
    return side


def _facets(pts, n):
    """The facets <a, x> <= c, a primitive, of the hull of pts: through n
    affinely independent points q_0 < .. < q_(n-1), with a the signed
    maximal minors of the rows q_i - q_0 over their gcd, oriented by
    `_side`.  Each prefix's minors are formed once; a prefix whose minors
    vanish ends its branch, and a last point that puts the subset inside a
    facet already found is skipped.  The n - 1 points of a last prefix span
    an (n-2)-flat, which lies in two facets only if it is a ridge, and a
    ridge lies in exactly two, so a prefix found in two facets is not
    extended further."""
    found = {}  # facet -> indices of the points on it
    levels = [list(combinations(range(n), k)) for k in range(n + 1)]
    plans = [
        [[(j, levels[k].index(cols[:t] + cols[t + 1 :]), (-1) ** t) for t, j in enumerate(cols)]
         for cols in levels[k + 1]]
        for k in range(n)
    ]

    def grow(chosen, minors):
        q0 = pts[chosen[0]]
        if len(chosen) == n:
            # minors[n - 1 - j] leaves out column j
            a = [minors[n - 1 - j] * (-1) ** j for j in range(n)]
            g = gcd(*a)
            a = [x // g for x in a]
            c = sum(map(mul, a, q0))
            s = _side(a, c, pts)
            if s:
                on = found[tuple(s * x for x in a), s * c] = {
                    i for i, p in enumerate(pts) if sum(map(mul, a, p)) == c}
                return on
            return None
        last = len(chosen) == n - 1
        through = [on for on in found.values() if on.issuperset(chosen)] if last else []
        for i in range(chosen[-1] + 1, len(pts)):
            if len(through) == 2:
                break
            if not any(i in on for on in through):
                m = _wedge(minors, [x - y for x, y in zip(pts[i], q0)], plans[len(chosen) - 1])
                if any(m) and (on := grow(chosen + (i,), m)):
                    through.append(on)

    for i in range(len(pts)):
        grow((i,), [1])
    return sorted(found)


def _pivots(rows, n):
    """The |pivots| of an echelon form of integer rows, by Euclid's
    algorithm down each of the n columns.  The steps are unimodular, so
    there is one pivot per unit of rank, and with n of them the rows
    generate a lattice of index prod |pivot| in Z^n."""
    rows, pivots = [list(r) for r in rows], []
    for j in range(n):
        while len(live := [r for r in rows if r[j]]) > 1:
            pivot = min(live, key=lambda r: abs(r[j]))
            for r in live:
                if r is not pivot:
                    q = r[j] // pivot[j]
                    r[:] = [x - q * y for x, y in zip(r, pivot)]
        if live:
            pivots.append(abs(live[0][j]))
            rows.remove(live[0])
    return pivots


def _extreme_points(pts, facets, n):
    """The points whose active facet normals span Q^n."""
    return [p for p in pts
            if len(_pivots([a for a, c in facets if sum(map(mul, a, p)) == c], n)) == n]


def lattice_points(P, k, open_facets):
    """The lattice points of k mu, k >= 1, in lexicographic order, for mu the
    polytope Delta = P without the facets whose indices are in open_facets:
    the box of k Delta scanned by `product`, a point kept when it satisfies
    <a_i, u> <= k c_i on every facet i, strictly on the open ones."""
    if k < 1:
        raise ConfigError("level k must be >= 1")
    bounds = [(a, k * c + (i not in open_facets)) for i, (a, c) in enumerate(P.require_facets())]
    box = [range(min(v[i] for v in P.vertices) * k, max(v[i] for v in P.vertices) * k + 1)
           for i in range(P.n)]
    return [u for u in product(*box) if all(sum(map(mul, a, u)) < b for a, b in bounds)]


def newton_polytope(f):
    if f.is_zero():
        raise DomainError("zero polynomial has no Newton polytope")
    return Polytope(f.support())


def support_lattice_index(g):
    """[Z^n : Gamma] for the lattice Gamma generated by Supp(g): the product
    of the pivots of one integer row reduction of the support (`_pivots`).
    Fewer than n pivots means Gamma has rank < n."""
    supp = g.support()
    if not supp:
        raise InfiniteIndexError("empty support")
    pivots = _pivots(supp, g.n)
    if len(pivots) < g.n:
        raise InfiniteIndexError("support spans rank < %d" % g.n)
    return prod(pivots)
