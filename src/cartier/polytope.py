"""Newton polytopes: facet inequalities, reflexivity, the degree function,
region lattice points and the support-lattice index.

The geometry is read off integer minors (`exactla.det`): a facet normal is
the vector of signed maximal minors of the rows [p, 1] of n points, a
point set is full-dimensional and a point is a vertex when some n x n
minor is nonzero, and the index of the support lattice is the gcd of the
n x n minors of the support."""

from itertools import combinations
from math import gcd
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
        base = pts[0]
        diffs = [[q[i] - base[i] for i in range(self.n)] for q in pts[1:]]
        self.full_dimensional = _spans(diffs, self.n)
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

    def degree_of_point(self, u):
        """max_i <a_i, u> clamped below at 0; the level of u for reflexive Delta."""
        if not self.is_reflexive():
            raise DomainError("degree function requires a reflexive polytope")
        best = 0
        for a, _c in self.facets:
            v = sum(ai * ui for ai, ui in zip(a, u))
            if v > best:
                best = v
        return best

    def contains(self, u, scale=1, strict=False, strict_facets=None):
        """Is u in scale*Delta (strict: in the interior / off listed facets)?"""
        for idx, (a, c) in enumerate(self.require_facets()):
            v = sum(ai * ui for ai, ui in zip(a, u))
            s = strict if strict_facets is None else (idx in strict_facets)
            if s:
                if v >= scale * c:
                    return False
            elif v > scale * c:
                return False
        return True

    def bounding_box(self, scale=1):
        lo = [min(v[i] for v in self.vertices) * scale for i in range(self.n)]
        hi = [max(v[i] for v in self.vertices) * scale for i in range(self.n)]
        # scaling by a positive integer keeps orientation; fix any swap
        return (
            [min(l, h) for l, h in zip(lo, hi)],
            [max(l, h) for l, h in zip(lo, hi)],
        )


def signed_minors(rows):
    """The signed maximal minors (-1)^j det(rows without column j) of an
    m x (m + 1) matrix: a vector orthogonal to every row, nonzero
    exactly when the rows are independent."""
    return [(-1) ** j * det([r[:j] + r[j + 1 :] for r in rows]) for j in range(len(rows) + 1)]


def _facets(pts, n):
    """The facets <a, x> <= c, a primitive, through each n points whose rows
    [p, 1] have a nonzero maximal minor: (a, -c) is the vector of signed
    maximal minors, divided by the gcd of a and oriented so that every
    point lies on the <= side.  Subsets whose hyperplane cuts the points
    give no facet."""
    seen = set()
    for subset in combinations(pts, n):
        normal = signed_minors([p + (1,) for p in subset])
        g = gcd(*normal[:n])
        if g == 0:
            continue
        a = [x // g for x in normal[:n]]
        c = -normal[n] // g
        sides = {(v > c) - (v < c) for v in (sum(map(mul, a, p)) for p in pts)} - {0}
        if sides == {-1}:
            seen.add((tuple(a), c))
        elif sides == {1}:
            seen.add((tuple(-x for x in a), -c))
    return sorted(seen)


def _spans(rows, n):
    """Do the rows span Q^n, that is, is some n x n minor nonzero?"""
    return any(det(sub) for sub in combinations(rows, n))


def _extreme_points(pts, facets, n):
    """The points whose active facet normals span Q^n."""
    return [
        p
        for p in pts
        if _spans([a for a, c in facets if sum(map(mul, a, p)) == c], n)
    ]


class RegionSpec:
    """The open set mu: interior of Delta, all of Delta, or explicit lists of
    the lattice points of (k mu) per level."""

    __slots__ = ("kind", "custom_points")

    def __init__(self, kind, custom_points=None):
        if kind not in ("interior", "full", "custom"):
            raise ConfigError("unknown region kind %r" % (kind,))
        self.kind = kind
        if kind == "custom":
            if not custom_points:
                raise ConfigError("custom region needs explicit point lists")
            self.custom_points = {
                int(k): sorted(tuple(p) for p in v) for k, v in custom_points.items()
            }
        else:
            self.custom_points = None

    @classmethod
    def interior(cls):
        return cls("interior")

    @classmethod
    def full(cls):
        return cls("full")

    @classmethod
    def custom(cls, points_by_level):
        return cls("custom", points_by_level)

    @classmethod
    def from_strict_facets(cls, polytope, strict_facet_indices, levels):
        """Build the extensional lists for mu = Delta minus the listed facets."""
        pts = {}
        for k in levels:
            pts[k] = _scan(polytope, k, strict_facets=set(strict_facet_indices))
        return cls.custom(pts)


def _scan(P, k, strict=False, strict_facets=None):
    lo, hi = P.bounding_box(k)
    out = []

    def rec(prefix, i):
        if i == P.n:
            if P.contains(prefix, scale=k, strict=strict, strict_facets=strict_facets):
                out.append(tuple(prefix))
            return
        for x in range(lo[i], hi[i] + 1):
            rec(prefix + [x], i + 1)

    rec([], 0)
    return sorted(out)


def lattice_points(P, k, region):
    """All lattice points of (k mu), sorted lexicographically."""
    if k < 1:
        raise ConfigError("level k must be >= 1")
    if region.kind == "custom":
        if k not in region.custom_points:
            raise ConfigError("custom region has no point list for level %d" % k)
        return list(region.custom_points[k])
    return _scan(P, k, strict=(region.kind == "interior"))


def newton_polytope(f):
    if f.is_zero():
        raise DomainError("zero polynomial has no Newton polytope")
    return Polytope(f.support())


def support_lattice_index(g):
    """[Z^n : Gamma] for the lattice Gamma generated by Supp(g): the gcd of
    the n x n minors of the support vectors (the product of the elementary
    divisors).  A gcd of 0 means Gamma has rank < n."""
    supp = g.support()
    if not supp:
        raise InfiniteIndexError("empty support")
    idx = 0
    for sub in combinations(supp, g.n):
        idx = gcd(idx, det(sub))
        if idx == 1:
            break
    if idx == 0:
        raise InfiniteIndexError("support spans rank < %d" % g.n)
    return idx
