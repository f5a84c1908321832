"""Newton polytopes: facet inequalities, reflexivity, the degree function,
region lattice points and the support-lattice index."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import ConfigError, DomainError, InfiniteIndexError
from .exactla import nullspace, rank, smith_diagonal


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
        self.full_dimensional = rank(diffs) == self.n if diffs else self.n == 0
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


def _facets(pts, n):
    seen = {}
    for subset in combinations(pts, n):
        rows = [list(p) + [1] for p in subset]
        ns = nullspace(rows)
        if len(ns) != 1:
            continue
        vec = ns[0]
        a = vec[:n]
        c = -vec[n]
        # clear denominators, make primitive
        den = 1
        for x in list(a) + [c]:
            den = den * x.denominator // gcd(den, x.denominator)
        ai = [int(x * den) for x in a]
        ci = int(c * den)
        g = 0
        for x in ai:
            g = gcd(g, abs(x))
        if g == 0:
            continue
        ai = [x // g for x in ai]
        ci_f = Fraction(ci, g)
        # orient so that all points lie on the <= side
        side = None
        ok = True
        for p in pts:
            v = sum(x * y for x, y in zip(ai, p))
            if v == ci_f:
                continue
            s = v < ci_f
            if side is None:
                side = s
            elif side != s:
                ok = False
                break
        if not ok or side is None:
            continue
        if not side:
            ai = [-x for x in ai]
            ci_f = -ci_f
        if ci_f.denominator != 1:
            # primitive normal through lattice points gives integer offset
            continue
        key = (tuple(ai), int(ci_f))
        seen[key] = True
    return sorted(seen)


def _extreme_points(pts, facets, n):
    verts = []
    for p in pts:
        active = [
            a
            for a, c in facets
            if sum(x * y for x, y in zip(a, p)) == c
        ]
        if len(active) >= n and rank([list(a) for a in active]) == n:
            verts.append(p)
    return verts


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
    """[Z^n : Gamma] for the lattice Gamma generated by Supp(g)."""
    supp = g.support()
    if not supp:
        raise InfiniteIndexError("empty support")
    diag = smith_diagonal([list(u) for u in supp])
    if len(diag) < g.n:
        raise InfiniteIndexError("support spans rank %d < %d" % (len(diag), g.n))
    idx = 1
    for d in diag:
        idx *= d
    return idx
