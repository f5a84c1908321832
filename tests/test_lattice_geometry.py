"""Lattice geometry from integer minors against the Fraction/Smith-form
oracle in `geometry_oracle.py`: facets, vertices, full-dimensionality, the
support-lattice index and the relation-cone constant mu, on every catalog
family with n <= 4, a custom family and seeded random point sets."""

import random
from itertools import combinations
from operator import mul
from types import SimpleNamespace

import geometry_oracle as oracle
import pytest

from cartier import polytope
from cartier.errors import DomainError, InfiniteIndexError
from cartier.exactla import det
from cartier.catalog import FamilySpec
from cartier.families import relation_mu
from cartier.laurent import LaurentPoly

KINDS = ("simplicial", "hypercubic", "hyperoctahedral", "an")
CUSTOM_G = LaurentPoly(2, {(0, 0): 3, (1, 0): -2, (0, 1): -2, (-1, -1): -2})


def _random_sets(count, seed=14):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 2 + i % 2
        size = rng.randint(n, n + 6)
        out.append((n, [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(size)]))
    return out


CATALOG_CASES = [(n, FamilySpec.by_name(kind, n).g.support()) for kind in KINDS for n in (1, 2, 3, 4)]
CASES = CATALOG_CASES + [(2, CUSTOM_G.support())] + _random_sets(300)


def _mu(vertices, n, facets, mu_fn):
    """mu of the vertex list when 0 is interior to the polytope, else None;
    'degenerate' for a DomainError."""
    if facets is None or any(c <= 0 for _, c in facets):
        return None
    try:
        return mu_fn(SimpleNamespace(vertices=list(vertices), n=n))
    except DomainError:
        return "degenerate"


def _index(pts, n, index_fn):
    try:
        return index_fn(LaurentPoly(n, {p: 1 for p in pts}))
    except InfiniteIndexError:
        return None


def _oracle_geometry(n, pts):
    pts = sorted(set(pts))
    full = oracle.full_dimensional(pts, n)
    facets = oracle._facets(pts, n) if full else None
    vertices = oracle._extreme_points(pts, facets, n) if full else pts
    return {
        "full_dimensional": full,
        "facets": facets,
        "vertices": vertices,
        "index": _index(pts, n, oracle.support_lattice_index),
        "mu": _mu(vertices, n, facets, oracle.relation_mu),
    }


def _geometry(n, pts):
    P = polytope.Polytope(pts)
    return {
        "full_dimensional": P.full_dimensional,
        "facets": P.facets,
        "vertices": P.vertices,
        "index": _index(pts, n, polytope.support_lattice_index),
        "mu": _mu(P.vertices, n, P.facets, relation_mu),
    }


@pytest.fixture(scope="module")
def expected():
    return [_oracle_geometry(n, pts) for n, pts in CASES]


def _mismatched(expected):
    """The quantities on which the implementation differs from the oracle."""
    bad = set()
    for (n, pts), want in zip(CASES, expected):
        got = _geometry(n, pts)
        bad |= {key for key in want if got[key] != want[key]}
    return bad


def test_geometry_matches_the_oracle(expected):
    assert _mismatched(expected) == set()
    # the random sets reach every branch: flat sets, infinite index, an
    # index above 1, and mu cases with mu = 0 and mu > 0
    random_part = expected[len(CATALOG_CASES) + 1 :]
    assert any(not e["full_dimensional"] for e in random_part)
    assert any(e["index"] is None for e in random_part)
    assert any(e["index"] not in (None, 1) for e in random_part)
    mus = [e["mu"] for e in random_part if e["mu"] is not None]
    assert len(mus) >= 100 and 0 in mus and any(m != 0 for m in mus)


def test_a_non_primitive_normal_fails_the_comparison(expected, monkeypatch):
    # a gcd that keeps common factors leaves the facet normals unreduced
    monkeypatch.setattr(polytope, "gcd", lambda *xs: 1 if any(xs) else 0)
    assert "facets" in _mismatched(expected)


def test_a_side_test_that_stops_at_the_first_point_fails_the_comparison(expected, monkeypatch):
    # a hyperplane is a facet only when no point lies beyond it; taking the
    # side of the first point off it accepts hyperplanes that cut the hull
    def first_side(a, c, pts):
        values = (sum(map(mul, a, p)) - c for p in pts)
        return next(((v < 0) - (v > 0) for v in values if v), 0)

    monkeypatch.setattr(polytope, "_side", first_side)
    assert "facets" in _mismatched(expected)


def test_an_index_read_from_one_minor_fails_the_comparison(expected, monkeypatch):
    def first_minor(g):
        minors = (abs(det(sub)) for sub in combinations(g.support(), g.n))
        idx = next((d for d in minors if d), 0)
        if idx == 0:
            raise InfiniteIndexError("support spans rank < %d" % g.n)
        return idx

    monkeypatch.setattr(polytope, "support_lattice_index", first_minor)
    assert _mismatched(expected) == {"index"}
