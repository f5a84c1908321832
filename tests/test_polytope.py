"""Newton polytopes: facets, reflexivity, regions and the lattice index."""

import pytest

from cartier.cli import SQUARE, square_example_region
from cartier.errors import ConfigError, DomainError, InfiniteIndexError
from cartier.catalog import FamilySpec
from cartier.laurent import LaurentPoly
from cartier.polytope import (
    Polytope,
    lattice_points,
    newton_polytope,
    support_lattice_index,
)


def _every_facet(P):
    """The open facets of the interior of P."""
    return range(len(P.facets))


def test_square_polytope():
    P = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
    assert P.full_dimensional
    assert P.is_reflexive()
    assert sorted(P.vertices) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    # facets are +-x <= 1, +-y <= 1
    assert set(P.facets) == {
        ((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)
    }


def test_lattice_point_counts():
    # [-1,1]^2 has 9 lattice points, 1 interior; 2*Delta has 25
    P = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert len(lattice_points(P, 1, ())) == 9
    assert lattice_points(P, 1, _every_facet(P)) == [(0, 0)]
    assert len(lattice_points(P, 2, ())) == 25
    assert len(lattice_points(P, 2, _every_facet(P))) == 9


def test_simplex_counts():
    # conv{(1,0),(0,1),(-1,-1)}: reflexive, 4 lattice points
    P = Polytope([(1, 0), (0, 1), (-1, -1)])
    assert P.is_reflexive()
    # a polytope with the origin on its boundary is not
    assert not Polytope([(0, 0), (2, 0), (0, 2)]).is_reflexive()
    assert len(lattice_points(P, 1, ())) == 4
    assert lattice_points(P, 1, _every_facet(P)) == [(0, 0)]


def test_non_full_dimensional():
    P = Polytope([(0, 0), (1, 1), (2, 2)])
    assert not P.full_dimensional
    with pytest.raises(DomainError):
        P.require_facets()


def test_half_open_square_region():
    # mu = unit square minus upper and right edges: 1 point at level 1,
    # 4 at level 2 (the pattern behind L(2) = 3)
    P = Polytope(SQUARE)
    region = square_example_region(P)
    assert sorted(P.facets[i] for i in region) == [((0, 1), 1), ((1, 0), 1)]
    assert lattice_points(P, 1, region) == [(0, 0)]
    assert lattice_points(P, 2, region) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # control: closing either open edge puts its two corners back at level 1
    for i in region:
        assert len(lattice_points(P, 1, region - {i})) == 2


def test_lattice_points_need_a_positive_level():
    P = Polytope([(1, 0), (0, 1), (-1, -1)])
    assert lattice_points(P, 1, ()) == [(-1, -1), (0, 0), (0, 1), (1, 0)]
    with pytest.raises(ConfigError, match="level k must be >= 1"):
        lattice_points(P, 0, ())


def test_support_lattice_index_oracles():
    # hypercubic n=2: support (+-1,+-1) generates the even-sum sublattice, index 2
    assert support_lattice_index(FamilySpec.hypercubic(2).g) == 2
    # hyperoctahedral n=2: support contains the standard basis, index 1
    assert support_lattice_index(FamilySpec.hyperoctahedral(2).g) == 1
    # simplicial n=2: (1,0),(0,1) already generate Z^2
    assert support_lattice_index(FamilySpec.simplicial(2).g) == 1
    # rank-deficient support has no finite index
    with pytest.raises(InfiniteIndexError):
        support_lattice_index(LaurentPoly(2, {(1, 1): 1, (-1, -1): 1}))


def test_newton_polytope_of_zero():
    with pytest.raises(DomainError):
        newton_polytope(LaurentPoly.zero(2))


def test_catalog_polytopes_reflexive():
    for fam in (
        FamilySpec.simplicial(2),
        FamilySpec.hypercubic(2),
        FamilySpec.hyperoctahedral(2),
        FamilySpec.a_n(2),
        FamilySpec.simplicial(3),
        FamilySpec.hyperoctahedral(3),
    ):
        assert fam.polytope.is_reflexive()
        pts = lattice_points(fam.polytope, 1, _every_facet(fam.polytope))
        assert pts == [(0,) * fam.n]
