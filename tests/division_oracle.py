"""Extended-basis division, kept as an oracle of `test_hasse_witt.py`: the
Euclidean division of a Laurent polynomial by f at a vertex b whose
coefficient is a unit, within the level-k region.  No library path uses it."""

from cartier.expansion import grading_functional, invert_coefficient
from cartier.laurent import LaurentPoly
from cartier.polytope import lattice_points, newton_polytope


def extended_basis_division(A, f, b, k, open_facets):
    """Euclidean division A = P f + Q with Supp(P) in (k-1)mu and
    Supp(Q) in (k mu) minus (b + (k-1)mu), mu the Newton polytope of f
    without the facets listed in open_facets."""
    P_delta = newton_polytope(f)
    b = tuple(b)
    # a DomainError unless the coefficient of x^b in f is a unit
    fb_inv = invert_coefficient(f.coeff(b))
    lower = set(lattice_points(P_delta, k - 1, open_facets)) if k > 1 else set()
    shifted = {tuple(u[i] + b[i] for i in range(f.n)): u for u in lower}
    # process candidates in increasing grading order: eliminating x^{u+b}
    # only creates terms of strictly larger grade, so each shifted point is
    # handled at most once
    gens = [tuple(v[i] - b[i] for i in range(f.n)) for v in P_delta.vertices if v != b]
    ell = grading_functional(gens, f.n)
    Q = A
    Pq = LaurentPoly.zero(f.n)
    max_iter = len(lower) + 1
    it = 0
    while True:
        candidates = [u for u in Q.terms if u in shifted]
        if not candidates:
            break
        it += 1
        if it > max_iter:
            raise RuntimeError("division loop exceeded the region size")
        pick = min(
            candidates, key=lambda u: (sum(l * e for l, e in zip(ell, u)), u)
        )
        c = Q.coeff(pick) * fb_inv
        mono = LaurentPoly(f.n, {shifted[pick]: c})
        Pq = Pq + mono
        Q = Q - mono * f
    return Pq, Q
