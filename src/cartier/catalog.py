"""The family catalog: the spec of a completely symmetric Calabi-Yau
family 1 - t g(x), for the named kinds and for a custom g.  A spec holds g,
its reflexive Newton polytope and vertices, and the group order; the period
data of a spec lives in `families`, so a command that reads only the spec
(`hw` under the t^p lift) runs no period code."""

from itertools import chain, product
from math import factorial

from .errors import ConfigError
from .laurent import LaurentPoly
from .polytope import newton_polytope, support_lattice_index


def _units(n, s=1):
    """The exponent vectors s e_1, .., s e_n."""
    return [tuple(s * (i == j) for j in range(n)) for i in range(n)]


class FamilySpec:
    """A completely symmetric family 1 - t g(x).  Its maths depends only on
    `key`, g and the group order, so specs compare and hash by it; the kind
    chooses the algorithms."""

    __slots__ = ("kind", "n", "g", "alpha", "gamma", "group_order", "polytope", "vertices",
                 "support_index", "key")

    def __init__(self, kind, n, g, group_order):
        self.kind = kind
        self.n = n
        self.g = g
        self.group_order = group_order
        self.key = (tuple(sorted(g.terms.items())), group_order)
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

    def __eq__(self, other):
        return isinstance(other, FamilySpec) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @classmethod
    def simplicial(cls, n):
        terms = dict.fromkeys(_units(n) + [(-1,) * n], 1)
        return cls("simplicial", n, LaurentPoly(n, terms), factorial(n + 1))

    @classmethod
    def hypercubic(cls, n):
        terms = dict.fromkeys(product((1, -1), repeat=n), 1)
        return cls("hypercubic", n, LaurentPoly(n, terms), 2 ** n * factorial(n))

    @classmethod
    def hyperoctahedral(cls, n):
        terms = dict.fromkeys(chain(*zip(_units(n), _units(n, -1))), 1)
        return cls("hyperoctahedral", n, LaurentPoly(n, terms), 2 ** n * factorial(n))

    @classmethod
    def a_n(cls, n):
        up, down = ([(0,) * n] + _units(n, s) for s in (1, -1))
        g = LaurentPoly(n, dict.fromkeys(up, 1)) * LaurentPoly(n, dict.fromkeys(down, 1))
        return cls("an", n, g, 2 * factorial(n + 1))

    @classmethod
    def custom(cls, g):
        return cls("custom", g.n, g, 1)

    @classmethod
    def by_name(cls, name, n):
        build = {"simplicial": cls.simplicial, "hypercubic": cls.hypercubic, "an": cls.a_n,
                 "hyperoctahedral": cls.hyperoctahedral, "a_n": cls.a_n}.get(name.lower())
        if build is None:
            raise ConfigError("unknown family %r" % (name,))
        return build(n)
