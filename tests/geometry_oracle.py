"""The parent implementations of the lattice geometry, kept verbatim as
the oracle of `test_lattice_geometry.py`: Fraction row reduction, the
integer Smith form, facets from nullspaces, vertices from ranks, the index
from elementary divisors and mu by solving every subset.  Only the imports
and `full_dimensional` (the expression from `Polytope.__init__`) are
added."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from cartier.errors import DomainError, InfiniteIndexError


def full_dimensional(pts, n):
    base = pts[0]
    diffs = [[q[i] - base[i] for i in range(n)] for q in pts[1:]]
    return rank(diffs) == n if diffs else n == 0


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right nullspace as lists of Fractions."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve M x = rhs exactly; returns one solution or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    m, pivots = rref(aug)
    for row in m:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = m[i][ncols]
    return x


def smith_diagonal(rows):
    """Elementary divisors of an integer matrix (nonzero ones, in order)."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    diag = []
    top = 0
    left = 0
    while top < nr and left < nc:
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(top, nr):
            for j in range(left, nc):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[left], row[bj] = row[bj], row[left]
        # clear row and column by division with remainder, repeating as needed
        while True:
            pivot = m[top][left]
            done = True
            for i in range(top + 1, nr):
                if m[i][left]:
                    q = m[i][left] // pivot
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][left]:
                        m[top], m[i] = m[i], m[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(left + 1, nc):
                if m[top][j]:
                    q = m[top][j] // pivot
                    for row in m:
                        row[j] -= q * row[left]
                    if m[top][j]:
                        for row in m:
                            row[left], row[j] = row[j], row[left]
                        done = False
                        break
            if done:
                break
        diag.append(abs(m[top][left]))
        top += 1
        left += 1
    # normalize divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                from math import gcd

                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


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


def relation_mu(family):
    """mu = max{mu' : mu' v1 in conv(v2,..,vN)}, by exact enumeration of
    basic solutions of the defining linear program."""
    verts = family.vertices
    v1 = verts[0]
    others = verts[1:]
    n = family.n
    best = Fraction(0)
    for size in range(1, n + 2):
        for sub in combinations(others, size):
            # mu*v1 = sum lam_i v_i, sum lam_i = 1; unknowns (lam_1.., mu)
            rows = [[Fraction(v[i]) for v in sub] + [-Fraction(v1[i])] for i in range(n)]
            rows.append([Fraction(1)] * size + [Fraction(0)])
            rhs = [Fraction(0)] * n + [Fraction(1)]
            sol = solve(rows, rhs)
            if sol is None:
                continue
            lams, mu = sol[:size], sol[size]
            if all(l >= 0 for l in lams) and mu > best:
                # confirm (solve may return one of many solutions)
                ok = all(
                    sum(lams[j] * sub[j][i] for j in range(size)) == mu * v1[i]
                    for i in range(n)
                )
                if ok:
                    best = mu
    if best >= 1:
        raise DomainError("relation cone is degenerate (mu >= 1)")
    return best
