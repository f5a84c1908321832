"""Small exact linear algebra helpers over Fraction, plus integer Smith form."""

from fractions import Fraction


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
