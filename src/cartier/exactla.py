"""The one determinant, over ints and over series."""


def det(rows):
    """Determinant of a square matrix by Laplace expansion along the first
    row.  Zero entries and zero minors are skipped, so the entries may be
    ints or series (anything with +, -, * and truth as nonzero); when every
    term vanishes the result is the int 0.  The empty matrix has det 1.
    A 2x2 matrix is the base case: ad - bc, each product formed only when
    both of its entries are nonzero."""
    if len(rows) <= 1:
        return rows[0][0] if rows else 1
    total = 0
    if len(rows) == 2:
        (a, b), (c, d) = rows
        if a and d:
            total = a * d
        if b and c:
            total = total - b * c
        return total
    for j, a in enumerate(rows[0]):
        if a:
            minor = det([r[:j] + r[j + 1 :] for r in rows[1:]])
            if minor:
                total = total - a * minor if j % 2 else total + a * minor
    return total
