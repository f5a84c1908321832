"""The one determinant, over ints and over series."""

from operator import mul


def det(rows):
    """Determinant by Berkowitz's division-free algorithm (Inf. Process.
    Lett. 18, 1984) in O(n^4) ring operations, so the entries may be ints or
    series; no entry is divided or tested for zero, and over series the
    result is a series of the entries' ring.  The empty matrix has det 1.

    c holds det(x I - A_r) of the leading r x r block, highest degree first.
    For A_(r+1) = [[A_r, C], [R, a]] it is multiplied by the lower-triangular
    Toeplitz matrix with first column 1, -a, -R C, -R A_r C, ..,
    -R A_r^(r-1) C; det A = (-1)^n c_n."""
    c = [1]
    for r, row in enumerate(rows):
        A, R = [above[:r] for above in rows[:r]], row[:r]
        C = [above[r] for above in rows[:r]]
        t = [1, -row[r]]
        for k in range(r):
            if k:  # C becomes A_r^k C
                C = [sum(map(mul, x, C)) for x in A]
            t.append(-sum(map(mul, R, C)))
        c = [sum(map(mul, t[k::-1], c)) for k in range(r + 2)]
    return -c[-1] if len(rows) % 2 else c[-1]
