"""Second formulas for the coefficients that the `straub`, `simple` and `pq`
suites and the period chain compute, kept as oracles of `test_harness.py`
and `test_families.py`: the raw 4-variable expansion behind
`harness._layer_diagonal`, the recurrence and diagonal closed form behind
`harness._square_example_alpha`, the expansion route behind
`families.pq_polynomial`, and the convolution chain behind the closed
factors of `families._e_sums`.  No library path uses them."""

from itertools import product
from math import comb, factorial


def expansion_diagonal(dmax):
    """alpha_{d,d,d,d} of 1/((1-x1-x2)(1-x3-x4) - x1 x2 x3 x4) for
    d <= dmax from alpha(u) = -sum_w c_w alpha(u - w) over the nine terms
    c_w x^w of the denominator, with alpha(0) = 1, on a dict keyed by
    exponent tuples."""
    terms = {
        (1, 0, 0, 0): -1, (0, 1, 0, 0): -1, (0, 0, 1, 0): -1, (0, 0, 0, 1): -1,
        (1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1,
        (1, 1, 1, 1): -1,
    }
    size = dmax + 1
    alpha = {}

    def get(u):
        if any(e < 0 for e in u):
            return 0
        return alpha[u]

    for u in product(range(size), repeat=4):
        if u == (0, 0, 0, 0):
            alpha[u] = 1
            continue
        alpha[u] = -sum(
            c * get(tuple(a - b for a, b in zip(u, w))) for w, c in terms.items()
        )
    return [alpha[(d, d, d, d)] for d in range(size)]


def square_example_recurrence(K, L):
    """The table of alpha_{i,j}(t), i <= K and j <= L, the coefficient of
    x1^i x2^j in 1/(1 - x1 - x2 + (1-t) x1 x2) as an integer coefficient
    list in t, from alpha_{i,j} = alpha_{i-1,j} + alpha_{i,j-1}
    - (1-t) alpha_{i-1,j-1}."""
    table = [[None] * (L + 1) for _ in range(K + 1)]
    for i in range(K + 1):
        for j in range(L + 1):
            if i == 0 or j == 0:
                table[i][j] = [1]
                continue
            d = min(i, j)
            cur = [0] * (d + 1)
            for src in (table[i - 1][j], table[i][j - 1]):
                for e, c in enumerate(src):
                    cur[e] += c
            prev = table[i - 1][j - 1]
            for e, c in enumerate(prev):
                cur[e] -= c      # -(1-t) a = -a + t a
                cur[e + 1] += c
            table[i][j] = cur
    return table


def square_example_closed(Q):
    """alpha_{Q,Q}(t) = sum_j (2Q-j)!/((Q-j)!^2 j!) (t-1)^j as a coefficient
    list in t of length Q + 1."""
    out = [0] * (Q + 1)
    for j in range(Q + 1):
        c = factorial(2 * Q - j) // (factorial(Q - j) ** 2 * factorial(j))
        # expand c (t-1)^j
        for e in range(j + 1):
            out[e] += c * comb(j, e) * (-1) ** (j - e)
    return out


def pq_from_expansion(n, Q):
    """P_Q from the expansion route: the coefficient of (x_1...x_n)^Q in
    1/(1 - t g) is, up to sign, t^{-Q} times
    sum_k ((-1)^k binom(Q-k-1, k))^n t^{2k}.  Returns {t-exponent: int}."""
    out = {}
    for k in range((Q - 1) // 2 + 1):
        c = ((-1) ** k * comb(Q - k - 1, k)) ** n
        if c:
            out[2 * k - Q] = c
    return out


def e_sums_by_convolution(shifts, M):
    """R_0..R_M of `families._e_sums` by the convolution chain alone, one
    factor at a time from R = (1, 0, .., 0): a shift u on the sums R' of
    shifts summing to S' gives
    R_m = sum_j C(m, j) C(m - S' - u, j - S') R'_j over j >= S' and
    m - j >= max(u, 0)."""
    R, S = [1] + [0] * M, 0
    for u in shifts:
        lo = max(u, 0)
        R = [
            sum(comb(m, j) * comb(m - S - u, j - S) * R[j] for j in range(S, m - lo + 1))
            for m in range(M + 1)
        ]
        S += u
    return tuple(R)
