"""The raw 4-variable expansion of 1/((1-x1-x2)(1-x3-x4) - x1 x2 x3 x4) on
a dict keyed by exponent tuples, kept as an oracle of `test_harness.py`
for the flat-array recurrence `harness._expansion_diagonal`."""

from itertools import product


def dict_expansion_diagonal(dmax):
    """alpha_{d,d,d,d} for d <= dmax from alpha(u) = -sum_w c_w alpha(u - w)
    over the nine terms c_w x^w of the denominator, with alpha(0) = 1."""
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
