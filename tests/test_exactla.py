"""The one determinant against the Leibniz permutation formula."""

import random
from itertools import permutations

from cartier.exactla import det
from cartier.padic import PadicContext
from cartier.series import PadicSeries


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _random_matrix(rng, n):
    """Entries in -3..3, mostly zero, and for n >= 3 a random 2x2 block of
    the last two rows set to zero, so some 2x2 minors vanish entirely."""
    rows = [[rng.choice((0, 0, 0, -3, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    if n >= 3 and rng.random() < 0.5:
        for j in rng.sample(range(n), 2):
            rows[-1][j] = rows[-2][j] = 0
    return rows


def test_det_matches_leibniz_on_random_int_matrices():
    rng = random.Random(20261018)
    for n in range(6):
        for _ in range(300 if n else 1):
            rows = _random_matrix(rng, n)
            got = det(rows)
            assert type(got) is int
            assert got == _leibniz(rows), rows


def test_det_all_zero_2x2_terms_give_the_int_zero():
    ctx = PadicContext(5, 3)
    s = PadicSeries(ctx, [1, 2, 3], 4)
    # a d and b c each have a zero factor: no product is formed
    for rows in ([[s, 0], [s, 0]], [[0, s], [0, s]], [[s, s], [0, 0]], [[0, 0], [0, 0]]):
        got = det(rows)
        assert type(got) is int and got == 0
    # a 3x3 whose every 2x2 minor of the last two rows vanishes
    got = det([[s, s, s], [s, 0, 0], [s, 0, 0]])
    assert type(got) is int and got == 0
    assert det([[s, 0], [0, s]]) == s * s
    assert det([[0, s], [s, 0]]) == -(s * s)
    assert det([[1, 2], [3, 4]]) == -2
