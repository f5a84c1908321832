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


def _random_series(rng, ctx, D):
    """The zero series two times in five, else residues that are mostly zero."""
    if rng.random() < 0.4:
        return PadicSeries.zero(ctx, D)
    return PadicSeries(ctx, [rng.choice((0, 0, 1, rng.randrange(ctx.modulus))) for _ in range(D + 1)], D)


def test_det_over_series_stays_in_the_entries_ring():
    rng = random.Random(20261019)
    ctx, D = PadicContext(5, 3), 4
    zeros = 0
    for n in range(1, 5):
        for trial in range(60):
            rows = [[_random_series(rng, ctx, D) for _ in range(n)] for _ in range(n)]
            if n >= 2 and trial % 3 == 0:
                # a repeated row or a row of zero series: the det is zero
                rows[-1] = list(rows[0]) if trial % 2 else [PadicSeries.zero(ctx, D)] * n
            got = det(rows)
            assert type(got) is PadicSeries and got.ctx is ctx and got.D == D
            assert got == _leibniz(rows), rows
            zeros += got.is_zero()
    assert zeros >= 40
