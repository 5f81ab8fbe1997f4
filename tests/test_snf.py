import random
from itertools import combinations
from math import gcd

import pytest

from astute.snf import smith_normal_form


def test_known_forms():
    # integer forms [1, 1], [2, 4] and [1, 6], restated mod b
    assert smith_normal_form([[1, 0], [0, 1]], 6) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]], 8) == [2, 4]
    assert smith_normal_form([[2, 0], [0, 4]], 6) == [2, 2]
    assert smith_normal_form([[2, 0], [0, 3]], 12) == [1, 6]
    assert smith_normal_form([[2, 0], [0, 3]], 4) == [1, 2]
    assert smith_normal_form([[2, 0], [0, 3]], 5) == [1, 1]


def test_rank_deficient_and_rectangular():
    # a missing pivot counts as b
    assert smith_normal_form([[1, 2], [2, 4]], 6) == [1, 6]
    assert smith_normal_form([[2, 4]], 4) == [2]
    assert smith_normal_form([[2, 4]], 3) == [1]
    assert smith_normal_form([[0], [-2]], 4) == [2]
    assert smith_normal_form([[2], [3]], 6) == [1]
    assert smith_normal_form([[0, 0], [0, 0]], 5) == [5, 5]
    assert smith_normal_form([[6, 12, 18]], 36) == [6]


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]], 6)
    with pytest.raises(ValueError):
        smith_normal_form([], 6)
    with pytest.raises(ValueError):
        smith_normal_form([[1]], 1)


def _minor_gcd(a, size):
    """gcd of all size x size minors (0 if all vanish)."""
    nr, nc = len(a), len(a[0])
    g = 0
    for rows in combinations(range(nr), size):
        for cols in combinations(range(nc), size):
            g = gcd(g, _det([[a[i][j] for j in cols] for i in rows]))
    return g


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def test_random_matrices_against_determinantal_divisors():
    # over Z/b the i-th divisor is gcd(D_i / D_(i-1), b), with D_i the gcd
    # of the i x i minors of the integer matrix; D_i = 0 gives b
    rng = random.Random(42)
    for _ in range(240):
        b = rng.choice([2, 3, 4, 8, 9, 6, 12, 36])
        nr, nc = rng.choice([(3, 3), (3, 3), (2, 3), (3, 2), (4, 3)])
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        divisors = smith_normal_form(a, b)
        want, prev = [], 1
        for size in range(1, min(nr, nc) + 1):
            d = _minor_gcd(a, size)
            want.append(gcd(d // prev, b) if d else b)
            prev = d
        assert divisors == want, (a, b)
        for x, y in zip(divisors, divisors[1:]):
            assert y % x == 0
        assert all(b % x == 0 for x in divisors)
