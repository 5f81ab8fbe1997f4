"""Smith normal form of integer matrices, exact (arbitrary precision).

Matrices are plain rectangular list-of-lists of Python ints.  Only the
elementary divisors are computed; no transform matrices are tracked.
"""

from __future__ import annotations

from typing import Sequence


def _as_matrix(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    a = [list(r) for r in rows]
    if not a or not a[0]:
        raise ValueError("matrix must be nonempty")
    w = len(a[0])
    if any(len(r) != w for r in a):
        raise ValueError("matrix must be rectangular")
    return a


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Returns min(r, c) nonnegative integers with the divisibility chain;
    trailing zeros indicate rank deficiency.  The chain needs no repair:
    a pivot is kept only once it divides the whole trailing submatrix,
    and every later entry is an integer combination of that submatrix's
    entries, so every later pivot is its multiple.
    """
    a = _as_matrix(rows)
    nr, nc = len(a), len(a[0])
    n = min(nr, nc)
    divisors = []
    t = 0
    while t < n:
        pivot = _find_pivot(a, t)
        if pivot is None:
            break
        _move_pivot(a, t, pivot)
        while not _reduce_at(a, t):
            pass
        divisors.append(abs(a[t][t]))
        t += 1
    divisors += [0] * (n - len(divisors))
    return divisors


def _find_pivot(a, t):
    # smallest nonzero absolute value in the trailing submatrix
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            v = a[i][j]
            if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def _move_pivot(a, t, pivot):
    i, j = pivot
    if i != t:
        a[t], a[i] = a[i], a[t]
    if j != t:
        for row in a:
            row[t], row[j] = row[j], row[t]


def _reduce_at(a, t) -> bool:
    """One clearing pass at pivot (t, t); True when row+col are clear and
    the pivot divides the rest of the submatrix."""
    nr, nc = len(a), len(a[0])
    # clear column t
    for i in range(nr):
        if i == t or not a[i][t]:
            continue
        q = a[i][t] // a[t][t]
        if a[i][t] - q * a[t][t]:
            # nonzero remainder: swap the smaller residue up and restart
            for j in range(nc):
                a[i][j] -= q * a[t][j]
            a[t], a[i] = a[i], a[t]
            return False
        for j in range(nc):
            a[i][j] -= q * a[t][j]
    # clear row t
    for j in range(nc):
        if j == t or not a[t][j]:
            continue
        q = a[t][j] // a[t][t]
        if a[t][j] - q * a[t][t]:
            for i in range(nr):
                a[i][j] -= q * a[i][t]
            for i in range(nr):
                a[i][t], a[i][j] = a[i][j], a[i][t]
            return False
        for i in range(nr):
            a[i][j] -= q * a[i][t]
    # pivot must divide every remaining entry; if not, fold that row in
    p = a[t][t]
    for i in range(t + 1, nr):
        for j in range(t + 1, nc):
            if a[i][j] % p:
                for jj in range(nc):
                    a[t][jj] += a[i][jj]
                return False
    return True

