"""Smith normal form over Z/b, exact.

Matrices are plain rectangular list-of-lists of Python ints, read mod b.
Only the elementary divisors are computed; no transform matrices are
tracked.  Z/b splits into the local rings Z/p^a for p^a || b (Chinese
remainder theorem), and over Z/p^a every element is a unit times a power
of p, so an entry of least p-adic valuation divides all the others
exactly: elimination needs no gcd steps and no entry exceeds p^a.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .algebra import factorize


def _as_matrix(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    a = [list(r) for r in rows]
    if not a or not a[0]:
        raise ValueError("matrix must be nonempty")
    w = len(a[0])
    if any(len(r) != w for r in a):
        raise ValueError("matrix must be rectangular")
    return a


def smith_normal_form(rows: Sequence[Sequence[int]], b: int) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of a matrix over Z/b.

    Returns min(r, c) divisors of b with the divisibility chain; a
    missing pivot counts as b.  Each equals gcd(e_i, b) for the integer
    matrix's elementary divisor e_i.
    """
    a = _as_matrix(rows)
    if b < 2:
        raise ValueError("modulus must be >= 2")
    divisors = [1] * min(len(a), len(a[0]))
    for p, e in factorize(b):
        for i, g in enumerate(_local_divisors(a, p ** e)):
            divisors[i] *= g
    return divisors


def _local_divisors(rows: list[list[int]], q: int) -> list[int]:
    """Elementary divisors over Z/q for a prime power q, ascending.

    A pivot of least valuation is a unit u times g = gcd(pivot, q); it
    clears its column with its own row, after which its row and column
    drop out.  Every later entry is a combination of entries divisible
    by g, so the pivots come out ascending."""
    a = [[x % q for x in r] for r in rows]
    out = []
    while a and a[0]:
        g = q
        for i, r in enumerate(a):  # a row holding a unit ends the search
            for j, x in enumerate(r):
                if x and gcd(x, q) < g:
                    g, pi, pj = gcd(x, q), i, j
            if g == 1:
                break
        if g == q:
            break
        pivot = a.pop(pi)
        inv = pow(pivot.pop(pj) // g, -1, q)
        for r in a:
            f = r.pop(pj) // g * inv % q
            if f:
                r[:] = [(x - f * y) % q for x, y in zip(r, pivot)]
        out.append(g)
    return out + [q] * (min(len(rows), len(rows[0])) - len(out))
