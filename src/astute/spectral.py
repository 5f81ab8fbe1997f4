"""Finite Fourier transform of words and the distinguished-vertex
machinery used to certify that rotation-rule factors are extremal.

C(a_0..a_{n-1}) = sum a_i mu^i with mu = exp(2*pi*i/n).  Realness,
equality of transforms and the two transform lemmas (scaling under
rotation, zero sum along a cycle) are decided exactly over the integers
(reduction mod the n-th cyclotomic polynomial).  Floats remain only in
transform, for the CSV dump and for reading the sign of a provably
nonzero imaginary part."""

from __future__ import annotations

import cmath
from functools import lru_cache

from .errors import Inconclusive, NotPcrOrbit, PreconditionViolated
from .graph import Cycle, Factor, GraphParams
from .rules import enumerate_factor, pcr


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed as (X^n - 1) divided exactly by all lower-order cyclotomic
    factors; fine for the small n used here.
    """
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _int_poly_divmod(num, cyclotomic(d))
            if any(rem):
                raise ArithmeticError("division was not exact")
    return tuple(num)


def _int_poly_divmod(p, q) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending) by a
    monic q."""
    r = list(p)
    dq = len(q) - 1
    quot = [0] * (len(r) - dq)
    for i in range(len(r) - 1, dq - 1, -1):
        c = r[i]
        if c:
            quot[i - dq] = c
            for j, qc in enumerate(q, i - dq):
                r[j] -= c * qc
    return quot, r[:dq]


def evaluates_to_zero_exact(coeffs, n: int) -> bool:
    """Whether sum(coeffs[i] * mu^i) is exactly zero (integer coeffs)."""
    return not any(_int_poly_divmod(coeffs, cyclotomic(n))[1])


@lru_cache(maxsize=None)
def _roots(n: int) -> tuple[complex, ...]:
    """mu^i for i < n, so a transform costs no exp per term."""
    return tuple(cmath.exp(2j * cmath.pi * i / n) for i in range(n))


def _length(word, n: int | None) -> int:
    """n, defaulting to len(word); a word of another length is refused."""
    if n is None:
        n = len(word)
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != n = {n}")
    return n


def transform(word, n: int | None = None) -> complex:
    """C(word) = sum a_i mu^i for a sequence of integers, summed left to
    right over the root table: the terms and their order are those of a
    per-term exp, so every float is bit-identical to one."""
    total = 0j
    for a, r in zip(word, _roots(_length(word, n))):
        total += a * r
    return total


def is_real_exact(word, n: int | None = None) -> bool:
    """Exactly decide Im C(word) = 0.

    C - conj(C) collects to sum (a_i - a_{(n-i) mod n}) mu^i, which
    vanishes iff the cyclotomic polynomial divides that difference.
    """
    coeffs = [int(a) for a in word]
    n = _length(coeffs, n)
    diff = [coeffs[i] - coeffs[(n - i) % n] for i in range(n)]
    return evaluates_to_zero_exact(diff, n)


def rotate_left(word: tuple[int, ...]) -> tuple[int, ...]:
    return word[1:] + word[:1]


def rotate_right(word: tuple[int, ...]) -> tuple[int, ...]:
    return word[-1:] + word[:-1]


def rotation_identity_holds(n: int) -> bool:
    """Whether mu * C(rotate_left(s)) = C(s) for every integer word s of
    length n, hence for every word over every b.

    X * C(rot s) - C(s), an integer polynomial of degree <= n (it is
    a_0 * (X^n - 1)), is Z-linear in s, so deciding it exactly on the unit
    words e_0 .. e_(n-1) decides it on every integer vector.
    """
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        diff = [0, *rotate_left(unit)]
        diff[j] -= 1
        if not evaluates_to_zero_exact(diff, n):
            return False
    return True


def cycle_sum_check(cycle: Cycle) -> bool:
    """Transforms along any graph cycle must sum to zero: with S_i the sum
    of symbol i over the cycle's words, sum S_i mu^i = 0 exactly.

    Symbol i of packed vertex c is c // (k * b^(n-1-i)) % b, so the S_i
    come from the codes by arithmetic and no vertex is decoded."""
    b, n, k = cycle.params.b, cycle.params.n, cycle.params.k
    weights = [k * b ** (n - 1 - i) for i in range(n)]
    sums = [sum([c // w % b for c in cycle.codes]) for w in weights]
    return evaluates_to_zero_exact(sums, n)


def distinguished_code(cycle: Cycle, p: GraphParams) -> int:
    """The packed distinguished vertex of a rotation-rule orbit.

    All transforms exactly real: the minimal packed vertex (canonical
    stand-in for an arbitrary choice).  Otherwise: the vertex where the
    imaginary part first crosses from >= 0 to < 0 along the orbit;
    among several crossings (orbits that wrap the circle more than
    once) the minimal packed one is taken so each orbit still yields
    exactly one vertex.  A nonzero imaginary part smaller than the
    rounding bound n * (b - 1) * 2^-50 of transform's sum raises
    Inconclusive instead of trusting its float sign.
    """
    vs = cycle.vertices
    for i, v in enumerate(vs):
        w = vs[(i + 1) % len(vs)]
        if w.word != rotate_left(v.word) or w.phase != (v.phase + 1) % p.k:
            raise NotPcrOrbit(
                f"step {i}: {v} -> {w} is not a rotation-rule action step")
    n = p.n
    reals = [is_real_exact(v.word, n) for v in vs]
    if all(reals):
        return min(cycle.codes)
    # exact screening first; floats only for the sign of nonzero parts,
    # and only where rounding cannot have flipped it
    ims = [0.0 if reals[i] else transform(v.word, n).imag
           for i, v in enumerate(vs)]
    bound = n * (p.b - 1) * 2.0 ** -50
    for real, im, v in zip(reals, ims, vs):
        if not real and abs(im) < bound:
            raise Inconclusive(
                f"Im C({v.word}) = {im!r} is nonzero but within the rounding "
                f"bound {bound!r}, so its sign cannot be read")
    descents = [cycle.codes[i] for i in range(len(vs))
                if (not reals[i] and ims[i] < 0)
                and (reals[i - 1] or ims[i - 1] > 0)]
    if not descents:
        raise NotPcrOrbit("no sign descent found on a non-real orbit")
    return min(descents)


def pcr_distinguished_codes(p: GraphParams) -> set[int]:
    """Packed distinguished vertices, one per rotation-rule orbit of G(n, k)."""
    factor = enumerate_factor(pcr(p.n, p.b), p.k)
    return {distinguished_code(c, p) for c in factor.cycles}


def covering_check(factor: Factor) -> bool:
    """Does every cycle of the factor contain a distinguished vertex?

    Only meaningful in the divisibility regime the extremality theorem
    covers, so other shapes are rejected.  No package code calls it; it is
    kept as the covering property's check until a certificate that G - D
    is acyclic replaces it.
    """
    p = factor.params
    if p.n % p.k and p.k % p.n:
        raise PreconditionViolated(f"need k | n or n | k, got n={p.n}, k={p.k}")
    marked = pcr_distinguished_codes(p)
    for cyc in factor.cycles:
        if not any(c in marked for c in cyc.codes):
            return False
    return True


def orbit_transform_table(p: GraphParams) -> list[dict]:
    """Per-vertex transform data for every rotation-rule orbit (CSV fodder)."""
    factor = enumerate_factor(pcr(p.n, p.b), p.k)
    rows = []
    for idx, cyc in enumerate(factor.cycles):
        d = distinguished_code(cyc, p)
        for c, v in zip(cyc.codes, cyc.vertices):
            t = transform(v.word, p.n)
            rows.append({
                "orbit": idx,
                "word": v.word,
                "phase": v.phase,
                "re": t.real,
                "im": t.imag,
                "distinguished": c == d,
            })
    return rows
