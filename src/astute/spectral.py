"""Finite Fourier transform of words and the distinguished-vertex
machinery used to certify that rotation-rule factors are extremal.

C(a_0..a_{n-1}) = sum a_i mu^i with mu = exp(2*pi*i/n).  Realness and
equality of transforms are decided exactly over the integers (reduction
mod the n-th cyclotomic polynomial); only the sign of a provably
nonzero imaginary part is read off in floating point.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotPcrOrbit, PreconditionViolated
from .graph import Cycle, Factor, GraphParams, Vertex, pack
from .rules import enumerate_factor, pcr

REAL_TOL = 1e-9


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
            num = _int_poly_div_exact(num, list(cyclotomic(d)))
    return tuple(num)


def _int_poly_div_exact(p: list[int], q: list[int]) -> list[int]:
    # exact division by a monic integer polynomial
    p = list(p)
    dq = len(q) - 1
    out = [0] * (len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i]
        if c == 0:
            continue
        out[i - dq] = c
        for j, qc in enumerate(q):
            p[i - dq + j] -= c * qc
    if any(p):
        raise ArithmeticError("division was not exact")
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _reduce_mod_cyclotomic(coeffs: list[int], n: int) -> list[int]:
    phi = cyclotomic(n)
    dq = len(phi) - 1
    r = list(coeffs)
    for i in range(len(r) - 1, dq - 1, -1):
        c = r[i]
        if c == 0:
            continue
        r[i] = 0
        for j, qc in enumerate(phi[:-1]):
            r[i - dq + j] -= c * qc
    return r[:dq]


def evaluates_to_zero_exact(coeffs, n: int) -> bool:
    """Whether sum(coeffs[i] * mu^i) is exactly zero (integer coeffs)."""
    return not any(_reduce_mod_cyclotomic(list(coeffs), n))


def root_of_unity(n: int, j: int = 1) -> complex:
    return cmath.exp(2j * cmath.pi * j / n)


@lru_cache(maxsize=None)
def _roots(n: int) -> tuple[complex, ...]:
    """root_of_unity(n, i) for i < n, so a transform costs no exp per term."""
    return tuple(root_of_unity(n, i) for i in range(n))


def _approx(coeffs: tuple[int, ...], n: int) -> complex:
    """sum a_i mu^i over the root table, in fixed left-to-right order (the
    terms and their order are those of a per-term exp, so every float is
    bit-identical to one)."""
    if len(coeffs) != n:
        raise ValueError(f"word length {len(coeffs)} != n = {n}")
    total = 0j
    for a, r in zip(coeffs, _roots(n)):
        total += a * r
    return total


@dataclass(frozen=True)
class Transform:
    """C(word) in two forms: float approximation and the integer
    coefficient vector it came from (exact arithmetic happens on the
    latter, mod the order-n cyclotomic polynomial)."""
    approx: complex
    exact: tuple[int, ...]
    order: int


def transform(word, n: int | None = None) -> Transform:
    """Finite Fourier transform of a word (or any integer vector)."""
    coeffs = tuple(map(int, word))
    if n is None:
        n = len(coeffs)
    return Transform(_approx(coeffs, n), coeffs, n)


def is_real_exact(word, n: int | None = None) -> bool:
    """Exactly decide Im C(word) = 0.

    C - conj(C) collects to sum (a_i - a_{(n-i) mod n}) mu^i, which
    vanishes iff the cyclotomic polynomial divides that difference.
    """
    coeffs = [int(a) for a in word]
    if n is None:
        n = len(coeffs)
    diff = [coeffs[i] - coeffs[(n - i) % n] for i in range(n)]
    return evaluates_to_zero_exact(diff, n)


def transforms_equal_exact(u, v, n: int) -> bool:
    """Exactly decide C(u) = C(v) for integer vectors of length n."""
    return evaluates_to_zero_exact([int(a) - int(b) for a, b in zip(u, v)], n)


def rotate_left(word: tuple[int, ...]) -> tuple[int, ...]:
    return word[1:] + word[:1]


def rotate_right(word: tuple[int, ...]) -> tuple[int, ...]:
    return word[-1:] + word[:-1]


def rotation_identity_check(word, n: int | None = None, tol: float = REAL_TOL) -> bool:
    """Check C(rotate_left(word)) = mu^(-1) * C(word) numerically."""
    word = tuple(map(int, word))
    if n is None:
        n = len(word)
    lhs = _approx(rotate_left(word), n)
    rhs = root_of_unity(n, -1) * _approx(word, n)
    return abs(lhs - rhs) < tol


def cycle_sum_check(cycle: Cycle, tol_per_vertex: float = 1e-6) -> bool:
    """Transforms along any graph cycle must sum to zero."""
    total = 0j
    n = len(cycle.vertices[0].word)
    for v in cycle.vertices:
        total += _approx(v.word, n)
    return abs(total) < tol_per_vertex * len(cycle.vertices)


def _check_pcr_orbit(cycle: Cycle, p: GraphParams):
    vs = cycle.vertices
    t = len(vs)
    for i, v in enumerate(vs):
        w = vs[(i + 1) % t]
        if w.word != rotate_left(v.word) or w.phase != (v.phase + 1) % p.k:
            raise NotPcrOrbit(
                f"step {i}: {v} -> {w} is not a rotation-rule action step")


def distinguished_vertex(cycle: Cycle, p: GraphParams) -> Vertex:
    """The distinguished vertex of a rotation-rule orbit.

    All transforms exactly real: the minimal packed vertex (canonical
    stand-in for an arbitrary choice).  Otherwise: the vertex where the
    imaginary part first crosses from >= 0 to < 0 along the orbit;
    among several crossings (orbits that wrap the circle more than
    once) the minimal packed one is taken so each orbit still yields
    exactly one vertex.
    """
    _check_pcr_orbit(cycle, p)
    vs = cycle.vertices
    n = p.n
    reals = [is_real_exact(v.word, n) for v in vs]
    if all(reals):
        return min(vs, key=lambda v: pack(v, p))
    # exact screening first; floats only for the sign of nonzero parts
    ims = [0.0 if reals[i] else _approx(v.word, n).imag
           for i, v in enumerate(vs)]
    descents = [i for i in range(len(vs))
                if (not reals[i] and ims[i] < 0)
                and (reals[i - 1] or ims[i - 1] > 0)]
    if not descents:
        raise NotPcrOrbit("no sign descent found on a non-real orbit")
    return min((vs[i] for i in descents), key=lambda v: pack(v, p))


def pcr_distinguished_codes(p: GraphParams) -> set[int]:
    """Packed distinguished vertices, one per rotation-rule orbit of G(n, k)."""
    factor = enumerate_factor(pcr(p.n, p.b), p.k)
    return {pack(distinguished_vertex(c, p), p) for c in factor.cycles}


def covering_check(factor: Factor) -> bool:
    """Does every cycle of the factor contain a distinguished vertex?

    Only meaningful in the divisibility regime the extremality theorem
    covers, so other shapes are rejected.
    """
    p = factor.params
    if p.n % p.k and p.k % p.n:
        raise PreconditionViolated(f"need k | n or n | k, got n={p.n}, k={p.k}")
    marked = pcr_distinguished_codes(p)
    for cyc in factor.cycles:
        if not any(pack(v, p) in marked for v in cyc.vertices):
            return False
    return True


def orbit_transform_table(p: GraphParams) -> list[dict]:
    """Per-vertex transform data for every rotation-rule orbit (CSV fodder)."""
    factor = enumerate_factor(pcr(p.n, p.b), p.k)
    rows = []
    for idx, cyc in enumerate(factor.cycles):
        d = distinguished_vertex(cyc, p)
        for v in cyc.vertices:
            t = _approx(v.word, p.n)
            rows.append({
                "orbit": idx,
                "word": v.word,
                "phase": v.phase,
                "re": t.real,
                "im": t.imag,
                "distinguished": v == d,
            })
    return rows
