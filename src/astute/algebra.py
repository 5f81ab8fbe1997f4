"""Exact arithmetic over Z/bZ: units, integer factorization, divisors with
their totients; polynomials over Z/bZ as values; and polynomial remainder
and gcd over a prime field Z/p.

Coefficients are plain ints reduced into [0, b), listed by ascending
degree.  ModPoly is the polynomial as a hashable value (the cache key of
ideals.ideal_quotient_size); it stores no trailing zeros, and the zero
polynomial has an empty coefficient tuple and no degree.  Arithmetic runs
on plain coefficient lists: _rem_mod_p and poly_gcd over Z/p here, and
residues mod a polynomial over Z/b in ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def is_unit(a: int, b: int) -> bool:
    return gcd(a % b, b) == 1


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 by trial division: (p, a) pairs
    with ascending primes p and exponents a >= 1."""
    if m < 1:
        raise ValueError("factorize requires m >= 1")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            a = 0
            while m % d == 0:
                m //= d
                a += 1
            out.append((d, a))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def divisors(m: int) -> list[int]:
    """Divisors of m >= 1 in ascending order."""
    out = [1]
    for p, a in factorize(m):
        out = [d * p ** i for d in out for i in range(a + 1)]
    return sorted(out)


def divisor_phis(m: int) -> dict[int, int]:
    """Euler's phi of every divisor of m >= 1, keyed by the divisor (in
    no set order), from one factorization: for d prime to p,
    phi(d * p^i) = phi(d) * (p - 1) * p^(i - 1)."""
    out = {1: 1}
    for p, a in factorize(m):
        for d, phi in list(out.items()):
            phi *= p - 1
            for _ in range(a):
                d *= p
                out[d] = phi
                phi *= p
    return out


@dataclass(frozen=True)
class ModPoly:
    """Polynomial over Z/bZ, coefficients ascending by degree.

    Invariants: every coefficient lies in [0, modulus); the highest-index
    coefficient is nonzero.  The zero polynomial is the empty tuple and
    has no degree.
    """

    coeffs: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.coeffs and (self.coeffs[-1] % self.modulus == 0
                            or any(not 0 <= c < self.modulus for c in self.coeffs)):
            raise ValueError("coefficients not normalized")

    @classmethod
    def from_coeffs(cls, coeffs, b: int) -> "ModPoly":
        """Build from any int sequence (ascending degree), normalizing mod b."""
        cs = [c % b for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs), b)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0


def u_poly(m: int, b: int) -> ModPoly:
    """1 + X + ... + X^(m-1) over Z/bZ."""
    if m < 1:
        raise ValueError("u_poly requires m >= 1")
    return ModPoly.from_coeffs([1] * m, b)


def x_pow_minus_one(m: int, b: int) -> ModPoly:
    """X^m - 1 over Z/bZ."""
    if m < 1:
        raise ValueError("x_pow_minus_one requires m >= 1")
    return ModPoly.from_coeffs([-1] + [0] * (m - 1) + [1], b)


def _rem_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g over Z/p, trailing zeros stripped; g's top coefficient is
    nonzero mod p."""
    f = [x % p for x in f]
    inv = pow(g[-1], -1, p)
    top = len(g) - 1
    for i in range(len(f) - 1, top - 1, -1):
        t = f[i] * inv % p
        if t:
            for j, y in enumerate(g, i - top):
                f[j] = (f[j] - t * y) % p
    del f[top:]
    while f and not f[-1]:
        f.pop()
    return f


def poly_gcd(f, g, p: int) -> list[int]:
    """Monic gcd of f and g over Z/p by Euclid's algorithm, as a
    coefficient list ascending by degree.  f and g are int sequences in
    the same order, trailing zeros mod p allowed.

    p must be prime, and f and g must not both be zero mod p.
    """
    f, g = ([x % p for x in h] for h in (f, g))
    for h in (f, g):
        while h and not h[-1]:
            h.pop()
    while g:
        f, g = g, _rem_mod_p(f, g, p)
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]
