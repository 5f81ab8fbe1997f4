"""Exact arithmetic over Z/bZ and polynomials with coefficients in Z/bZ.

Coefficients are plain ints reduced into [0, b).  Polynomials are stored
with ascending degree and no trailing zeros; the zero polynomial has an
empty coefficient tuple and no degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CompositeModulus, LeadingNotInvertible, NotInvertible


def mod_inverse(a: int, b: int) -> int:
    """Inverse of a modulo b, via the extended Euclidean algorithm."""
    a %= b
    g, x = _egcd(a, b)
    if g != 1:
        raise NotInvertible(f"{a} is not invertible mod {b} (gcd {g})")
    return x % b


def _egcd(a: int, b: int) -> tuple[int, int]:
    # returns (g, x) with a*x === g (mod b)
    old_r, r = a, b
    old_x, x = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
    return old_r, old_x


def is_unit(a: int, b: int) -> bool:
    return gcd(a % b, b) == 1


def is_prime(m: int) -> bool:
    return m >= 2 and factorize(m) == [(m, 1)]


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


def euler_phi(m: int) -> int:
    """Count of integers in [1, m] coprime to m."""
    if m < 1:
        raise ValueError("euler_phi requires m >= 1")
    result = m
    for p, _ in factorize(m):
        result -= result // p
    return result


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

    @classmethod
    def zero(cls, b: int) -> "ModPoly":
        return cls((), b)

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

    def _check(self, other: "ModPoly"):
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")

    def __mul__(self, other):
        if isinstance(other, int):
            return ModPoly.from_coeffs([c * other for c in self.coeffs], self.modulus)
        self._check(other)
        if self.is_zero or other.is_zero:
            return ModPoly.zero(self.modulus)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, c in enumerate(other.coeffs):
                    out[i + j] += a * c
        return ModPoly.from_coeffs(out, self.modulus)

    __rmul__ = __mul__

    def monic(self) -> "ModPoly":
        if self.is_zero:
            return self
        inv = mod_inverse(self.leading, self.modulus)
        return self * inv

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}X^{j}" if j > 1 else f"{head}X")
        return " + ".join(terms)


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


def poly_divmod(p: ModPoly, q: ModPoly) -> tuple[ModPoly, ModPoly]:
    """Quotient and remainder of p by q; q's leading coefficient must be a unit."""
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    b = p.modulus
    if p.modulus != q.modulus:
        raise ValueError("mixed moduli")
    if not is_unit(q.leading, b):
        raise LeadingNotInvertible(
            f"leading coefficient {q.leading} not invertible mod {b}")
    inv = mod_inverse(q.leading, b)
    rem = list(p.coeffs)
    dq = q.degree
    quot = [0] * max(0, len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] % b
        if not c:
            continue
        f = (c * inv) % b
        quot[i - dq] = f
        for j, qc in enumerate(q.coeffs):
            rem[i - dq + j] = (rem[i - dq + j] - f * qc) % b
    return ModPoly.from_coeffs(quot, b), ModPoly.from_coeffs(rem, b)


def poly_rem(p: ModPoly, q: ModPoly) -> ModPoly:
    """Remainder of p modulo q (deg result < deg q)."""
    return poly_divmod(p, q)[1]


def poly_gcd_field(p: ModPoly, q: ModPoly) -> ModPoly:
    """Monic GCD of p and q; requires a prime modulus."""
    if p.modulus != q.modulus:
        raise ValueError("mixed moduli")
    if not is_prime(p.modulus):
        raise CompositeModulus(f"modulus {p.modulus} is not prime")
    a, c = p, q
    while not c.is_zero:
        a, c = c, poly_rem(a, c)
    return a.monic()
