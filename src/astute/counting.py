"""Cycle counts of rule-generated factors, four ways.

The number of cycles of F_k(sigma) can be obtained by direct orbit
enumeration, by a Burnside average over brute-force fixed-point counts,
by the general ideal-quotient formula for affine rules ("theorem 2" in
the README), or by per-rule closed forms ("corollaries").  All methods
must agree; the CLI's `count --method all` asserts that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .algebra import ModPoly, divisors, euler_phi, factorize
from .errors import BudgetExceeded, NonIntegerResult
from .ideals import ideal_quotient_size, order_of_x, smallest_cycle_length
from .graph import GraphParams, cycle_lengths
from . import rules
from .rules import AffineRule, check_vertex_budget

METHODS = ("enumeration", "burnside_direct", "theorem2", "closed_form")

# Burnside composes and counts permutations of b^n words, one pass over
# the words each.  Above this many word steps (about 5 s on a 2-vCPU VM)
# it refuses instead of running for minutes.
BURNSIDE_MAX_STEPS = 1 << 25


@dataclass(frozen=True)
class CountReport:
    value: int
    method: str
    rule: str
    b: int
    n: int
    k: int
    witnesses: Optional[dict] = None

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("cycle count must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def count_enumeration(rule: AffineRule, k: int,
                      perm: list[int] | None = None) -> CountReport:
    """Count the orbits of the rule's action on G(n, k) from the cycles of
    perm, the rule's word permutation (built here by default).

    The action is perm on the word and +1 on the phase, so a word cycle
    of length L carries its L*k vertices in gcd(L, k) factor cycles of
    length lcm(L, k): one walk over the b^n words, none over the b^n*k
    vertices.  The vertex budget is still checked on b^n*k, as for every
    route that enumerates G(n, k).
    """
    check_vertex_budget(GraphParams(rule.b, rule.n, k))
    if perm is None:
        perm = rules.word_permutation(rule)
    return CountReport(sum([gcd(ell, k) for ell in cycle_lengths(perm)]), "enumeration",
                       rule.spec(), rule.b, rule.n, k)


def count_burnside_direct(rule: AffineRule, k: int,
                          omega: int | None = None,
                          perm: list[int] | None = None,
                          ell: int | None = None) -> CountReport:
    """Burnside average of brute-force fixed-point counts.

    The average runs over one period M = lcm(k, l, w) of
    i -> [k | i] * |Fix(rule^i)|, with l the rule's smallest word-cycle
    length and w = `omega`, any multiple of the order of X modulo its
    polynomial (the order itself by default).  With
    sigma = rule^k and top = M/k, sigma^top is the identity, so
    Fix(sigma^j) = Fix(sigma^gcd(j, top)) and

        sum over j < top of |Fix(sigma^j)|
            = sum over e | top of phi(top/e) * |Fix(sigma^e)|.

    The divisors are walked depth first over the primes of top, each
    power raised from a smaller divisor's power by one prime, so one
    brute-force count per divisor replaces one per power.  The estimate
    counts the compositions (rule^k, then one prime power per divisor
    past the first) plus one count per divisor, b^n word steps each; it
    is refused above BURNSIDE_MAX_STEPS.  A wrong omega is refused by
    smallest_cycle_length; past that, at e = top every word must be
    fixed, else M is not a period and ValueError is raised.  perm is the
    rule's word permutation (built here by default, after the word budget)
    and ell is l as smallest_cycle_length gives it for this omega (found
    here by default).
    """
    n_words = rule.b ** rule.n
    if n_words > rules.MAX_VERTICES:
        raise BudgetExceeded(f"{n_words} words exceeds budget {rules.MAX_VERTICES}")
    lam = rule.char_poly()
    if omega is None:
        omega = order_of_x(lam)
    if ell is None:
        ell = smallest_cycle_length(lam, rule.c, 1, omega)
    m = lcm(k, ell, omega)
    top = m // k
    # largest primes first: their raises are the dearest and run least often
    primes = sorted(factorize(top), reverse=True)
    compositions, n_divisors = rules.power_cost(k), 1
    for p, a in primes:
        compositions += n_divisors * a * rules.power_cost(p)
        n_divisors *= a + 1
    steps = (compositions + n_divisors) * n_words
    if steps > BURNSIDE_MAX_STEPS:
        raise BudgetExceeded(
            f"Burnside needs about {steps} steps (M={m}, {n_words} words), "
            f"over budget {BURNSIDE_MAX_STEPS}")

    def walk(i: int, power: list[int], e: int) -> int:
        # sum of phi(top/d) * |Fix(sigma^d)| over d = e * (divisors of the
        # part of top made of primes[i:]); power is sigma^e
        if i == len(primes):
            fixed = rules.fixed_points(power)
            if e == top and fixed != n_words:
                raise ValueError(f"M={m} is not a period of the rule: "
                                 f"rule^{m} fixes {fixed} of {n_words} words")
            return euler_phi(top // e) * fixed
        p, a = primes[i]
        total = walk(i + 1, power, e)
        for _ in range(a):
            power, e = rules.perm_power(power, p), e * p
            total += walk(i + 1, power, e)
        return total

    # each fixed-point count matches fix_count_bruteforce(rule, k * e)
    if perm is None:
        perm = rules.word_permutation(rule)
    total = walk(0, rules.perm_power(perm, k), 1)
    value = Fraction(k * total, m)
    if value.denominator != 1:
        raise NonIntegerResult(f"Burnside average {value} is not an integer")
    return CountReport(int(value), "burnside_direct", rule.spec(), rule.b, rule.n, k,
                       witnesses={"M": m, "ell": ell, "omega": omega})


def count_theorem2(lam: ModPoly, c: int, k: int,
                   omega: int | None = None,
                   rule_spec: str = "",
                   s: int | None = None) -> CountReport:
    """The general affine-rule count:

        (k * g) / (s * w) * sum over d | w, g | d of phi(w/d) * Q(d)

    with w = `omega` any multiple of the order of X mod lam (the order
    itself by default), s the least multiple of k with c*U_s in
    (lam, X^s - 1), g = gcd(s, w), and Q(d) the size of
    Z/bZ[X] / (lam, X^d - 1).  smallest_cycle_length checks w by
    Q(w) = b^deg(lam), which holds exactly when X^w === 1; the sum
    reuses that cached size.  A given s must be smallest_cycle_length's
    for this omega, which has then checked it.
    """
    if omega is None:
        omega = order_of_x(lam)
    if s is None:
        s = smallest_cycle_length(lam, c, k, omega)
    g = gcd(s, omega)
    terms = []
    total = 0
    for d in divisors(omega):
        if d % g:
            continue
        phi = euler_phi(omega // d)
        q = ideal_quotient_size(lam, d)
        terms.append((d, phi, q))
        total += phi * q
    value = Fraction(k * g * total, s * omega)
    if value.denominator != 1 or value < 1:
        raise NonIntegerResult(f"ideal-formula count {value} is not a positive integer")
    spec = rule_spec or f"affine:{c};(lambda={lam})"
    return CountReport(int(value), "theorem2", spec, lam.modulus,
                       lam.degree if not lam.is_zero else 0, k,
                       witnesses={"omega": omega, "s": s, "terms": terms})


def count_theorem2_rule(rule: AffineRule, k: int,
                        omega: int | None = None,
                        s: int | None = None) -> CountReport:
    return count_theorem2(rule.char_poly(), rule.c, k, omega=omega,
                          rule_spec=rule.spec(), s=s)


def _rotation_family(n: int, k: int, b: int, s: int) -> int:
    """(k * g) / (s * n) * sum over g | d | n of phi(n/d) * b^d, g = gcd(s, n):
    the general formula for a rule with polynomial X^n - 1 and smallest
    factor-cycle length s."""
    g = gcd(s, n)
    total = sum(euler_phi(n // d) * b ** d for d in divisors(n) if d % g == 0)
    value = Fraction(k * g * total, s * n)
    if value.denominator != 1:
        raise NonIntegerResult(f"closed form gave {value}")
    return int(value)


def closed_form_pcr(n: int, k: int, b: int) -> CountReport:
    """Rotation-rule count: (g/n) * sum over g | d | n of phi(n/d) * b^d, g = gcd(n, k)."""
    _check_nkb(n, k, b)
    return CountReport(_rotation_family(n, k, b, k), "closed_form", "pcr", b, n, k)


def base_divisor(n: int, b: int) -> int:
    """Smallest divisor d of n such that n // d is coprime to b."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for d in divisors(n):
        if gcd(n // d, b) == 1:
            return d
    return n  # unreachable: d = n always works


def closed_form_icr(n: int, k: int, b: int) -> CountReport:
    """Incremented-rotation count, with s = lcm(k, b * base_divisor(n, b))."""
    _check_nkb(n, k, b)
    s = lcm(k, b * base_divisor(n, b))
    return CountReport(_rotation_family(n, k, b, s), "closed_form", "icr", b, n, k,
                       witnesses={"s": s})


def closed_form_xor(n: int, k: int) -> CountReport:
    """Binary sum-feedback count.

    With w = n + 1 and g = gcd(k, w), the general formula specializes to

        g / (2w) * sum over e | (w/g) of phi(2e) * 2^(w/e)

    since the smallest factor-cycle length is k itself (the rule is
    linear) and the ideal sizes are 2^(d - 1 + [w/d even]).  At k = 1
    this is the familiar k/(2(n+1)) * sum over d | n+1 form.
    """
    _check_nkb(n, k, 2)
    w = n + 1
    g = gcd(k, w)
    total = sum(euler_phi(2 * e) * 2 ** (w // e) for e in divisors(w // g))
    value = Fraction(g * total, 2 * w)
    if value.denominator != 1:
        raise NonIntegerResult(f"closed form gave {value}")
    return CountReport(int(value), "closed_form", "xor", 2, n, k)


def closed_form_for(rule: AffineRule, k: int) -> CountReport | None:
    """The applicable closed form, or None for custom affine rules."""
    if rule.name == "pcr":
        return closed_form_pcr(rule.n, k, rule.b)
    if rule.name == "icr":
        return closed_form_icr(rule.n, k, rule.b)
    if rule.name == "xor":
        return closed_form_xor(rule.n, k)
    return None


def _check_nkb(n: int, k: int, b: int):
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if b < 2:
        raise ValueError("b must be >= 2")
