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
from math import gcd, inf, lcm
from operator import eq
from typing import Optional

from .algebra import ModPoly, divisors, euler_phi, factorize
from .errors import BudgetExceeded, NonIntegerResult
from .ideals import ideal_quotient_size, order_of_x, smallest_cycle_length
from .graph import GraphParams, cycle_lengths, value_word, word_str
from . import rules
from .rules import AffineRule, check_vertex_budget

METHODS = ("enumeration", "burnside_direct", "theorem2", "closed_form")

# Burnside composes and counts permutations of b^n words, one pass over
# the words each, and walks the few words that can be fixed elsewhere.
# Above this many word steps (about 5 s on a 2-vCPU VM) it refuses
# instead of running for minutes.
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

    fixed_point_counts finds each |Fix(sigma^e)| on the word permutation
    and checks that M is a period; it refuses above BURNSIDE_MAX_STEPS.
    The route reads neither cycle lengths nor ideal sizes: l and w only
    form M, and a wrong M fails the period check.  A wrong omega is
    refused by smallest_cycle_length.  perm is the rule's word
    permutation (built after the word budget and the step estimate by
    default) and ell is l as smallest_cycle_length gives it for this
    omega (found here by default).
    """
    n_words = rule.b ** rule.n
    if n_words > rules.MAX_VERTICES:
        raise BudgetExceeded(f"{n_words} words exceeds budget {rules.MAX_VERTICES}")
    if omega is None:
        omega = order_of_x(rule.char_poly())
    if ell is None:
        ell = smallest_cycle_length(rule.char_poly(), rule.c, 1, omega)
    m = lcm(k, ell, omega)
    top = m // k
    counts = fixed_point_counts(rule, k, m, perm)
    total = k * sum([euler_phi(top // e) * fixed for e, fixed in counts.items()])
    value, rem = divmod(total, m)
    if rem:
        raise NonIntegerResult(f"Burnside average {Fraction(total, m)} is not an integer")
    return CountReport(value, "burnside_direct", rule.spec(), rule.b, rule.n, k,
                       witnesses={"M": m, "ell": ell, "omega": omega})


def fixed_point_counts(rule: AffineRule, k: int, m: int,
                       perm: list[int] | None = None) -> dict[int, int]:
    """|Fix(rule^(k*e))| for every divisor e of top = m/k, where m, a
    multiple of k, must be a period of the rule (ValueError otherwise).

    Only the words that can be fixed are walked.  Two shift-register
    facts (Golomb, Shift Register Sequences, 1967) say which:

    - for j = k*e < n, a word that rule^j fixes equals its j-shift, so it
      is the j-periodic extension of its first j symbols: only those b^j
      words are counted;
    - rule^m is affine over Z/b (composite b included), so it is the
      identity exactly when it fixes the zero word and the n unit words:
      at e = top only those n + 1 are checked.

    At every other e (k*e >= n, e < top) all b^n words are counted on the
    list of sigma^e, sigma = rule^k.  The divisors are walked depth first
    over the primes of top, and each sigma^e is either a list, raised
    from its parent divisor's list by one prime (sigma from perm by k),
    or walked: its few words take e/d steps of the list of its nearest
    listed divisor d, or k*e steps of perm.  A full count needs its list;
    any other list is raised only where that takes no more word steps
    than walking the words at and below it, decided children first
    (_plan_divisors).  The word steps are counted before any work: b^n
    per composition and per full count, and the words times the steps
    per word for every other count.  Above BURNSIDE_MAX_STEPS the walk is
    refused.  perm is the rule's word permutation (built after the
    estimate by default).
    """
    b, n = rule.b, rule.n
    n_words = b ** n
    top = m // k
    # (p, a, c) for each prime power p^a of top, c the word steps of
    # raising a list by p; largest primes first: their raises are the
    # dearest and run least often
    levels = [(p, a, rules.power_cost(p) * n_words)
              for p, a in sorted(factorize(top), reverse=True)]
    basis = [0] + [b ** i for i in range(n)]  # the zero word and the n unit words
    raised = set()
    if levels:
        listed, walked = _plan_divisors(levels, 0, 1, k, n, b, top, raised)
    else:
        listed = walked = n + 1  # top = 1: only the period is checked
    here, there = rules.power_cost(k) * n_words + listed, k * walked
    if here <= there:
        raised.add(1)
    steps = min(here, there)
    if steps > BURNSIDE_MAX_STEPS:
        raise BudgetExceeded(
            f"Burnside needs about {steps} steps (M={m}, {n_words} words), "
            f"over budget {BURNSIDE_MAX_STEPS}")
    if perm is None:
        perm = rules.word_permutation(rule)
    counts = {}

    def count(e: int, power: list[int], walk: int):
        # |Fix(sigma^e)|, sigma^e = power^walk
        j = k * e
        if e < top and j >= n:
            counts[e] = rules.fixed_points(power)
            return
        words = basis if e == top else rules.periodic_words(b, n, j)
        after = rules.advance(power, words, walk)
        counts[e] = sum(map(eq, after, words))
        if e == top:
            if counts[e] < len(words):
                moved = next(w for w, v in zip(words, after) if w != v)
                raise ValueError(f"M={m} is not a period of the rule: rule^{m} "
                                 f"moves word {word_str(value_word(moved, n, b))}")
            counts[e] = n_words

    power, walk = (rules.perm_power(perm, k), 1) if 1 in raised else (perm, k)
    if levels:
        _walk_divisors(levels, 0, raised, 1, power, walk, count)
    else:
        count(1, power, walk)
    return counts


def _plan_divisors(levels: list[tuple[int, int, int]], i: int, e: int, k: int,
                   n: int, b: int, top: int, raised: set[int]) -> tuple[int, float]:
    """(listed, walked) over d = e * (each divisor of the product of the
    prime powers of levels[i:]), the divisors _walk_divisors visits from
    e: the word steps of their raises and counts when sigma^e is a list,
    and, when it is not, the steps per step of sigma^e that walking their
    words takes (inf when some d < top with k*d >= n needs a full count,
    hence a list).  Each d*p whose list takes no more steps raised from
    sigma^d's than walked goes in raised."""
    p, a, cost = levels[i]
    i += 1
    below = i < len(levels)
    # the chain e*p^a, ..., e*p, e, each raised from the next, children first
    d = e * p ** a
    listed = walked = 0
    while True:
        if below:
            here, there = _plan_divisors(levels, i, d, k, n, b, top, raised)
        elif d == top:
            here = there = n + 1  # the zero word and the n unit words
        elif k * d < n:
            here = there = b ** (k * d)  # the periodic words
        else:
            here, there = b ** n, inf
        if d == e:
            return here + listed, there + walked
        here += cost + listed
        there = p * (there + walked)
        if here <= there:
            raised.add(d)
        listed, walked = min(here, there), there
        d //= p


def _walk_divisors(levels: list[tuple[int, int, int]], i: int, raised: set[int],
                   e: int, power: list[int], walk: int, visit):
    """visit(d, power_d, walk_d), with sigma^d = power_d^walk_d, for
    d = e * (each divisor of the product of the prime powers of
    levels[i:]), depth first, where sigma^e = power^walk.  sigma^(d*p) is
    raised from the list of sigma^d by p when sigma^d is a list (walk 1)
    and d*p is in raised, else walked p times as far.  At most one list
    per prime is alive.  Module level rather than a recursive closure,
    which would sit in a reference cycle with the word permutation and
    keep it alive until the next garbage collection."""
    p, a, _ = levels[i]
    i += 1
    below = i < len(levels)
    while True:  # e, e*p, ..., e*p^a
        if below:
            _walk_divisors(levels, i, raised, e, power, walk, visit)
        else:
            visit(e, power, walk)
        if not a:
            return
        a -= 1
        e *= p
        if walk == 1 and e in raised:
            power = rules.perm_power(power, p)
        else:
            walk *= p


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
    value, rem = divmod(k * g * total, s * omega)
    if rem or value < 1:
        raise NonIntegerResult(f"ideal-formula count {Fraction(k * g * total, s * omega)} "
                               "is not a positive integer")
    spec = rule_spec or f"affine:{c};(lambda={lam})"
    return CountReport(value, "theorem2", spec, lam.modulus,
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
