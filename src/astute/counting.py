"""Cycle counts of rule-generated factors, four ways.

The number of cycles of F_k(sigma) can be obtained by direct orbit
enumeration, by a Burnside average over brute-force fixed-point counts,
by the general ideal-quotient formula for affine rules ("theorem 2" in
the README), or by per-rule closed forms ("corollaries").  All methods
must agree; the CLI's `count --method all` asserts that.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .algebra import divisor_phis, divisors, factorize
from .errors import BudgetExceeded, NonIntegerResult
from .ideals import order_and_least_cycle, quotient_sizes
from .graph import GraphParams, cycle_lengths, value_word, word_str
from . import rules
from .rules import AffineRule

METHODS = ("enumeration", "burnside_direct", "theorem2", "closed_form")

# Burnside composes and counts permutations of b^n words, one pass over
# the words each, tables the periodic words below n on the rule and walks
# the zero and unit words once.  Above this many word steps (about 5 s on
# a 2-vCPU VM) it refuses instead of running for minutes.
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


def count_enumeration(rule: AffineRule, k: int) -> CountReport:
    """Count the orbits of the rule's action on G(n, k) from the cycles of
    the rule's word permutation.

    The action is that permutation on the word and +1 on the phase, so a
    word cycle of length L carries its L*k vertices in gcd(L, k) factor
    cycles of length lcm(L, k): one walk over the b^n words, none over
    the b^n*k vertices, so the word budget bounds the work, whatever k is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rules.check_word_budget(rule.b ** rule.n)
    lengths = cycle_lengths(rule.permutation)
    return CountReport(sum([gcd(ell, k) for ell in lengths]), "enumeration",
                       rule.spec(), rule.b, rule.n, k)


def count_burnside_direct(rule: AffineRule, k: int,
                          omega: int | None = None) -> CountReport:
    """Burnside average of brute-force fixed-point counts.

    The average runs over one period M = lcm(k, l, w) of
    i -> [k | i] * |Fix(rule^i)|, with l the rule's smallest word-cycle
    length and w = `omega`, any multiple of the order of X modulo its
    polynomial (the order itself by default).  With top = M/k,

        sum over j < top of |Fix(rule^(k*j))|
            = sum over e | top of phi(top/e) * |Fix(rule^(k*e))|.

    The powers are read modulo P = lcm(l, w), a period of the rule:

    - w | P, so rule^P is a translation x -> x + t (X^P = 1 mod the
      polynomial);
    - some word is fixed by rule^l (it lies on a cycle of length l), and
      l | P, so that word is fixed by rule^P;
    - hence t = 0 and rule^P is the identity.

    So |Fix(rule^(k*e))| = |Fix(rule^gcd(k*e, P))|, and with g = gcd(k, P)
    (top = P/g, gcd(k/g, top) = 1) that is |Fix(rule^(g*e))| for every
    e | top.  fixed_point_counts finds those on the powers of rule^g,
    whatever k is, each by its kind of divisor (translation, periodic or
    full count), checks that P is a period and refuses above
    BURNSIDE_MAX_STEPS word steps.  The route reads neither cycle lengths
    nor ideal sizes: l and w only form P and name the translations, which
    the walk checks like rule^P.  The walk reads the word permutation,
    so the word budget is checked first, before the order scan, and holds
    even where no full count is made.  (w, l) is the rule's order_and_ell,
    or for a given w order_and_least_cycle's, which checks w.  The
    witness M is lcm(k, l, w) = k*P/g.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rules.check_word_budget(rule.b ** rule.n)
    omega, ell = (rule.order_and_ell if omega is None
                  else order_and_least_cycle(rule.char_poly(), rule.c, omega))
    period = lcm(ell, omega)
    g = gcd(k, period)
    top = period // g
    counts = fixed_point_counts(rule, g, period, omega)
    total = sum([phi * counts[top // d] for d, phi in divisor_phis(top).items()])
    value, rem = divmod(total, top)
    if rem:
        raise NonIntegerResult(f"Burnside average {_ratio(total, top)} is not an integer")
    return CountReport(value, "burnside_direct", rule.spec(), rule.b, rule.n, k,
                       witnesses={"M": k * top, "ell": ell, "omega": omega})


def fixed_point_counts(rule: AffineRule, k: int, m: int,
                       omega: int | None = None) -> dict[int, int]:
    """|Fix(rule^(k*e))| for every divisor e of top = m/k, where m, a
    multiple of k, must be a period of the rule (ValueError otherwise,
    naming m as M), and omega (m by default) a multiple of the order of X
    (ValueError naming omega where a power it names is no translation;
    only gcd(omega, m) is read, which is one too where m is a period).
    count_burnside_direct passes k = gcd(its k, P), m = P = lcm(ell, omega)
    and its omega, so the period is checked at P and the work depends on
    its k only through that gcd.

    Each divisor is counted by the one method its kind calls for, by two
    shift-register facts (Golomb, Shift Register Sequences, 1967):

    - translation, where omega | k*e, that is e0 | e with
      e0 = omega / gcd(omega, k): X^(k*e) = 1, so with T = sigma^e0 =
      rule^lcm(k, omega) a translation x -> x + t, sigma^(q*e0) is
      x -> x + q*t.  It fixes all b^n words when q*t = 0 digit by digit
      and none otherwise.  An affine map over Z/b (composite b included)
      is a translation exactly when it sends the zero word to t and each
      unit word to t with that digit raised by 1 mod b, so one walk of
      those n + 1 words decides every such e, top (t times top/e0 must
      be 0) included;
    - periodic, where j = k*e < n: a word that rule^j fixes is the
      j-periodic extension of its first j symbols, and
      rules.periodic_fixed_points counts those on the rule alone;
    - full count, every other e: all b^n words are counted on the list
      of sigma^e, sigma = rule^k.

    The divisors form a tree: sigma^e comes from sigma^(e/p), p the least
    prime of e, and sigma from the word permutation by k.  Only the full
    counts and their ancestors are raised as lists, one prime at a time,
    depth first, each dropped after its last reader, so only lists on one
    path of the tree are kept.  T walks e0/d steps of the list of its
    nearest listed ancestor d (k*e0 steps of the word permutation if none).

    The estimate is summed before any work, in word steps: b^n per
    composition and per full count, words times steps for the walk of T,
    and b^j per periodic table.  Above BURNSIDE_MAX_STEPS the count is
    refused before the rule's word permutation is read.
    """
    b, n = rule.b, rule.n
    n_words = b ** n
    top = m // k
    e0 = lcm(k, gcd(omega or m, m)) // k  # T = sigma^e0 = rule^lcm(k, omega)
    # The divisors depth first: each after its parent e/p, p the least
    # prime of e, with the largest primes outermost, so top comes last.
    # up[e] = (the parent, the hops from it); sigma's parent is perm (0).
    divs, up = [1], {1: (0, k)}
    for p, a in factorize(top):
        size = len(divs)
        for i in range(size, size * (a + 1)):
            e = divs[i - size]
            divs.append(e * p)
            up[e * p] = (e, p) if i % size == 0 else (up[e][0] * p, up[e][1])
    periodic = [e for e in divs if e % e0 and k * e < n]
    full = {e for e in divs if e % e0 and k * e >= n}
    listed = set()
    for e in full:
        while e and e not in listed:
            listed.add(e)
            e = up[e][0]
    # T walks e0/d steps of the list of its nearest listed ancestor d
    d, hops = up[e0]
    while d and d not in listed:
        d, step = up[d]
        hops *= step
    up[e0] = d, hops
    rows = [e for e in divs if e in listed or e == e0]
    last = {up[e][0]: e for e in rows}  # each list's last reader
    steps = ((n + 1) * hops + sum([b ** (k * e) for e in periodic])
             + sum([rules.power_cost(up[e][1]) + (e in full) for e in listed]) * n_words)
    if steps > BURNSIDE_MAX_STEPS:
        raise BudgetExceeded(
            f"Burnside needs about {steps} steps (M={m}, {n_words} words), "
            f"over budget {BURNSIDE_MAX_STEPS}")
    basis = [0] + [b ** i for i in range(n)]  # the zero word and the n unit words
    lists, counts = {0: rule.permutation}, {}
    for e in rows:
        d, hops = up[e]
        power = lists.pop(d) if last[d] == e else lists[d]
        if e == e0:
            after = rules.advance(power, basis, hops)
            continue
        power = rules.perm_power(power, hops)
        if e in last:
            lists[e] = power
        if e in full:
            counts[e] = rules.fixed_points(power)
    t = after[0]
    if after[1:] == [t - (b - 1) * u if t // u % b == b - 1 else t + u for u in basis[1:]]:
        order = b // gcd(b, *value_word(t, n, b))  # the additive order of t
    elif e0 == top:
        order = 0  # rule^m is no translation, so no identity
    else:
        raise ValueError(f"omega={omega} is not a multiple of the order of X: "
                         f"rule^{k * e0} is no translation")
    if not order or top // e0 % order:
        moved = next(w for w, v in zip(basis, after) if w != v)
        raise ValueError(f"M={m} is not a period of the rule: rule^{m} "
                         f"moves word {word_str(value_word(moved, n, b))}")
    counts.update({e: 0 if e // e0 % order else n_words for e in divs if e % e0 == 0})
    counts.update({e: rules.periodic_fixed_points(rule, k * e) for e in periodic})
    return counts


def count_theorem2(rule: AffineRule, k: int,
                   omega: int | None = None) -> CountReport:
    """The general affine-rule count:

        (k * g) / (s * w) * sum over d | w, g | d of phi(w/d) * Q(d)

    with lam the rule's polynomial, w = `omega` any multiple of the order
    of X mod lam, s = lcm(k, ell), the least multiple of k with c*U_s in
    (lam, X^s - 1), g = gcd(s, w), and Q(d) the size of
    Z/bZ[X] / (lam, X^d - 1).  (w, ell) is the rule's order_and_ell, or
    for a given w order_and_least_cycle's, which checks w by X^w = 1; X^w
    is raised at most that once."""
    if k < 1:
        raise ValueError("k must be >= 1")
    omega, ell = (rule.order_and_ell if omega is None
                  else order_and_least_cycle(rule.char_poly(), rule.c, omega))
    s = lcm(k, ell)
    g = gcd(s, omega)
    phis = divisor_phis(omega)
    terms = [(d, phis[omega // d], q)
             for d, q in quotient_sizes(rule.char_poly(), omega, g).items()]
    total = sum([phi * q for d, phi, q in terms])
    value, rem = divmod(k * g * total, s * omega)
    if rem or value < 1:
        raise NonIntegerResult(f"ideal-formula count {_ratio(k * g * total, s * omega)} "
                               "is not a positive integer")
    return CountReport(value, "theorem2", rule.spec(), rule.b, rule.n, k,
                       witnesses={"omega": omega, "s": s, "terms": terms})


def _rotation_family(n: int, k: int, b: int, s: int) -> int:
    """(k * g) / (s * n) * sum over g | d | n of phi(n/d) * b^d, g = gcd(s, n):
    the general formula for a rule with polynomial X^n - 1 and smallest
    factor-cycle length s."""
    g = gcd(s, n)
    phis = divisor_phis(n)
    total = sum(phis[n // d] * b ** d for d in phis if d % g == 0)
    value, rem = divmod(k * g * total, s * n)
    if rem:
        raise NonIntegerResult(f"closed form gave {_ratio(k * g * total, s * n)}")
    return value


def closed_form_pcr(n: int, k: int, b: int) -> CountReport:
    """Rotation-rule count: (g/n) * sum over g | d | n of phi(n/d) * b^d, g = gcd(n, k)."""
    GraphParams(b, n, k)
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
    GraphParams(b, n, k)
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
    GraphParams(2, n, k)
    w = n + 1
    g = gcd(k, w)
    # the even divisors d = 2e of 2w/g are the e | w/g, and 2^(w/e) = 2^(2w/d)
    total = sum(phi * 2 ** (2 * w // d) for d, phi in divisor_phis(2 * w // g).items()
                if d % 2 == 0)
    value, rem = divmod(g * total, 2 * w)
    if rem:
        raise NonIntegerResult(f"closed form gave {_ratio(g * total, 2 * w)}")
    return CountReport(value, "closed_form", "xor", 2, n, k)


def closed_form_for(rule: AffineRule, k: int) -> CountReport | None:
    """The applicable closed form, or None for custom affine rules."""
    if rule.name == "pcr":
        return closed_form_pcr(rule.n, k, rule.b)
    if rule.name == "icr":
        return closed_form_icr(rule.n, k, rule.b)
    if rule.name == "xor":
        return closed_form_xor(rule.n, k)
    return None


def _ratio(p: int, q: int) -> str:
    """p/q in lowest terms, as "p/q", or "p" when it is an integer."""
    d = gcd(p, q)
    return f"{p // d}/{q // d}" if q != d else str(p // d)

