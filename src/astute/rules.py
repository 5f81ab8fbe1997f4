"""Succession rules: bijections on words that shift left and append.

Every rule here is affine: the appended symbol solves
c = sum(lambda_i * a_i) for a_n, which requires lambda_0 and lambda_n
to be units mod b.  The rule acts on G(n, k) by advancing the phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import eq

from .algebra import ModPoly, is_unit
from .errors import BudgetExceeded, NotInvertible
from .graph import Factor, GraphParams, word_sums
from .ideals import order_and_least_cycle

# the vertex budget of every route that builds the vertices of G(n, k),
# and the word budget of every route that walks the rule's b^n words
MAX_VERTICES = 1 << 22


@dataclass(frozen=True)
class AffineRule:
    """Rule a_0..a_{n-1} -> a_1..a_n with c = sum(lambdas[i] * a_i).

    lambdas has length n + 1; lambdas[0] and lambdas[n] must be units
    mod b (single-valued forward and backward).  The values derived from
    the rule, its word permutation and (omega, ell), are found on first
    use and kept on the rule object until it is dropped.
    """

    lambdas: tuple[int, ...]
    c: int
    b: int
    name: str = field(default="affine", compare=False)

    def __post_init__(self):
        if self.b < 2:
            raise ValueError("b must be >= 2")
        if len(self.lambdas) < 2:
            raise ValueError("need at least lambda_0 and lambda_n")
        object.__setattr__(self, "lambdas", tuple(l % self.b for l in self.lambdas))
        object.__setattr__(self, "c", self.c % self.b)
        if not is_unit(self.lambdas[0], self.b):
            raise NotInvertible("lambda_0 must be invertible (bijectivity)")
        if not is_unit(self.lambdas[-1], self.b):
            raise NotInvertible("lambda_n must be invertible (single successor)")

    @property
    def n(self) -> int:
        return len(self.lambdas) - 1

    def char_poly(self) -> ModPoly:
        """sum(lambdas[i] * X^(n-i)) over Z/bZ."""
        return ModPoly.from_coeffs(list(reversed(self.lambdas)), self.b)

    @cached_property
    def permutation(self) -> list[int]:
        """word_permutation(self), built after the word budget; every
        reader gets the same list, which none may change."""
        check_word_budget(self.b ** self.n)
        return word_permutation(self)

    @cached_property
    def order_and_ell(self) -> tuple[int, int]:
        """(omega, ell): the order of X modulo the rule's polynomial and the
        least word-cycle length, by ideals.order_and_least_cycle."""
        return order_and_least_cycle(self.char_poly(), self.c)

    def spec(self) -> str:
        """Mini-grammar form understood by parse_rule_spec."""
        if self.name in ("pcr", "icr", "xor"):
            return self.name
        return "affine:%d;%s" % (self.c, ",".join(str(l) for l in self.lambdas))


def pcr(n: int, b: int) -> AffineRule:
    """Pure cycling register: rotation, a_n = a_0."""
    _check_order(n)
    lams = [1] + [0] * (n - 1) + [-1]
    return AffineRule(tuple(lams), 0, b, name="pcr")


def icr(n: int, b: int) -> AffineRule:
    """Incremented cycling register: a_n = a_0 + 1.

    Normalized as lambda_0 = 1, lambda_n = -1, c = -1 so the associated
    polynomial is X^n - 1 like the rotation rule; c is a unit either
    way, which is all the counting formulas depend on.
    """
    _check_order(n)
    lams = [1] + [0] * (n - 1) + [-1]
    return AffineRule(tuple(lams), -1, b, name="icr")


def xor_rule(n: int) -> AffineRule:
    """Binary sum feedback: a_n = a_0 + a_1 + ... + a_{n-1} over Z/2Z."""
    _check_order(n)
    return AffineRule(tuple([1] * (n + 1)), 0, 2, name="xor")


def _check_order(n: int):
    if n < 1:
        raise ValueError("word length n must be >= 1")


def parse_rule_spec(spec: str, n: int, b: int) -> AffineRule:
    """Parse 'pcr' | 'icr' | 'xor' | 'affine:c;l0,l1,...,ln'."""
    spec = spec.strip().lower()
    if spec == "pcr":
        return pcr(n, b)
    if spec == "icr":
        return icr(n, b)
    if spec == "xor":
        if b != 2:
            raise ValueError("xor requires b=2")
        return xor_rule(n)
    if spec.startswith("affine:"):
        body = spec[len("affine:"):]
        try:
            c_part, lam_part = body.split(";", 1)
            c = int(c_part)
            lams = tuple(int(t) for t in lam_part.split(","))
        except ValueError as e:
            raise ValueError(f"bad affine rule spec {spec!r}: {e}") from None
        if len(lams) != n + 1:
            raise ValueError(
                f"affine rule needs {n + 1} coefficients for n={n}, got {len(lams)}")
        return AffineRule(lams, c, b)
    raise ValueError(f"unknown rule spec {spec!r}")


def word_permutation(rule: AffineRule) -> list[int]:
    """The rule as a permutation of packed word values, from b residue rows.

    The appended symbol solves c = sum(lambda_i * a_i) for a_n: with
    inv = 1/lambda_n mod b it is (inv*c - inv * S) mod b, S the sum over
    i < n of lambda_i * a_i, so it depends only on a residue mod b.
    Split the n positions into a head, the first ceil(n/2), and a tail,
    with H(h) = inv*c - inv * S_head(h) and T(u) = -inv * S_tail(u): the
    symbol is (H + T) mod b.  Row r lists, for every tail word u, u
    shifted up one symbol plus the symbol appended when H = r (mod b):

        row_r[u] = u * b + (r + T(u)) mod b.

    A word with head h and tail u goes to row_(H(h) mod b)[u] plus h
    without its leading symbol, shifted past the tail and the appended
    symbol: (h mod b^(head - 1)) * b^(tail + 1).  So each word costs one
    addition; the rows take b * b^tail cells and the half tables
    b^head + b^tail.
    """
    b, n, lams = rule.b, rule.n, rule.lambdas
    inv = pow(lams[-1], -1, b)
    half = (n + 1) // 2
    heads, tails = [inv * rule.c], [0]  # H and T of every half word, packed order
    for lam in lams[:half]:
        lam *= -inv
        heads = [s + lam * a for s in heads for a in range(b)]
    for lam in lams[half:-1]:
        lam *= -inv
        tails = [s + lam * a for s in tails for a in range(b)]
    step = b * len(tails)  # b^(tail + 1)
    rows = [[u + (r + t) % b for u, t in zip(range(0, step, b), tails)] for r in range(b)]
    return [o + x for o, s in zip(list(range(0, b ** n, step)) * b, heads)
            for x in rows[s % b]]


def successor_array(rule: AffineRule, k: int) -> list[int]:
    """The rule's action on G(n, k) as a permutation of packed vertices,
    built from perm, the rule's word permutation.

    Vertex w * k + ph goes to perm[w] * k + (ph + 1) % k, so each phase
    fills every k-th slot from one pass over perm.
    """
    perm = word_permutation(rule)
    succ = [0] * (len(perm) * k)
    for ph in range(k):
        nxt = (ph + 1) % k
        succ[ph::k] = [w * k + nxt for w in perm]
    return succ


def check_vertex_budget(p: GraphParams):
    """Refuse a G(n, k) with more than MAX_VERTICES vertices."""
    if p.num_vertices > MAX_VERTICES:
        raise BudgetExceeded(f"{p.num_vertices} vertices exceeds budget {MAX_VERTICES}")


def check_word_budget(n_words: int):
    """Refuse a route that walks all n_words words of a rule when they are
    more than MAX_VERTICES."""
    if n_words > MAX_VERTICES:
        raise BudgetExceeded(f"{n_words} words exceeds budget {MAX_VERTICES}")


def enumerate_factor(rule: AffineRule, k: int) -> Factor:
    """Partition the vertices of G(n, k) into orbits of the rule's action.

    Cycles come out in ascending order of their minimal packed vertex.
    """
    p = GraphParams(rule.b, rule.n, k)
    check_vertex_budget(p)
    return Factor(p, successor_array(rule, k))


def compose(p: list[int], q: list[int]) -> list[int]:
    """The permutation p after q: one pass over the words."""
    return [p[v] for v in q]


def fixed_points(perm: list[int]) -> int:
    """Brute-force count of the words perm leaves in place."""
    return sum(map(eq, perm, range(len(perm))))


def perm_power(perm: list[int], e: int) -> list[int]:
    """perm composed with itself e >= 1 times, by repeated squaring; it
    makes power_cost(e) compositions and may return perm itself."""
    result = None
    while True:
        if e & 1:
            result = perm if result is None else compose(perm, result)
        e >>= 1
        if not e:
            return result
        perm = compose(perm, perm)


def power_cost(e: int) -> int:
    """Compositions perm_power(perm, e) makes."""
    return e.bit_length() + bin(e).count("1") - 2


def advance(perm: list[int], words: list[int], steps: int) -> list[int]:
    """Each of words after `steps` applications of perm, walked one word
    at a time (the callers walk few words many steps)."""
    out = []
    for w in words:
        for _ in repeat(None, steps):
            w = perm[w]
        out.append(w)
    return out


def periodic_words(b: int, n: int, j: int) -> list[int]:
    """The b^j packed words of length n > j whose symbols repeat with
    period j, in the order of their first j symbols u: u repeated q times
    then u's first r symbols, with q, r = divmod(n, j)."""
    q, r = divmod(n, j)
    block = b ** j
    scale = (block ** q - 1) // (block - 1) * b ** r  # sum of b^(r + t*j), t < q
    cut = b ** (j - r)
    return [u * scale + u // cut for u in range(block)]


def periodic_fixed_points(rule: AffineRule, j: int) -> int:
    """|Fix(rule^j)| for 1 <= j < n, counted on the rule alone.

    A word rule^j fixes is the j-periodic extension p of its first j
    symbols u, and it is fixed exactly when p meets the recurrence at
    each position t < j: with mu_r the sum of lambda_i over i = r mod j,
    sum over r of mu_r * u_((t + r) mod j) = c.  graph.word_sums tables
    the sums at t = 0 over the b^j words u as a 0/1 mask; at t it is the
    mask rotated t times, one rotation (u_0 moved last) being b byte
    slices.  The count is the ones of the AND of the j masks.
    """
    b = rule.b
    mu = [sum(rule.lambdas[r::j]) for r in range(j)]
    sums = word_sums([[m * a % b for a in range(b)] for m in mu])
    mask = bytes([s % b == rule.c for s in sums])
    fixed = int.from_bytes(mask, "big")
    for _ in range(j - 1):
        mask = b"".join([mask[q::b] for q in range(b)])
        fixed &= int.from_bytes(mask, "big")
    return fixed.bit_count()


def fix_count_bruteforce(rule: AffineRule, i: int) -> int:
    """|{words s : rule^i(s) = s}|, counted on the i-th power of the rule's
    word permutation, so the counts of several powers of one rule share
    it; the word budget is checked on every call."""
    if i < 0:
        raise ValueError("i must be >= 0")
    total = rule.b ** rule.n
    check_word_budget(total)
    if i == 0:
        return total
    return fixed_points(perm_power(rule.permutation, i))
