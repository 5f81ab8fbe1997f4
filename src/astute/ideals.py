"""Ideal computations in Z/bZ[X] / (X^d - 1) for arbitrary b >= 2.

For a polynomial lam with a unit leading coefficient, Z/b[X] / (lam) is
free over Z/b with basis 1, X, ..., X^(n-1), n = deg(lam).  Residues mod
lam are coordinate vectors in that basis, and all arithmetic on them
needs only `tail`, the coordinates of X^n mod lam (lam made monic): one
shift-and-reduce step multiplies by X.

Z/b is the product of the rings Z/p^a over p^a || b (Chinese remainder
theorem), so the quotient Z/b[X] / (lam, X^d - 1) is the product of its
reductions and an element lies in the ideal exactly when each reduction
does.  Over a prime p with a = 1, Z/p[X] is a principal ideal domain:
(lam, X^d - 1) = (g) with g = gcd(lam, X^d - 1), so the quotient has
p^deg(g) elements and an element lies in the ideal exactly when g
divides it (Elspas 1959; Lidl & Niederreiter, Finite Fields, ch. 8).
The gcd and the division are algebra.poly_gcd and algebra._rem_mod_p,
the package's one polynomial gcd and remainder over Z/p.
The primes with a > 1 are taken together as one modulus r, where zero
divisors rule out the gcd: there the ideal maps onto the span of
X^(d+j) - X^j for j < n, so

    |Z/r[X] / (lam, X^d - 1)| = |(Z/r)^n / span(X^(d+j) - X^j)|,

decided by a Smith normal form over Z/r of these n generators, and an
element lies in the ideal exactly when its coordinates lie in the span.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

from .algebra import (ModPoly, _rem_mod_p, divisors, factorize, is_unit,
                      poly_gcd)
from .errors import BudgetExceeded, LeadingNotInvertible, NotInvertible
from .snf import smith_normal_form

# order_of_x steps the coordinates of X^w mod lam one power at a time.
# Above this many steps (about 1 s at deg(lam) = 20, 3-4 us a step on a
# 2-vCPU VM) it refuses instead of scanning up to b^deg(lam) of them.
ORDER_MAX_STEPS = 1 << 18


def _span_quotient_size(rows: list[list[int]], width: int, b: int) -> int:
    """|(Z/b)^width / span(rows)| via elementary divisors over Z/b; each
    of the width - len(divisors) columns no pivot reaches counts b."""
    divisors = smith_normal_form(rows, b)
    return b ** (width - len(divisors)) * prod(divisors)


def _tail(lam: ModPoly) -> list[int]:
    """Coordinates of X^n mod lam, n = deg(lam), for lam made monic."""
    if lam.is_zero:
        raise ValueError("lam must be nonzero")
    b = lam.modulus
    if not is_unit(lam.leading, b):
        raise LeadingNotInvertible(
            f"leading coefficient {lam.leading} not invertible mod {b}")
    inv = pow(lam.leading, -1, b)
    return [-c * inv % b for c in lam.coeffs[:-1]]


def _shift(r: list[int], tail: list[int], b: int) -> list[int]:
    """X*r mod lam: shift the coordinates up and fold the top one down."""
    top = r[-1]
    return [(x + top * y) % b for x, y in zip([0] + r[:-1], tail)]


def _mulmod(p: list[int], q: list[int], tail: list[int], b: int) -> list[int]:
    """p*q mod lam: the schoolbook product, its terms X^(n+i) folded
    down from the top as X^i * tail."""
    n = len(tail)
    out = [0] * (2 * n - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        top = out[i] % b
        if top:
            for j, y in enumerate(tail, i - n):
                out[j] += top * y
    return [x % b for x in out[:n]]


def _power(tail: list[int], s: int, b: int, base: list[int] | None = None) -> list[int]:
    """base^s mod lam by repeated squaring; base is X by default."""
    n = len(tail)
    if base is None:
        base = tail if n == 1 else [int(i == 1) for i in range(n)]
    power = None  # 1, which the first factor replaces without a product
    while s:
        if s & 1:
            power = base if power is None else _mulmod(power, base, tail, b)
        s >>= 1
        if s:
            base = _mulmod(base, base, tail, b)
    return [int(i == 0) for i in range(n)] if power is None else power


def _power_and_sum(tail: list[int], s: int, b: int):
    """X^s and U_s = 1 + X + ... + X^(s-1) mod lam by repeated squaring."""
    def compose(p, u, q, w):
        # (X^i, U_i) and (X^j, U_j) give X^(i+j) and U_(i+j) = U_i + X^i U_j
        pw = _mulmod(p, w, tail, b)
        return _mulmod(p, q, tail, b), [(x + y) % b for x, y in zip(u, pw)]

    n = len(tail)
    one = [int(i == 0) for i in range(n)]
    power, total = one, [0] * n
    base, base_sum = (tail if n == 1 else [int(i == 1) for i in range(n)]), one
    while s:
        if s & 1:
            power, total = compose(power, total, base, base_sum)
        s >>= 1
        if s:
            base, base_sum = compose(base, base_sum, base, base_sum)
    return power, total


def _image_rows(tail: list[int], power: list[int], b: int) -> list[list[int]]:
    """X^(s+j) - X^j for j < n, given power = X^s: the generators of
    (lam, X^s - 1) mod lam, each one shift step from the one before."""
    rows = []
    for j in range(len(tail)):
        rows.append([(x - (i == j)) % b for i, x in enumerate(power)])
        power = _shift(power, tail, b)
    return rows


def _split(b: int) -> tuple[list[int], int]:
    """The primes p with p || b, and r, the product of the p^a || b with
    a > 1 (1 when b is squarefree)."""
    primes, r = [], 1
    for p, a in factorize(b):
        if a == 1:
            primes.append(p)
        else:
            r *= p ** a
    return primes, r


def _ideal_gcd(tail: list[int], power: list[int], p: int) -> list[int]:
    """gcd(lam, X^s - 1) over Z/p, given power = X^s mod lam: the monic
    generator of (lam, X^s - 1) in Z/p[X]."""
    return poly_gcd([-t % p for t in tail] + [1], [power[0] - 1] + power[1:], p)


def _in_image(tail: list[int], power: list[int], target: list[int], b: int) -> bool:
    """Is target in (lam, X^s - 1) mod lam, given power = X^s?  Over each
    prime p || b the ideal's generator must divide it; over r, adjoining
    it to the span of X^(s+j) - X^j must leave the quotient size as is."""
    n = len(target)
    if n == 0:  # deg(lam) = 0: lam is a unit and the ideal is everything
        return True
    primes, r = _split(b)
    if any(_rem_mod_p(target, _ideal_gcd(tail, power, p), p) for p in primes):
        return False
    if r == 1:
        return True
    rows = _image_rows(tail, power, r)
    return _span_quotient_size(rows + [target], n, r) == _span_quotient_size(rows, n, r)


def _quotient_size(tail: list[int], power: list[int], b: int) -> int:
    """|Z/bZ[X] / (lam, X^d - 1)|, given power = X^d mod lam: p^deg(gcd)
    over each prime p || b, times the span quotient over r."""
    if not tail:  # deg(lam) = 0: the ideal is everything
        return 1
    primes, r = _split(b)
    size = prod(p ** (len(_ideal_gcd(tail, power, p)) - 1) for p in primes)
    if r > 1:
        size *= _span_quotient_size(_image_rows(tail, power, r), len(tail), r)
    return size


@lru_cache(maxsize=4096)
def ideal_quotient_size(lam: ModPoly, d: int) -> int:
    """|Z/bZ[X] / (lam, X^d - 1)| for b = lam.modulus; lam's leading
    coefficient must be a unit mod b."""
    tail = _tail(lam)
    if d < 1:
        raise ValueError("d must be >= 1")
    return _quotient_size(tail, _power(tail, d, lam.modulus), lam.modulus)


def quotient_sizes(lam: ModPoly, omega: int, g: int) -> dict[int, int]:
    """|Z/bZ[X] / (lam, X^d - 1)| for every d | omega that is a multiple
    of g (g | omega), ascending.  X^d comes from the divisor tree of
    omega/g, X^(e*p) = (X^e)^p from X^g.  X^omega must be 1, as
    order_and_least_cycle proves of the omega it returns, so the top is
    not raised: its size is b^deg(lam)."""
    tail, b = _tail(lam), lam.modulus
    powers = {g: None if g == omega else _power(tail, g, b)}
    for p, a in reversed(factorize(omega // g)):  # few raises by large p
        for d, x in list(powers.items()):
            for _ in range(a):
                d *= p
                powers[d] = x = None if d == omega else _power(tail, p, b, x)
    return {d: b ** len(tail) if d == omega else _quotient_size(tail, x, b)
            for d, x in sorted(powers.items())}


def _require_affine_valid(lam: ModPoly):
    b = lam.modulus
    if lam.is_zero:
        raise NotInvertible("zero polynomial")
    if not is_unit(lam.constant, b):
        raise NotInvertible(f"constant term {lam.constant} not invertible mod {b}")
    if not is_unit(lam.leading, b):
        raise NotInvertible(f"leading coefficient {lam.leading} not invertible mod {b}")


def order_of_x(lam: ModPoly) -> int:
    """Least w >= 1 with X^w === 1 (mod lam).

    Needs both the constant and leading coefficients of lam invertible.
    The scan takes one shift-and-reduce step of the coordinates of
    X^w mod lam per power.  It refuses with BudgetExceeded after
    ORDER_MAX_STEPS steps; it is also capped at b^deg(lam) steps, past
    which a failure would mean the premise is broken.
    """
    _require_affine_valid(lam)
    b = lam.modulus
    if lam.degree == 0:
        return 1  # unit ideal: everything is congruent to 1
    tail = _tail(lam)
    one = [1] + [0] * (len(tail) - 1)
    cap = b ** lam.degree
    r = one
    for w in range(1, min(cap, ORDER_MAX_STEPS) + 1):
        r = _shift(r, tail, b)
        if r == one:
            return w
    if cap < ORDER_MAX_STEPS:
        raise BudgetExceeded("order of X exceeded b^deg bound; internal error")
    raise BudgetExceeded(f"order of X exceeds {ORDER_MAX_STEPS}, "
                         f"the step budget of its scan")


def order_and_least_cycle(lam: ModPoly, c: int,
                          omega: int | None = None) -> tuple[int, int]:
    """(omega, ell): omega, the order of X mod lam by default (order_of_x's
    scan proves X^omega = 1), else a given multiple of it, checked once
    by X^omega = 1 (ValueError otherwise); ell, the least word-cycle
    length of the rule's affine map A(x) = Mx + v.  A^L fixes a word
    exactly when c*U_L is in (lam, X^L - 1), that is (Elspas 1959) when
    ell | L, and ell's primes divide b: over each p^a || b (CRT), Fitting's
    decomposition for M - I leaves a part where A and its powers fix a
    point and one where A generates a p-group.  A^(b*omega) = 1, so the
    divisors of the b-smooth part of b*omega are tested, ascending; none
    passing signals a bug."""
    _require_affine_valid(lam)
    tail, b = _tail(lam), lam.modulus
    if omega is None:
        omega = order_of_x(lam)
    elif omega < 1 or _power(tail, omega, b) != [int(i == 0) for i in range(len(tail))]:
        raise ValueError(f"omega={omega} is not a multiple of the order of X")
    # L = 1 passes when gcd(lam(1), b) | c: the quotient is Z/b / (lam(1))
    if c % gcd(sum(lam.coeffs), b) == 0:
        return omega, 1
    smooth = prod(p ** a for p, a in factorize(b * omega) if b % p == 0)
    for ell in divisors(smooth)[1:]:
        power, total = _power_and_sum(tail, ell, b)
        if _in_image(tail, power, [c * x % b for x in total], b):
            return omega, ell
    raise BudgetExceeded("no word-cycle length divides b*omega; internal error")

