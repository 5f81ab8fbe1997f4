"""Ideal computations in Z/bZ[X] / (X^d - 1) for arbitrary b >= 2.

For a polynomial lam with a unit leading coefficient, Z/b[X] / (lam) is
free over Z/b with basis 1, X, ..., X^(n-1), n = deg(lam), and
multiplication by X acts on it as the n x n companion matrix C of lam
made monic.  The ideal (lam, X^d - 1) then maps onto the column span of
C^d - I, so

    |Z/bZ[X] / (lam, X^d - 1)| = |coker over Z/b of (C^d - I)|,

and an element lies in the ideal exactly when its coordinate vector lies
in that span.  The modulus may be composite, so polynomial GCDs are
unavailable; sizes and memberships are decided through Smith normal
forms of these n x n matrices (Elspas 1959; Lidl & Niederreiter, Finite
Fields, ch. 8).  Matrices are lists of columns.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .algebra import ModPoly, divisors, is_unit
from .errors import BudgetExceeded, LeadingNotInvertible, NotInvertible
from .snf import smith_normal_form

# order_of_x steps the coordinates of X^w mod lam one power at a time.
# Above this many steps (about 1 s at deg(lam) = 20, 3-4 us a step on a
# 2-vCPU VM) it refuses instead of scanning up to b^deg(lam) of them.
ORDER_MAX_STEPS = 1 << 18


def _span_quotient_size(rows: list[list[int]], width: int, b: int) -> int:
    """|(Z/b)^width / span(rows)| via elementary divisors of the row lattice."""
    if not rows:
        return b ** width
    divisors = smith_normal_form(rows)
    divisors += [0] * (width - len(divisors))
    size = 1
    for e in divisors[:width]:
        size *= gcd(e, b) if e else b
    return size


def _companion(lam: ModPoly) -> list[list[int]]:
    """Columns of the companion matrix of lam made monic: column j is
    X^(j+1) mod lam in the basis 1, X, ..., X^(n-1)."""
    if lam.is_zero:
        raise ValueError("lam must be nonzero")
    b = lam.modulus
    if not is_unit(lam.leading, b):
        raise LeadingNotInvertible(
            f"leading coefficient {lam.leading} not invertible mod {b}")
    n = lam.degree
    if n == 0:
        return []
    cols = [[int(i == j + 1) for i in range(n)] for j in range(n - 1)]
    cols.append([-c % b for c in lam.monic().coeffs[:n]])
    return cols


def _apply(cols: list[list[int]], v: list[int], b: int) -> list[int]:
    """The matrix with columns `cols` times the vector v, mod b."""
    out = [0] * len(v)
    for x, col in zip(v, cols):
        if x:
            for i, y in enumerate(col):
                out[i] += x * y
    return [y % b for y in out]


def _compose(p, u, q, w, b):
    """(C^i, U_i(C) e_0) and (C^j, U_j(C) e_0) give those of i + j."""
    total = [(x + y) % b for x, y in zip(u, _apply(p, w, b))]
    return [_apply(p, col, b) for col in q], total


def _power_and_sum(comp: list[list[int]], s: int, b: int):
    """C^s and (I + C + ... + C^(s-1)) e_0 by repeated squaring, where
    the vector is the coordinates of U_s = 1 + X + ... + X^(s-1)."""
    n = len(comp)
    power = [[int(i == j) for i in range(n)] for j in range(n)]
    total = [0] * n
    base, base_sum = comp, [int(i == 0) for i in range(n)]
    while s:
        if s & 1:
            power, total = _compose(power, total, base, base_sum, b)
        s >>= 1
        if s:
            base, base_sum = _compose(base, base_sum, base, base_sum, b)
    return power, total


def _image_rows(power: list[list[int]], b: int) -> list[list[int]]:
    """Columns of C^s - I, the generators of (lam, X^s - 1) mod lam."""
    return [[(x - (i == j)) % b for i, x in enumerate(col)]
            for j, col in enumerate(power)]


def _in_image(power: list[list[int]], target: list[int], b: int) -> bool:
    """Is target in the column span of C^s - I?  Adjoining it leaves the
    quotient size unchanged exactly when it already lies in the span."""
    n = len(target)
    if n == 0:  # deg(lam) = 0: lam is a unit and the ideal is everything
        return True
    rows = _image_rows(power, b)
    return _span_quotient_size(rows + [target], n, b) == _span_quotient_size(rows, n, b)


@lru_cache(maxsize=4096)
def ideal_quotient_size(lam: ModPoly, d: int) -> int:
    """|Z/bZ[X] / (lam, X^d - 1)| for b = lam.modulus.

    lam's leading coefficient must be a unit mod b.
    """
    comp = _companion(lam)
    if d < 1:
        raise ValueError("d must be >= 1")
    b = lam.modulus
    return _span_quotient_size(_image_rows(_power_and_sum(comp, d, b)[0], b),
                               len(comp), b)


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
    The scan steps the coordinates of X^w mod lam by the companion
    matrix, one power per step: shift them up and add the top one times
    the last column.  It refuses with BudgetExceeded after
    ORDER_MAX_STEPS steps; it is also capped at b^deg(lam) steps, past
    which a failure would mean the premise is broken.
    """
    _require_affine_valid(lam)
    b = lam.modulus
    if lam.degree == 0:
        return 1  # unit ideal: everything is congruent to 1
    last = _companion(lam)[-1]
    one = [1] + [0] * (len(last) - 1)
    cap = b ** lam.degree
    r = one
    for w in range(1, min(cap, ORDER_MAX_STEPS) + 1):
        top = r[-1]
        r = [(x + top * y) % b for x, y in zip([0] + r[:-1], last)]
        if r == one:
            return w
    if cap < ORDER_MAX_STEPS:
        raise BudgetExceeded("order of X exceeded b^deg bound; internal error")
    raise BudgetExceeded(f"order of X exceeds {ORDER_MAX_STEPS}, "
                         f"the step budget of its scan")


def smallest_cycle_length(lam: ModPoly, c: int, k: int, omega: int) -> int:
    """Least multiple s of k with c*U_s in (lam, X^s - 1).

    omega is any multiple of the order of X mod lam, checked first by
    Q(omega) = b^deg(lam) (ValueError otherwise).  For the affine map A
    of lam and c on (Z/b)^deg(lam), A^omega is a translation, so
    A^(b*omega) is the identity and every orbit length L divides
    b*omega.  c*U_s is in the ideal exactly when A^s fixes some point,
    that is when some L divides s, so s = min over L of lcm(k, L), a
    divisor of lcm(k, b*omega).  Those divisors that are multiples of k
    are tried in ascending order; none passing signals a bug.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_affine_valid(lam)
    b = lam.modulus
    if ideal_quotient_size(lam, omega) != b ** lam.degree:
        raise ValueError(f"omega={omega} is not a multiple of the order of X")
    c %= b
    if c == 0:
        return k
    comp = _companion(lam)
    for d in divisors(lcm(k, b * omega) // k):
        power, total = _power_and_sum(comp, k * d, b)
        if _in_image(power, [c * x % b for x in total], b):
            return k * d
    raise BudgetExceeded("no cycle length divides lcm(k, b*omega); internal error")
