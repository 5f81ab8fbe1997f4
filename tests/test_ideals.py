import random
from math import gcd, lcm

import pytest

import astute.ideals
from astute.algebra import ModPoly, is_unit, u_poly, x_pow_minus_one
from astute.counting import count_theorem2
from astute.errors import LeadingNotInvertible, NotInvertible
from astute.ideals import (_in_image, _power_and_sum, _span_quotient_size, _tail,
                           ideal_quotient_size, order_and_least_cycle, order_of_x)
from astute.rules import AffineRule, icr, parse_rule_spec

from oracles import (affine_rule_permutation, ideal_quotient_size_oracle,
                     membership_oracle, permutation_cycles, poly_product, poly_remainder)


def membership_cUs(lam, c, s):
    """Is c*(1 + X + ... + X^(s-1)) in (lam, X^s - 1)?  The membership
    test order_and_least_cycle makes, for any unit-leading lam."""
    tail = _tail(lam)
    b = lam.modulus
    power, total = _power_and_sum(tail, s, b)
    return _in_image(tail, power, [c * x % b for x in total], b)


def test_quotient_size_examples():
    # (X^3 - 1, X^2 - 1) collapses to (X^gcd - 1)
    assert ideal_quotient_size(x_pow_minus_one(3, 2), 2) == 2
    assert ideal_quotient_size(ModPoly.from_coeffs([1], 3), 5) == 1
    # oracle-decided: the ideal (U_4) inside Z/2[X]/(X^4 - 1) has 2
    # elements, so the quotient has 16 / 2 = 8
    assert ideal_quotient_size(u_poly(4, 2), 4) == 8
    assert ideal_quotient_size_oracle(u_poly(4, 2), 4) == 8


def test_span_quotient_size_fewer_rows_than_width():
    # (Z/4)^3 / span((2, 0, 0)) has 2 * 4 * 4 elements
    assert _span_quotient_size([[2, 0, 0]], 3, 4) == 32
    assert _span_quotient_size([[1, 2], [0, 3], [0, 2]], 2, 6) == 1
    assert _span_quotient_size([[1, 2], [0, 3]], 2, 6) == 3


def _random_poly(rng, b, max_deg):
    while True:
        p = ModPoly.from_coeffs(
            [rng.randrange(b) for _ in range(rng.randrange(1, max_deg + 2))], b)
        if not p.is_zero:
            return p


def test_quotient_size_against_closure_oracle():
    # draws whose leading coefficient is not a unit are refused
    rng = random.Random(5)
    compared = 0
    for _ in range(200):
        b = rng.choice([2, 3, 4, 6])
        d = rng.randrange(1, 7)
        lam = _random_poly(rng, b, 5)
        if not is_unit(lam.leading, b):
            with pytest.raises(LeadingNotInvertible):
                ideal_quotient_size(lam, d)
            continue
        assert ideal_quotient_size(lam, d) == ideal_quotient_size_oracle(lam, d), \
            (lam, d)
        compared += 1
    assert compared == 153


def test_membership_examples():
    for lam in (x_pow_minus_one(3, 2), u_poly(4, 3), ModPoly.from_coeffs([1, 2], 5)):
        assert membership_cUs(lam, 0, 4)
    assert not membership_cUs(x_pow_minus_one(2, 2), 1, 2)
    assert membership_cUs(x_pow_minus_one(2, 2), 1, 4)


def test_membership_against_closure_oracle():
    # draws whose leading coefficient is not a unit are refused, c = 0 too
    rng = random.Random(6)
    compared = 0
    for _ in range(200):
        b = rng.choice([2, 3, 4, 6])
        s = rng.randrange(1, 7)
        c = rng.randrange(b)
        lam = _random_poly(rng, b, 5)
        if not is_unit(lam.leading, b):
            with pytest.raises(LeadingNotInvertible):
                membership_cUs(lam, c, s)
            continue
        assert membership_cUs(lam, c, s) == membership_oracle(lam, c, s), (lam, c, s)
        compared += 1
    assert compared == 154


def test_companion_route_against_closure_oracle_composite():
    # unit-leading lam of degree <= 4 over composite and prime-power b,
    # leading coefficient not always 1, so the tail X^deg mod lam needs
    # the monic rescaling
    rng = random.Random(11)
    compared = 0
    while compared < 250:
        b = rng.choice([4, 5, 6, 8, 9, 12])
        d = rng.randrange(1, 6)
        if b ** d > 5000:
            continue
        units = [u for u in range(1, b) if is_unit(u, b)]
        lam = ModPoly.from_coeffs(
            [rng.randrange(b) for _ in range(rng.randrange(5))] + [rng.choice(units)], b)
        c = rng.randrange(b)
        assert ideal_quotient_size(lam, d) == ideal_quotient_size_oracle(lam, d), \
            (lam, d)
        assert membership_cUs(lam, c, d) == membership_oracle(lam, c, d), (lam, c, d)
        compared += 1


def _coords(coeffs, n):
    return coeffs + [0] * (n - len(coeffs))


def test_power_and_sum_against_polynomial_arithmetic():
    # degrees and exponents far past the closure oracle's reach
    rng = random.Random(12)
    for _ in range(40):
        b = rng.choice([2, 4, 6, 9])
        n = rng.randrange(1, 13)
        units = [u for u in range(1, b) if is_unit(u, b)]
        lam = ModPoly.from_coeffs([rng.randrange(b) for _ in range(n)]
                                  + [rng.choice(units)], b)
        s = rng.randrange(1, 10 ** 4 + 1)
        power, acc = [1], [0, 1]
        e = s
        while e:
            if e & 1:
                power = poly_remainder(poly_product(power, acc, b), lam.coeffs, b)
            acc = poly_remainder(poly_product(acc, acc, b), lam.coeffs, b)
            e >>= 1
        assert _power_and_sum(_tail(lam), s, b) == (
            _coords(power, n), _coords(poly_remainder([1] * s, lam.coeffs, b), n)), \
            (lam, s)


def test_order_of_x():
    assert order_of_x(x_pow_minus_one(3, 2)) == 3
    assert order_of_x(u_poly(4, 2)) == 4
    assert order_of_x(x_pow_minus_one(1, 5)) == 1
    with pytest.raises(NotInvertible):
        order_of_x(ModPoly.from_coeffs([2, 1], 4))  # constant term not a unit
    with pytest.raises(NotInvertible):
        order_of_x(ModPoly.from_coeffs([1, 2], 4))  # leading not a unit


def test_order_of_x_definition():
    # least positive exponent, over assorted valid polynomials
    rng = random.Random(8)
    checked = 0
    while checked < 60:
        b = rng.choice([2, 3, 4, 5, 6])
        lam = _random_poly(rng, b, 4)
        if not (is_unit(lam.constant, b) and is_unit(lam.leading, b)):
            continue
        if lam.degree == 0:
            continue
        w = order_of_x(lam)
        one = [1]
        acc = one
        for i in range(1, w + 1):
            acc = poly_remainder(poly_product(acc, [0, 1], b), lam.coeffs, b)
            if i < w:
                assert acc != one
        assert acc == one
        checked += 1


def test_smallest_cycle_length_examples():
    # omega is the order of X: 4, 2 and 3; s = lcm(k, ell)
    assert order_and_least_cycle(x_pow_minus_one(4, 3), 0, 4) == (4, 1)
    assert order_and_least_cycle(x_pow_minus_one(2, 2), 1, 2) == (2, 4)
    # oracle-decided: U_2 = X - 1 lies in (X^3 - 1, X^2 - 1) over Z/2,
    # so the least even s is already 2
    assert lcm(2, order_and_least_cycle(x_pow_minus_one(3, 2), 1, 3)[1]) == 2


def test_smallest_cycle_length_icr_16():
    # omega = 16 and every word cycle of icr has length 32, so ell = 32,
    # the last divisor of the 2-smooth part of 2 * 16 tried, and
    # s = lcm(k, 32)
    rule = icr(16, 2)
    lam = rule.char_poly()
    assert order_of_x(lam) == 16
    assert order_and_least_cycle(lam, rule.c, 16) == (16, 32)
    # any multiple of the order gives the same ell
    assert order_and_least_cycle(lam, rule.c, 48) == (48, 32)

def test_membership_true_exactly_on_multiples():
    rng = random.Random(9)
    from astute.algebra import is_unit
    checked = 0
    while checked < 40:
        b = rng.choice([2, 3, 4, 6, 9, 12])
        lam = _random_poly(rng, b, 4)
        if not (is_unit(lam.constant, b) and is_unit(lam.leading, b)):
            continue
        c = rng.randrange(b)
        ell = order_and_least_cycle(lam, c)[1]
        for s in range(1, 25):
            assert membership_cUs(lam, c, s) == (s % ell == 0), (lam, c, s, ell)
        checked += 1


def test_least_cycle_length_lemma_against_word_cycles():
    # the word-cycle lengths of an affine rule are the multiples of the
    # least, ell, whose primes all divide b, and s = lcm(k, ell); cycles
    # walked on the oracle's own permutation, for prime, squarefree
    # composite and prime-power b
    rng = random.Random(26)
    for b in (2, 3, 4, 5, 6, 8, 9, 10, 12):
        units = [u for u in range(1, b) if gcd(u, b) == 1]
        for _ in range(12):
            n = rng.randrange(1, max(d for d in range(1, 10) if b ** d <= 729) + 1)
            lambdas = ([rng.choice(units)] + [rng.randrange(b) for _ in range(n - 1)]
                       + [rng.choice(units)])
            c = rng.randrange(b)
            lengths = {len(cycle) for cycle in
                       permutation_cycles(affine_rule_permutation(lambdas, c, b))}
            ell = min(lengths)
            assert all(length % ell == 0 for length in lengths), (lambdas, c, b)
            rest = ell
            while gcd(rest, b) > 1:
                rest //= gcd(rest, b)
            assert rest == 1, (lambdas, c, b, ell)
            lam = AffineRule(tuple(lambdas), c, b).char_poly()
            assert order_and_least_cycle(lam, c) == (order_of_x(lam), ell), (
                lambdas, c, b)


def test_cycle_length_work_does_not_depend_on_k(monkeypatch):
    # the membership tests try the divisors of the b-smooth part of
    # b * omega whatever k is: the same tests at k = 1 and k = 999
    tests = []
    in_image = astute.ideals._in_image
    monkeypatch.setattr(astute.ideals, "_in_image", lambda tail, power, target, b: (
        tests.append((power, target)) or in_image(tail, power, target, b)))
    # each count takes a fresh rule, which has found no (omega, ell) yet
    for make, ell in ((lambda: icr(16, 2), 32),
                      (lambda: parse_rule_spec("affine:1;1,1,3,1", 3, 6), 12)):
        made = []
        for k in (1, 999):
            tests.clear()
            rule = make()
            assert count_theorem2(rule, k).witnesses["s"] == lcm(k, ell)
            made.append(list(tests))
        assert made[0] == made[1] and made[0], rule.spec()


def test_theorem2_given_s_checks_omega():
    # X^omega = 1 refuses omega = 2 for an order-4 lam before ell, and so
    # s, is found
    with pytest.raises(ValueError, match="omega=2 is not a multiple of the order of X"):
        count_theorem2(AffineRule((1, 1, 1, 1), 1, 2), 2, omega=2)


def test_theorem2_raises_x_omega_once(monkeypatch):
    # X^omega = 1 is checked once, by order_and_least_cycle, for a given
    # omega, and not at all when the order scan found omega: the divisor
    # walk never raises its top
    lam = x_pow_minus_one(12, 2)  # order 12, so only X^12 is 1
    rule = AffineRule(tuple(reversed(lam.coeffs)), 1, 2)
    one = [1] + [0] * 11
    results, power = [], astute.ideals._power
    monkeypatch.setattr(astute.ideals, "_power",
                        lambda *a, **kw: results.append(power(*a, **kw)) or results[-1])
    counts = []
    for kwargs, raised in (({"omega": 12}, 1), ({}, 0)):
        results.clear()
        counts.append(count_theorem2(rule, 2, **kwargs).value)
        assert results.count(one) == raised, kwargs
    assert counts == [counts[0]] * 2


def refuse_order_scan(lam):
    raise AssertionError("order_of_x called")


def test_smallest_cycle_length_needs_no_order(monkeypatch):
    monkeypatch.setattr(astute.ideals, "order_of_x", refuse_order_scan)
    assert order_and_least_cycle(x_pow_minus_one(2, 2), 1, 2) == (2, 4)
    assert lcm(2, order_and_least_cycle(x_pow_minus_one(3, 2), 1, 3)[1]) == 2


def test_cycle_length_guard_is_tight():
    # a full cycle over the b words of n = 1, where X = 1 (omega = 1):
    # s = lcm(k, b), the walk's bound lcm(k, b * omega) itself, which for
    # k coprime to b is also k * b^deg(lam)
    for spec, b in (("affine:1;1,1", 2), ("affine:1;1,2", 3)):
        rule = parse_rule_spec(spec, 1, b)
        lam = rule.char_poly()
        assert order_of_x(lam) == 1
        ell = order_and_least_cycle(lam, rule.c, 1)[1]
        for k in (1, 2, 3):
            s = lcm(k, ell)
            assert s == lcm(k, b), (spec, k)
            if k % b:
                assert s == k * b, (spec, k)


def test_theorem2_with_omega_scans_no_order(monkeypatch):
    rule = AffineRule((1, 1, 1, 1), 1, 2)  # U_4, order 4
    want = count_theorem2(rule, 2).value
    monkeypatch.setattr(astute.ideals, "order_of_x", refuse_order_scan)
    assert count_theorem2(rule, 2, omega=4).value == want
    assert count_theorem2(rule, 2, omega=12).value == want
    with pytest.raises(ValueError, match="omega=6 is not a multiple"):
        count_theorem2(rule, 2, omega=6)


@pytest.mark.parametrize("c", [0, 1])
def test_theorem2_primitive_trinomial_at_scale(c):
    # X^20 + X^3 + 1 is primitive over Z/2: one word is fixed and the
    # other 2^20 - 1 form one cycle, which splits into gcd(2^20 - 1, k)
    # cycles of G(20, k)
    rule = parse_rule_spec(f"affine:{c};1," + "0," * 16 + "1,0,0,1", 20, 2)
    omega = 2 ** 20 - 1
    assert count_theorem2(rule, 1, omega=omega).value == 2
    assert count_theorem2(rule, 3, omega=omega).value == 4
