import random
from itertools import zip_longest
from math import gcd

import pytest

from astute.algebra import (ModPoly, euler_phi, factorize, is_prime, mod_inverse,
                            poly_divmod, poly_gcd_field, poly_rem, u_poly,
                            x_pow_minus_one)
from astute.errors import CompositeModulus, LeadingNotInvertible, NotInvertible


def test_mod_inverse_examples():
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(3, 10) == 7
    with pytest.raises(NotInvertible):
        mod_inverse(2, 4)


def test_mod_inverse_exhaustive_small_moduli():
    for b in range(2, 13):
        for a in range(b):
            if gcd(a, b) == 1:
                assert a * mod_inverse(a, b) % b == 1
            else:
                with pytest.raises(NotInvertible):
                    mod_inverse(a, b)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    for p in (2, 3, 5, 7, 11, 13):
        assert euler_phi(p) == p - 1
    for m in range(1, 61):
        assert euler_phi(m) == sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)


def test_factorize():
    assert factorize(1) == []
    assert factorize(2 ** 22 - 1) == [(3, 1), (23, 1), (89, 1), (683, 1)]
    for m in range(1, 500):
        pairs = factorize(m)
        assert [p for p, _ in pairs] == [
            p for p in range(2, m + 1)
            if m % p == 0 and all(p % q for q in range(2, p))]
        product = 1
        for p, a in pairs:
            product *= p ** a
        assert product == m
    with pytest.raises(ValueError):
        factorize(0)


def test_modpoly_normalization():
    p = ModPoly.from_coeffs([1, 2, 0, 0], 3)
    assert p.coeffs == (1, 2)
    z = ModPoly.from_coeffs([0, 3, 6], 3)
    assert z.is_zero and z.coeffs == ()
    with pytest.raises(ValueError):
        z.degree
    assert ModPoly.from_coeffs([-1], 5).coeffs == (4,)


def test_u_poly():
    assert u_poly(1, 2) == ModPoly.from_coeffs([1], 2)
    assert u_poly(3, 2) == ModPoly.from_coeffs([1, 1, 1], 2)
    assert u_poly(4, 3) == ModPoly.from_coeffs([1, 1, 1, 1], 3)


def x_power(j: int, b: int) -> ModPoly:
    return ModPoly.from_coeffs([0] * j + [1], b)


def test_poly_rem_examples():
    assert poly_rem(x_power(3, 5), x_pow_minus_one(2, 5)) == x_power(1, 5)
    q = x_pow_minus_one(3, 7)
    assert poly_rem(q, q).is_zero
    assert poly_rem(x_power(4, 2), ModPoly.from_coeffs([1, 0, 1], 2)) == x_power(0, 2)


def test_poly_rem_requires_unit_leading():
    with pytest.raises(LeadingNotInvertible):
        poly_rem(x_power(3, 4), ModPoly.from_coeffs([1, 2], 4))


def poly_add(f: ModPoly, g: ModPoly) -> ModPoly:
    return ModPoly.from_coeffs(
        [a + c for a, c in zip_longest(f.coeffs, g.coeffs, fillvalue=0)], f.modulus)


def test_poly_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        b = rng.choice([2, 3, 4, 5, 6, 9])
        dq = rng.randrange(1, 5)
        q = ModPoly.from_coeffs(
            [rng.randrange(b) for _ in range(dq)] + [1], b)  # monic
        p = ModPoly.from_coeffs([rng.randrange(b) for _ in range(rng.randrange(1, 9))], b)
        r = ModPoly.from_coeffs([rng.randrange(b) for _ in range(dq)], b)
        quot, rem = poly_divmod(poly_add(p * q, r), q)
        assert rem == r
        assert poly_add(quot * q, rem) == poly_add(p * q, r)
        if not rem.is_zero:
            assert rem.degree < q.degree


def test_gcd_repunit_family():
    for b in (2, 3, 5):
        for n in range(1, 13):
            for m in range(1, 13):
                got = poly_gcd_field(u_poly(n, b), u_poly(m, b))
                assert got == u_poly(gcd(n, m), b).monic()


def test_gcd_xn_family():
    for b in (2, 3, 5):
        for n in range(1, 13):
            for m in range(1, 13):
                got = poly_gcd_field(x_pow_minus_one(n, b), x_pow_minus_one(m, b))
                assert got == x_pow_minus_one(gcd(n, m), b).monic()


def test_gcd_mixed_family_two_cases():
    for b in (2, 3, 5):
        for n in range(1, 13):
            for m in range(1, 13):
                g = gcd(n, m)
                got = poly_gcd_field(u_poly(n, b), x_pow_minus_one(m, b))
                if (n // g) % b == 0:
                    assert got == x_pow_minus_one(g, b).monic()
                else:
                    assert got == u_poly(g, b).monic()


def test_gcd_mixed_spec_examples():
    assert poly_gcd_field(u_poly(6, 2), u_poly(4, 2)) == u_poly(2, 2)
    assert poly_gcd_field(x_pow_minus_one(6, 3), x_pow_minus_one(4, 3)) \
        == x_pow_minus_one(2, 3).monic()
    # n=4, m=2, b=2: n/(n:m) = 2 is 0 mod 2, so the X^g - 1 branch
    assert poly_gcd_field(u_poly(4, 2), x_pow_minus_one(2, 2)) == x_pow_minus_one(2, 2)


def test_gcd_rejects_composite_modulus():
    with pytest.raises(CompositeModulus):
        poly_gcd_field(u_poly(2, 4), u_poly(3, 4))


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for m in range(31):
        assert is_prime(m) == (m in primes)
