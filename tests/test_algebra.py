from math import gcd

import pytest

from astute.algebra import (ModPoly, _rem_mod_p, divisor_phis, factorize, poly_gcd,
                            u_poly, x_pow_minus_one)


def test_euler_phi():
    # phi of every divisor, from one factorization, against counting
    assert divisor_phis(1) == {1: 1}
    assert divisor_phis(12) == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
    for p in (2, 3, 5, 7, 11, 13):
        assert divisor_phis(p) == {1: 1, p: p - 1}
    for m in range(1, 361):
        phis = divisor_phis(m)
        assert sorted(phis) == [d for d in range(1, m + 1) if m % d == 0], m
        for d, phi in phis.items():
            assert phi == sum(1 for a in range(1, d + 1) if gcd(a, d) == 1), (m, d)
    with pytest.raises(ValueError):
        divisor_phis(0)


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


def x_power(j: int) -> list[int]:
    return [0] * j + [1]


def test_poly_rem_examples():
    # _rem_mod_p: the one polynomial remainder, over a prime
    assert _rem_mod_p(x_power(3), x_pow_minus_one(2, 5).coeffs, 5) == x_power(1)
    q = x_pow_minus_one(3, 7).coeffs
    assert _rem_mod_p(q, q, 7) == []
    assert _rem_mod_p(x_power(4), [1, 0, 1], 2) == x_power(0)


def gcd_of(f: ModPoly, g: ModPoly) -> list[int]:
    return poly_gcd(f.coeffs, g.coeffs, f.modulus)


def monic(f: ModPoly) -> list[int]:
    inv = pow(f.leading, -1, f.modulus)
    return [c * inv % f.modulus for c in f.coeffs]


def test_gcd_repunit_family():
    for b in (2, 3, 5):
        for n in range(1, 13):
            for m in range(1, 13):
                got = gcd_of(u_poly(n, b), u_poly(m, b))
                assert got == monic(u_poly(gcd(n, m), b))


def test_gcd_xn_family():
    for b in (2, 3, 5):
        for n in range(1, 13):
            for m in range(1, 13):
                got = gcd_of(x_pow_minus_one(n, b), x_pow_minus_one(m, b))
                assert got == monic(x_pow_minus_one(gcd(n, m), b))


def test_gcd_mixed_family_two_cases():
    for b in (2, 3, 5):
        for n in range(1, 13):
            for m in range(1, 13):
                g = gcd(n, m)
                got = gcd_of(u_poly(n, b), x_pow_minus_one(m, b))
                if (n // g) % b == 0:
                    assert got == monic(x_pow_minus_one(g, b))
                else:
                    assert got == monic(u_poly(g, b))


def test_gcd_mixed_spec_examples():
    assert gcd_of(u_poly(6, 2), u_poly(4, 2)) == list(u_poly(2, 2).coeffs)
    assert gcd_of(x_pow_minus_one(6, 3), x_pow_minus_one(4, 3)) \
        == monic(x_pow_minus_one(2, 3))
    # n=4, m=2, b=2: n/(n:m) = 2 is 0 mod 2, so the X^g - 1 branch
    assert gcd_of(u_poly(4, 2), x_pow_minus_one(2, 2)) \
        == list(x_pow_minus_one(2, 2).coeffs)
