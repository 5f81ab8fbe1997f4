import cmath
import math
import random
import struct

import pytest

import astute.spectral
from astute.errors import Inconclusive, NotPcrOrbit, PreconditionViolated
from astute.extremal import search_extremal
from astute.graph import (Cycle, GraphParams, Vertex, pack, parse_word, unpack,
                          word_str)
from astute.rules import enumerate_factor, icr, pcr, xor_rule
from astute.spectral import (covering_check, cycle_sum_check, cyclotomic,
                             distinguished_code, evaluates_to_zero_exact,
                             is_real_exact, orbit_transform_table,
                             pcr_distinguished_codes, rotate_left, rotate_right,
                             rotation_identity_holds, transform)

from oracles import (all_words, cycle_sum_vanishes, exhaustive_factors,
                     transform_reference)


def test_transform_examples():
    assert transform((0, 0, 0)) == 0
    assert abs(transform((0, 1)) - (-1)) < 1e-12
    assert abs(transform((0, 1, 0, 0)) - 1j) < 1e-12


def test_transform_matches_reference():
    for n in range(1, 7):
        for w in all_words(n, 3):
            assert abs(transform(w) - transform_reference(w)) < 1e-9


def test_transform_bit_identical_to_exp_sum():
    # the root table must reproduce, bit for bit, one exp per term summed
    # left to right, so the CSV floats and every verdict stay the same
    for b in (2, 3):
        for n in range(1, 7):
            for w in all_words(n, b):
                direct = 0j
                for i, a in enumerate(w):
                    direct += a * cmath.exp(2j * cmath.pi * i / n)
                got = transform(w)
                assert (struct.pack("dd", got.real, got.imag)
                        == struct.pack("dd", direct.real, direct.imag)), w


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    # product over divisors reconstructs X^n - 1
    for n in (6, 8, 12):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, c in enumerate(phi):
                        out[i + j] += a * c
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_is_real_exact():
    assert is_real_exact((2, 2, 2))
    assert is_real_exact((0, 1))
    assert not is_real_exact((0, 1, 0, 0))
    # float check would misjudge near-zero algebraic values; exact test
    # agrees with the reference on every small word
    for n in range(1, 7):
        for w in all_words(n, 2):
            want = abs(transform_reference(w).imag) < 1e-9
            assert is_real_exact(w) == want


@pytest.mark.parametrize("word,n", [((1, 2, 3), 2), ((1, 2), 3)],
                         ids=["longer", "shorter"])
def test_is_real_exact_refuses_length_mismatch(word, n):
    # the same refusal as transform: no symbol is dropped or read past
    for fn in (transform, is_real_exact):
        with pytest.raises(ValueError, match=f"word length {len(word)} != n = {n}"):
            fn(word, n)


def test_rotation_identity():
    # X * C(rot s) - C(s) is a_0 * (X^n - 1), which vanishes at mu
    for word in [(0, 1), parse_word("123351", 6)]:
        n = len(word)
        diff = [x - y for x, y in zip((0, *rotate_left(word)), (*word, 0))]
        assert diff == [-word[0]] + [0] * (n - 1) + [word[0]]
        assert evaluates_to_zero_exact(diff, n)


def test_rotation_identity_holds_exact(monkeypatch):
    for n in range(1, 13):
        assert rotation_identity_holds(n)
    # mu * C(rot^-1 s) = C(s) fails as soon as mu^2 != 1
    monkeypatch.setattr(astute.spectral, "rotate_left", rotate_right)
    for n in range(3, 13):
        assert not rotation_identity_holds(n)


def rotation_identity_check(word, n, tol, rotate=rotate_left) -> bool:
    """mu * C(rotate(word)) = C(word) within tol, in floats, for one word."""
    mu = cmath.exp(2j * cmath.pi / n)
    return abs(mu * transform(rotate(word), n) - transform(word, n)) < tol


@pytest.mark.parametrize("tol", [1e-9, 1e-15, 4e-16, 0.0])
def test_rotation_identity_holds_matches_per_word_check(tol, monkeypatch):
    # the exact verdict is the per-word float one at any tolerance between
    # transform's rounding bound n * (b - 1) * 2^-50 and the gap |mu^2 - 1|
    # a wrong rotation leaves; below that bound the float verdict is noise
    shapes = ([(b, n) for b in (2, 3, 4) for n in range(1, 9)]
              + [(6, n) for n in range(1, 5)])
    for rotate in (rotate_left, rotate_right):
        monkeypatch.setattr(astute.spectral, "rotate_left", rotate)
        for b, n in shapes:
            slack = max(tol, n * (b - 1) * 2.0 ** -50)
            want = all(rotation_identity_check(w, n, slack, rotate)
                       for w in all_words(n, b))
            assert rotation_identity_holds(n) == want, (rotate.__name__, b, n)


def test_cycle_sum_matches_float_criterion():
    for p in [GraphParams(2, 2, 1), GraphParams(2, 3, 1), GraphParams(2, 2, 2)]:
        for f in exhaustive_factors(p):
            for c in f.cycles:
                total = sum(transform(v.word) for v in c.vertices)
                assert cycle_sum_check(c) == (abs(total) < 1e-6 * len(c)), c


def test_cycle_sum_refuses_non_cycles():
    p = GraphParams(2, 2, 1)
    # the lone vertex 01 (transform -1) is not a cycle of G(2, 1)
    lone = Cycle((pack(Vertex((0, 1), 0), p),), p)
    assert not cycle_sum_check(lone)
    # 01 -> 11 is an arc, but 11 -> 01 is not
    path = Cycle(tuple(pack(Vertex(w, 0), p) for w in [(0, 1), (1, 1)]), p)
    assert not cycle_sum_check(path)


@pytest.mark.parametrize("k", [2, 3])
def test_cycle_sum_matches_oracle_on_arbitrary_codes(k):
    # code tuples need not be cycles: the check must read each symbol from
    # its own digit of the packed code, past the phase
    rng = random.Random(k)
    verdicts = []
    for n in (1, 2, 3, 4, 6):
        p = GraphParams(3, n, k)
        for _ in range(300):
            codes = tuple(rng.randrange(p.num_vertices) for _ in range(rng.randint(1, 9)))
            want = cycle_sum_vanishes(codes, 3, n, k)
            assert cycle_sum_check(Cycle(codes, p)) == want, (n, codes)
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_cycle_sum_vanishes_on_rule_factors():
    for rule, k in [(pcr(3, 2), 2), (icr(3, 2), 2), (xor_rule(4), 3),
                    (pcr(2, 3), 2), (icr(4, 2), 1)]:
        f = enumerate_factor(rule, k)
        assert all(cycle_sum_check(c) for c in f.cycles)


def test_cycle_sum_on_extremal_certificate():
    res = search_extremal(GraphParams(2, 3, 2))
    assert all(cycle_sum_check(c) for c in res.certificate.cycles)


def test_cycle_sum_trivial_self_loop():
    f = enumerate_factor(pcr(3, 2), 1)
    loop = f.cycles[0]
    assert [word_str(v.word) for v in loop.vertices] == ["000"]
    assert cycle_sum_check(loop)


def test_arc_gap_real_and_zero_iff_inverse_rotation():
    for b in (2, 3):
        for n in range(1, 7):
            if b ** n > 300:
                continue
            for s in all_words(n, b):
                for x in range(b):
                    t = s[1:] + (x,)
                    r_inv_t = rotate_right(t)
                    diff = [a - c for a, c in zip(s, r_inv_t)]
                    assert is_real_exact(diff, n)
                    assert evaluates_to_zero_exact(diff, n) == (s == r_inv_t)


def test_distinguished_all_real_takes_minimal():
    p = GraphParams(2, 3, 2)
    f = enumerate_factor(pcr(3, 2), 2)
    all_zero = f.cycles[0]
    assert unpack(distinguished_code(all_zero, p), p) == Vertex((0, 0, 0), 0)


def test_distinguished_example_n3():
    p = GraphParams(2, 3, 1)
    f = enumerate_factor(pcr(3, 2), 1)
    orbit = next(c for c in f.cycles
                 if (0, 0, 1) in [v.word for v in c.vertices])
    assert unpack(distinguished_code(orbit, p), p).word == (0, 0, 1)


def test_distinguished_six_symbol_orbit():
    # transforms of the rotations of 123351 wind once around the circle;
    # the descent lands on 511233 (hand-checked: C = 3 - 3.46i there,
    # preceded by C = 4.5 + 0.87i)
    p = GraphParams(6, 6, 1)
    f = enumerate_factor(pcr(6, 6), 1)
    orbit = next(c for c in f.cycles
                 if parse_word("123351", 6) in [v.word for v in c.vertices])
    assert word_str(unpack(distinguished_code(orbit, p), p).word) == "511233"


def test_distinguished_rejects_non_rotation_cycle():
    p = GraphParams(2, 3, 1)
    f = enumerate_factor(xor_rule(3), 1)
    four = next(c for c in f.cycles if len(c) == 4)
    with pytest.raises(NotPcrOrbit):
        distinguished_code(four, p)


def test_distinguished_refuses_sign_within_rounding(monkeypatch):
    # 001's orbit has no exactly real word; at 1e-17, under the bound
    # n * (b - 1) * 2^-50 = 2.7e-15, each imaginary part keeps its true
    # sign, which an unguarded read would take, but rounding could have
    # flipped it, so the read is refused
    p = GraphParams(2, 3, 1)
    orbit = next(c for c in enumerate_factor(pcr(3, 2), 1).cycles
                 if (0, 0, 1) in [v.word for v in c.vertices])
    assert unpack(distinguished_code(orbit, p), p).word == (0, 0, 1)
    exact = astute.spectral.transform
    monkeypatch.setattr(astute.spectral, "transform", lambda word, n=None: complex(
        0.0, math.copysign(1e-17, exact(word, n).imag)))
    with pytest.raises(Inconclusive, match="rounding bound"):
        distinguished_code(orbit, p)


def test_non_real_orbits_have_length_n_and_unique_descent():
    for b, n, k in [(2, 3, 1), (2, 4, 2), (3, 3, 3), (2, 6, 3), (3, 4, 2)]:
        p = GraphParams(b, n, k)
        for cyc in enumerate_factor(pcr(n, b), k).cycles:
            if all(is_real_exact(v.word) for v in cyc.vertices):
                continue
            assert len(cyc) == n
            ims = [transform(v.word).imag for v in cyc.vertices]
            exact_real = [is_real_exact(v.word) for v in cyc.vertices]
            descents = sum(
                1 for i in range(n)
                if (not exact_real[i] and ims[i] < 0)
                and (exact_real[i - 1] or ims[i - 1] > 0))
            assert descents == 1


def test_distinguished_codes_one_per_orbit():
    p = GraphParams(2, 4, 2)
    f = enumerate_factor(pcr(4, 2), 2)
    codes = pcr_distinguished_codes(p)
    assert len(codes) == len(f.cycles)


def test_covering_rule_factor_itself():
    assert covering_check(enumerate_factor(pcr(3, 2), 1))
    assert covering_check(enumerate_factor(pcr(2, 2), 4))


def test_covering_exhaustive_tiny():
    for b, n in [(2, 2), (2, 3)]:
        p = GraphParams(b, n, 1)
        for f in exhaustive_factors(p):
            assert covering_check(f)


def test_covering_precondition():
    with pytest.raises(PreconditionViolated):
        covering_check(enumerate_factor(pcr(3, 2), 2))


def test_orbit_transform_table():
    rows = orbit_transform_table(GraphParams(2, 3, 1))
    assert len(rows) == 8
    by_orbit = {}
    for r in rows:
        by_orbit.setdefault(r["orbit"], []).append(r)
    for orbit_rows in by_orbit.values():
        assert sum(r["distinguished"] for r in orbit_rows) == 1
    for r in rows:
        want = transform_reference(r["word"])
        assert abs(complex(r["re"], r["im"]) - want) < 1e-9


def test_evaluates_to_zero_exact():
    assert evaluates_to_zero_exact([0, 0, 0], 3)
    assert evaluates_to_zero_exact([1, 1, 1], 3)  # 1 + mu + mu^2 = 0
    assert not evaluates_to_zero_exact([1, 1, 0], 3)
    assert evaluates_to_zero_exact([5, 5], 2)  # 5 - 5 = 0 at mu = -1
