from dataclasses import replace
from math import gcd, lcm

import pytest

import astute.rules
from astute.algebra import u_poly, x_pow_minus_one
from astute.errors import BudgetExceeded, NotInvertible
from astute.graph import (GraphParams, Vertex, pack, unpack, validate_factor,
                          word_str)
from astute.ideals import ideal_quotient_size, order_and_least_cycle, order_of_x
from astute.rules import (AffineRule, enumerate_factor, fix_count_bruteforce,
                          icr, parse_rule_spec, pcr, successor_array,
                          word_permutation, xor_rule)

from oracles import all_words, fixed_affine_rules, lattice_rules, rule_step


def apply(rule, word):
    """The word rule maps word to, solved independently of the package."""
    return rule_step(rule.lambdas, rule.c, rule.b, word)


def test_pcr_is_rotation():
    r = pcr(6, 6)
    assert word_str(apply(r, (1, 2, 3, 3, 5, 1))) == "233511"
    r2 = pcr(4, 3)
    for w in all_words(4, 3):
        assert apply(r2, w) == w[1:] + w[:1]


def test_icr_increments():
    r = icr(2, 2)
    table = {(0, 0): (0, 1), (0, 1): (1, 1), (1, 1): (1, 0), (1, 0): (0, 0)}
    for w, want in table.items():
        assert apply(r, w) == want
    # general b: appended symbol is first symbol plus one
    r3 = icr(3, 5)
    for w in all_words(3, 5):
        assert apply(r3, w) == w[1:] + ((w[0] + 1) % 5,)


def test_xor_includes_first_symbol():
    r = xor_rule(3)
    assert apply(r, (0, 0, 1)) == (0, 1, 1)
    for w in all_words(4, 2):
        assert apply(xor_rule(4), w) == w[1:] + (sum(w) % 2,)


def test_char_polys():
    for b in (2, 3, 5):
        for n in (1, 2, 3, 4):
            assert pcr(n, b).char_poly() == x_pow_minus_one(n, b)
            assert pcr(n, b).c == 0
            assert icr(n, b).char_poly() == x_pow_minus_one(n, b)
            assert icr(n, b).c == b - 1  # -1 mod b; equals 1 when b = 2
    for n in (1, 2, 3, 4, 5):
        assert xor_rule(n).char_poly() == u_poly(n + 1, 2)
        assert xor_rule(n).c == 0


def test_rules_are_bijections():
    rules = [pcr(6, 2), icr(6, 2), xor_rule(6), pcr(4, 4), icr(4, 4),
             AffineRule((1, 2, 0, 1), 2, 3), AffineRule((3, 1, 3), 2, 4)]
    for r in rules:
        image = {apply(r, w) for w in all_words(r.n, r.b)}
        assert len(image) == r.b ** r.n


def test_invertibility_is_enforced():
    with pytest.raises(NotInvertible):
        AffineRule((2, 1, 1), 0, 4)  # lambda_0 = 2 not a unit mod 4
    with pytest.raises(NotInvertible):
        AffineRule((1, 1, 2), 0, 4)  # lambda_n


def test_act():
    # one step of the rule on G(n, k): apply to the word, advance the phase
    def act(rule, k, v):
        p = GraphParams(rule.b, rule.n, k)
        return unpack(successor_array(rule, k)[pack(v, p)], p)

    assert act(pcr(3, 2), 2, Vertex((0, 1, 1), 0)) == Vertex((1, 1, 0), 1)
    # k = 1: phase pinned at 0
    assert act(pcr(3, 2), 1, Vertex((0, 1, 1), 0)) == Vertex((1, 1, 0), 0)
    assert act(icr(2, 2), 3, Vertex((0, 1), 2)) == Vertex((1, 1), 0)


def test_enumerate_factor_counts():
    assert len(enumerate_factor(pcr(3, 2), 2).cycles) == 4
    assert len(enumerate_factor(pcr(3, 2), 1).cycles) == 4
    assert len(enumerate_factor(xor_rule(3), 1).cycles) == 4


def test_enumerate_factor_orbit_sets():
    f = enumerate_factor(pcr(3, 2), 1)
    orbits = [sorted(word_str(v.word) for v in c.vertices) for c in f.cycles]
    assert orbits == [["000"], ["001", "010", "100"], ["011", "101", "110"], ["111"]]
    fx = enumerate_factor(xor_rule(3), 1)
    orbits = [sorted(word_str(v.word) for v in c.vertices) for c in fx.cycles]
    assert orbits == [["000"], ["001", "011", "100", "110"], ["010", "101"], ["111"]]


def test_factor_is_deterministic_and_sorted():
    p = GraphParams(2, 3, 2)
    f1 = enumerate_factor(pcr(3, 2), 2)
    f2 = enumerate_factor(pcr(3, 2), 2)
    assert f1 == f2
    minima = [min(pack(v, p) for v in c.vertices) for c in f1.cycles]
    assert minima == sorted(minima)
    starts = [pack(c.vertices[0], p) for c in f1.cycles]
    assert starts == minima


def test_orbit_lengths():
    for b, n, k in [(2, 3, 2), (2, 4, 3), (3, 2, 4), (2, 3, 6)]:
        for rule in (pcr(n, b), icr(n, b)):
            f = enumerate_factor(rule, k)
            assert validate_factor(f).ok
            for c in f.cycles:
                assert len(c) % k == 0
        for c in enumerate_factor(pcr(n, b), k).cycles:
            assert lcm(n, k) % len(c) == 0  # rotation orbits divide lcm(n, k)


def test_fix_count_examples():
    assert fix_count_bruteforce(pcr(3, 2), 0) == 8
    assert fix_count_bruteforce(pcr(3, 2), 1) == 2
    assert fix_count_bruteforce(icr(2, 2), 2) == 0


def test_fix_count_matches_ideal_prediction_sample():
    for rule in (pcr(3, 2), icr(3, 2), xor_rule(4), icr(2, 3), pcr(4, 3)):
        lam = rule.char_poly()
        omega, ell = order_and_least_cycle(lam, rule.c)
        for i in range(1, 25):
            want = ideal_quotient_size(lam, gcd(i, omega)) if i % ell == 0 else 0
            assert fix_count_bruteforce(rule, i) == want, (rule.spec(), i)


def test_fix_count_with_given_permutation():
    # the powers of one rule are counted on its one permutation, which no
    # count may change: each matches the count on a fresh copy of the rule
    for rule in lattice_rules():
        for i in range(25):
            assert fix_count_bruteforce(rule, i) == fix_count_bruteforce(replace(rule), i), (
                rule.spec(), i)


def test_word_permutation_agrees_with_apply():
    from astute.graph import word_value
    rules = [pcr(3, 2), icr(2, 5), xor_rule(4), AffineRule((1, 2, 2), 1, 3),
             AffineRule((1, 0, 2, 3), 3, 4), AffineRule((1, 2, 5), 1, 6),
             AffineRule((2, 3, 4), 2, 9), AffineRule((5, 3, 0, 4, 1), 5, 6)]
    # n = 1: the appended symbol depends on a_0 alone
    rules += [pcr(1, 2), icr(1, 4), AffineRule((3, 1), 2, 4),
              AffineRule((5, 5), 3, 6), AffineRule((7, 2), 4, 9)]
    for rule in rules:
        perm = word_permutation(rule)
        for w in all_words(rule.n, rule.b):
            assert perm[word_value(w, rule.b)] == word_value(apply(rule, w), rule.b)


def test_parse_rule_spec():
    assert parse_rule_spec("pcr", 3, 2).spec() == "pcr"
    assert parse_rule_spec("icr", 2, 3).c == 2
    assert parse_rule_spec("xor", 3, 2).char_poly() == u_poly(4, 2)
    r = parse_rule_spec("affine:1;1,0,1", 2, 2)
    assert r.lambdas == (1, 0, 1) and r.c == 1
    # a_2 = 1 + a_0 over b=2: same dynamics as the incremented register
    f = enumerate_factor(r, 1)
    assert len(f.cycles) == 1 and len(f.cycles[0]) == 4
    with pytest.raises(ValueError):
        parse_rule_spec("xor", 3, 3)
    with pytest.raises(ValueError):
        parse_rule_spec("affine:1;1,0", 2, 2)  # wrong coefficient count
    with pytest.raises(ValueError):
        parse_rule_spec("spr", 3, 2)


@pytest.mark.parametrize("b, n", [(4, 2), (6, 2), (9, 1), (9, 2)])
def test_successor_array_matches_vertex_definition(b, n):
    # (word, ph) -> (rule's word, ph + 1 mod k), with the rule step solved
    # by trial, on composite b and k = 1..5
    for rule in [pcr(n, b), icr(n, b)] + fixed_affine_rules(b, n, count=2):
        for k in range(1, 6):
            p = GraphParams(b, n, k)
            succ = successor_array(rule, k)
            assert succ == [pack(Vertex(apply(rule, w), (ph + 1) % k), p)
                            for w in all_words(n, b) for ph in range(k)]


def test_budget_exceeded(monkeypatch):
    monkeypatch.setattr(astute.rules, "MAX_VERTICES", 8)
    with pytest.raises(BudgetExceeded):
        enumerate_factor(pcr(3, 2), 2)
    rule = pcr(3, 2)
    assert len(rule.permutation) == 8
    monkeypatch.setattr(astute.rules, "MAX_VERTICES", 4)
    with pytest.raises(BudgetExceeded):
        fix_count_bruteforce(pcr(3, 2), 1)
    with pytest.raises(BudgetExceeded):  # a built permutation skips no budget
        fix_count_bruteforce(rule, 1)
