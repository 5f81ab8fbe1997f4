import time
from math import lcm

import pytest

import astute.counting
import astute.ideals
import astute.rules
from astute.algebra import divisors, factorize
from astute.cli import main
from astute.counting import (CountReport, base_divisor, closed_form_for,
                             closed_form_icr, closed_form_pcr, closed_form_xor,
                             count_burnside_direct, count_enumeration,
                             count_theorem2, fixed_point_counts)
from astute.errors import BudgetExceeded, NonIntegerResult
from astute.graph import cycle_lengths
from astute.ideals import order_and_least_cycle, order_of_x
from astute.rules import (AffineRule, enumerate_factor, fix_count_bruteforce,
                          icr, pcr, power_cost, successor_array, xor_rule)

from oracles import (affine_rule_permutation, affine_rules, all_words, lattice_rules,
                     necklace_count, periodic_extensions, permutation_order,
                     permutation_power, rule_step)


# first terms at k=1, b=2, frozen from the orbit-enumeration oracle
ROTATION_COUNTS = [2, 3, 4, 6, 8, 14, 20, 36]
INCREMENT_COUNTS = [1, 1, 2, 2, 4, 6, 10, 16]
SUM_RULE_COUNTS = [2, 2, 4, 4, 8, 10, 20, 30]

# (rule, k): the instances of the golden CLI tests, composite b included
PACKED_INSTANCES = [(pcr(3, 2), 2), (icr(2, 3), 2), (xor_rule(4), 3),
                    (AffineRule((1, 2, 5), 1, 6), 2),
                    (AffineRule((1, 0, 2, 3), 3, 4), 2),
                    (AffineRule((2, 3, 4), 2, 9), 3)]


def test_burnside_examples():
    assert count_burnside_direct(pcr(3, 2), 1).value == 4
    assert count_burnside_direct(pcr(3, 2), 2).value == 4
    assert count_burnside_direct(icr(2, 2), 1).value == 1


def test_ideal_formula_examples():
    assert count_theorem2(pcr(3, 2), 2).value == 4
    assert count_theorem2(xor_rule(3), 1).value == 4
    assert count_theorem2(pcr(2, 2), 2).value == 4


def test_ideal_formula_witnesses():
    rep = count_theorem2(pcr(3, 2), 2)
    assert rep.method == "theorem2"
    assert rep.witnesses["omega"] == 3
    assert rep.witnesses["s"] == 2
    assert [(d, phi, q) for d, phi, q in rep.witnesses["terms"]] == [(1, 2, 2), (3, 1, 8)]


def test_closed_form_pcr():
    assert closed_form_pcr(3, 2, 2).value == 4
    assert closed_form_pcr(1, 1, 7).value == 7
    assert closed_form_pcr(4, 1, 2).value == 6


def test_closed_form_icr():
    assert closed_form_icr(2, 1, 2).value == 1
    assert closed_form_icr(3, 1, 2).value == 2
    assert closed_form_icr(1, 1, 2).value == 1


def test_closed_form_xor():
    assert closed_form_xor(3, 1).value == 4
    assert closed_form_xor(1, 1).value == 2
    # k > 1: the count the other three routes give (the k=1-style sum
    # over all divisors would overshoot; gcd(k, n+1) indexes the sum)
    assert closed_form_xor(3, 2).value == 6
    assert closed_form_xor(3, 2).value == count_enumeration(xor_rule(3), 2).value


def test_base_divisor():
    assert base_divisor(12, 2) == 4
    for n in (1, 3, 5, 7, 9, 11):
        assert base_divisor(n, 2) == 1
    assert base_divisor(9, 3) == 9


def test_rotation_counts_match_necklaces():
    for n in range(1, 11):
        assert closed_form_pcr(n, 1, 2).value == necklace_count(n, 2)
    for n in range(1, 7):
        assert closed_form_pcr(n, 1, 3).value == necklace_count(n, 3)


def test_frozen_first_terms():
    for n, want in enumerate(ROTATION_COUNTS, start=1):
        assert closed_form_pcr(n, 1, 2).value == want
        assert count_enumeration(pcr(n, 2), 1).value == want
    for n, want in enumerate(INCREMENT_COUNTS, start=1):
        assert closed_form_icr(n, 1, 2).value == want
        assert count_enumeration(icr(n, 2), 1).value == want
    for n, want in enumerate(SUM_RULE_COUNTS, start=1):
        assert closed_form_xor(n, 1).value == want
        assert count_enumeration(xor_rule(n), 1).value == want


def test_four_way_agreement_sample():
    # the full lattice runs in the acceptance suite; spot-check here
    for rule in (pcr(3, 2), icr(3, 2), xor_rule(3), pcr(2, 3), icr(2, 3)):
        for k in (1, 2, 3, 5):
            e = count_enumeration(rule, k).value
            assert count_burnside_direct(rule, k).value == e
            assert count_theorem2(rule, k).value == e
            closed = closed_form_for(rule, k)
            assert closed is not None and closed.value == e


def test_omega_multiple_invariance_sample():
    for rule in (pcr(3, 2), icr(4, 2), xor_rule(4), icr(2, 3)):
        base_omega = order_of_x(rule.char_poly())
        for k in (1, 2, 3):
            base = count_theorem2(rule, k).value
            for m in (2, 3, 4):
                assert count_theorem2(rule, k, omega=m * base_omega).value == base


def test_omega_must_be_a_multiple():
    rule = pcr(3, 2)  # X^3 - 1, order 3
    with pytest.raises(ValueError):
        count_theorem2(rule, 1, omega=4)


def test_report_validation():
    with pytest.raises(ValueError):
        CountReport(0, "enumeration", "pcr", 2, 3, 1)
    with pytest.raises(ValueError):
        CountReport(4, "guesswork", "pcr", 2, 3, 1)


def test_count_budgets(monkeypatch):
    # both routes walk the 8 words, not the 16 vertices of G(3, 2)
    monkeypatch.setattr(astute.rules, "MAX_VERTICES", 8)
    assert count_enumeration(pcr(3, 2), 2).value == 4
    monkeypatch.setattr(astute.rules, "MAX_VERTICES", 4)
    for route in (count_enumeration, count_burnside_direct):
        with pytest.raises(BudgetExceeded, match="^8 words exceeds budget 4$"):
            route(pcr(3, 2), 1)


def test_lattice_rules_shape():
    rules = lattice_rules()
    assert len(rules) == 2 * 4 * 2 + 4 * 5 * 2 + 4 + 1
    specs = [r.spec() for r in rules]
    assert specs.count("pcr") == 8 and specs.count("xor") == 5


def test_cycle_lengths_match_enumerated_factor():
    # the word walk lifted by gcd(L, k), the vertex walk and the literal
    # factor agree on the number of cycles
    for rule, k in PACKED_INSTANCES:
        want = len(enumerate_factor(rule, k).cycles)
        assert len(cycle_lengths(successor_array(rule, k))) == want, (rule.spec(), rule.b, k)
        assert count_enumeration(rule, k).value == want, (rule.spec(), rule.b, k)


def test_enumeration_builds_no_successor_array(monkeypatch):
    # icr(16, 2) at k = 48 has 2^16 * 48 (about 2^21.6) vertices; the count
    # walks the 2^16 words only, so no vertex array may be built
    def refuse(*args, **kwargs):
        raise AssertionError("count_enumeration built a successor array")

    monkeypatch.setattr(astute.rules, "successor_array", refuse)
    monkeypatch.setattr(astute.counting, "successor_array", refuse, raising=False)
    assert count_enumeration(icr(16, 2), 48).value == closed_form_icr(16, 48, 2).value


def test_burnside_steps_by_rule_power():
    # the walk by rule^k visits rule^0, rule^k, ..., rule^(M-k); its sum
    # must equal the i-fold brute-force fixed counts over those powers
    for rule, k in PACKED_INSTANCES + [(icr(3, 2), 4), (xor_rule(3), 6)]:
        rep = count_burnside_direct(rule, k)
        m = rep.witnesses["M"]
        assert m % k == 0
        brute = sum(fix_count_bruteforce(rule, i) for i in range(0, m, k))
        assert brute * k == rep.value * m, (rule.spec(), rule.b, k)


def test_burnside_step_budget(monkeypatch):
    # pcr(3, 2) at k = 1: M = 3 and 8 words.  rule^1 can fix only its b = 2
    # constant words, tabled once each on the rule; the period is decided
    # by walking the zero word and the 3 unit words 3 steps each on the
    # word permutation (12 steps), so 2 + 12 = 14 steps
    rule = pcr(3, 2)
    monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 14)
    assert count_burnside_direct(rule, 1).value == 4
    monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 13)
    with pytest.raises(BudgetExceeded, match="about 14 steps"):
        count_burnside_direct(rule, 1)


def period_check_walks(monkeypatch, rule, omega, ell):
    # the (words, steps) of every advance call of the Burnside counts at
    # k = 1 with this omega and ell, whose period check must fail
    calls = []
    advance = astute.rules.advance
    monkeypatch.setattr(astute.rules, "advance", lambda perm, words, steps:
                        calls.append((len(words), steps)) or advance(perm, words, steps))
    with pytest.raises(ValueError) as refusal:
        fixed_point_counts(rule, 1, lcm(ell, omega), omega=omega)
    return str(refusal.value), calls


def test_burnside_period_check(monkeypatch):
    # icr(2, 2) is one cycle of its 4 words and X has order 2.  Each power
    # that omega names is decided by one walk of the zero word and the 2
    # unit words through T = rule^lcm(1, omega) on the word permutation.
    # A wrong ell = 1 makes M = 2, no period: T = rule^2 moves 00 to 11
    message, calls = period_check_walks(monkeypatch, icr(2, 2), 2, 1)
    assert message == "M=2 is not a period of the rule: rule^2 moves word 00"
    assert calls == [(3, 2)]
    # a wrong ell = 3 makes M = 6: the full counts at rule^3 read lists, but
    # the period is still read off the one walk of T = rule^2 (2 steps, not
    # 6), since rule^6 = T^3 = T; rule^6 = rule^2
    message, calls = period_check_walks(monkeypatch, icr(2, 2), 2, 3)
    assert message == "M=6 is not a period of the rule: rule^6 moves word 00"
    assert calls == [(3, 2)]
    # a wrong omega = ell = 7 makes M = 7 and T = rule^7 itself, walked 7
    # steps; it is no translation, so no identity; rule^7 = rule^3
    message, calls = period_check_walks(monkeypatch, icr(2, 2), 7, 7)
    assert message == "M=7 is not a period of the rule: rule^7 moves word 00"
    assert calls == [(3, 7)]
    # a_1 = 2*a_0 + 4 over Z/5 fixes the unit word 1 and moves 0 on a
    # 4-cycle: a wrong M = 1 is caught by the zero word alone
    message, _ = period_check_walks(monkeypatch, AffineRule((3, 1), 4, 5), 1, 1)
    assert message == "M=1 is not a period of the rule: rule^1 moves word 0"


def test_wrong_omega_refused():
    # pcr(3, 2) has order 3; each route refuses omega = 2 before using it,
    # and the cycle length refuses it whatever c is
    rule = pcr(3, 2)
    lam = rule.char_poly()
    message = "omega=2 is not a multiple of the order of X"
    for c in (0, 1):
        with pytest.raises(ValueError, match=message):
            order_and_least_cycle(lam, c, 2)
    with pytest.raises(ValueError, match=message):
        count_theorem2(rule, 1, omega=2)
    with pytest.raises(ValueError, match=message):
        count_burnside_direct(rule, 1, omega=2)


def test_theorem2_refuses_non_integer_count():
    # a wrong ell = 3 for pcr(3, 2) (its ell is 1) makes s = 3, which gives
    # 8/3, not a count
    rule = pcr(3, 2)
    vars(rule)["order_and_ell"] = (3, 3)
    with pytest.raises(NonIntegerResult,
                       match="^ideal-formula count 8/3 is not a positive integer$"):
        count_theorem2(rule, 1)


def test_closed_form_refuses_non_integer_count():
    # a wrong s = 5 for the rotation family at n = 3, b = 2 gives 12/15
    with pytest.raises(NonIntegerResult, match="^closed form gave 4/5$"):
        astute.counting._rotation_family(3, 1, 2, 5)


def count_burnside_work(monkeypatch) -> dict:
    # word steps of the Burnside walk, by kind: compositions and full
    # counts (b^n each), walks over few words (words times steps) and
    # periodic counts on the rule (b^j each)
    work = {"compose": [], "fixed_points": [], "advance": [], "periodic": []}
    compose, fixed, advance, periodic = (astute.rules.compose, astute.rules.fixed_points,
                                         astute.rules.advance,
                                         astute.rules.periodic_fixed_points)
    monkeypatch.setattr(astute.rules, "compose", lambda p, q:
                        work["compose"].append(len(q)) or compose(p, q))
    monkeypatch.setattr(astute.rules, "fixed_points", lambda perm:
                        work["fixed_points"].append(len(perm)) or fixed(perm))
    monkeypatch.setattr(astute.rules, "advance", lambda perm, words, steps:
                        work["advance"].append(len(words) * steps)
                        or advance(perm, words, steps))
    monkeypatch.setattr(astute.rules, "periodic_fixed_points", lambda rule, j:
                        work["periodic"].append(rule.b ** j) or periodic(rule, j))
    return work


LONG_PERIOD_N16 = AffineRule((1,) + (0,) * 11 + (1, 0, 1, 1, 1), 1, 2)


def all_lists_steps(rule: AffineRule, k: int, m: int) -> int:
    # the word steps of raising the list of every sigma^e, e | m/k, and
    # counting all b^n words on it: sigma = rule^k from the rule's list,
    # each other divisor from a smaller one by one prime, largest primes
    # first
    compositions, n_divisors = power_cost(k), 1
    for p, a in sorted(factorize(m // k), reverse=True):
        compositions += n_divisors * a * power_cost(p)
        n_divisors *= a + 1
    return (compositions + n_divisors) * rule.b ** rule.n


def test_burnside_estimate_covers_work(monkeypatch):
    # the refusal's estimate counts exactly the word steps the walk then
    # makes: compositions, full counts, periodic counts on the rule and the
    # one walk of the zero and unit words (on a list below it or the word
    # permutation); and it is never above raising and counting every list,
    # which icr(11, 2) at k = 5 and icr(15, 2) at k = 7 exceeded when words
    # below n walked the rule's list
    work = count_burnside_work(monkeypatch)
    for rule, k in PACKED_INSTANCES + [(icr(3, 2), 4), (xor_rule(3), 6),
                                       (icr(6, 2), 1), (pcr(3, 2), 1),
                                       (icr(16, 2), 3), (LONG_PERIOD_N16, 1),
                                       (icr(11, 2), 5), (icr(15, 2), 7),
                                       (icr(20, 2), 3)]:
        monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 0)
        with pytest.raises(BudgetExceeded) as refusal:
            count_burnside_direct(rule, k)
        estimate = int(str(refusal.value).split()[3])
        monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 1 << 25)
        for made in work.values():
            made.clear()
        m = count_burnside_direct(rule, k).witnesses["M"]
        assert work["advance"], (rule.spec(), rule.b, k)
        assert sum(map(sum, work.values())) == estimate, (rule.spec(), rule.b, k)
        assert estimate <= all_lists_steps(rule, k, m), (rule.spec(), rule.b, k)


def test_burnside_work_on_the_orbit_rules(monkeypatch):
    # pcr and xor at n = 16 (M = 16, 17) have every divisor of M below n
    # but M itself, so no list is raised and no count runs over all 2^16
    # words; icr at k = 3 has M = 96 but P = lcm(ell, omega) = 32 and
    # g = gcd(3, 32) = 1, so it counts the powers of the rule itself: those
    # below 16 on periodic words, and rule^16 and rule^32, translations
    # since omega = 16, from one walk of the zero and unit words under
    # rule^16; so it raises no list either
    work = count_burnside_work(monkeypatch)
    for rule, k, closed, compositions, full in [
            (pcr(16, 2), 1, closed_form_pcr(16, 1, 2), 0, 0),
            (xor_rule(16), 1, closed_form_xor(16, 1), 0, 0),
            (icr(16, 2), 3, closed_form_icr(16, 3, 2), 0, 0)]:
        for made in work.values():
            made.clear()
        assert count_burnside_direct(rule, k).value == closed.value
        assert len(work["compose"]) == compositions, rule.spec()
        assert len(work["fixed_points"]) == full, rule.spec()


def test_burnside_work_does_not_grow_with_k(monkeypatch):
    # icr(16, 2) has P = 32, and every odd k has g = gcd(k, 32) = 1: the
    # same powers of the rule are counted by the same calls, k = 999
    # (M = 31968) included
    work = count_burnside_work(monkeypatch)
    made = []
    for k in (1, 3, 5, 7, 999):
        for calls in work.values():
            calls.clear()
        rep = count_burnside_direct(icr(16, 2), k)
        assert rep.value == closed_form_icr(16, k, 2).value, k
        assert rep.witnesses["M"] == lcm(k, 32), k
        made.append({kind: list(calls) for kind, calls in work.items()})
    assert all(calls == made[0] for calls in made), made


def test_burnside_refuses_a_wrong_ell_at_p():
    # icr(2, 2) is one 4-cycle with omega = 2.  A wrong ell = 1 at k = 4
    # gives M = 4, a true period, but P = lcm(1, 2) = 2 is none: the
    # period is checked at P = 2 with k = gcd(4, P), which the message names
    with pytest.raises(ValueError,
                       match="^M=2 is not a period of the rule: rule\\^2 moves word 00$"):
        fixed_point_counts(icr(2, 2), 2, 2, omega=2)


def test_burnside_refuses_a_wrong_omega_below_p():
    # icr(2, 2) has omega = 2.  A wrong omega = 1 with ell = 4 gives
    # P = 4, a true period, but names rule^1 and rule^2 translations: the
    # zero and unit words show that rule^1 is none
    with pytest.raises(ValueError, match="^omega=1 is not a multiple of the order of X: "
                                         "rule\\^1 is no translation$"):
        fixed_point_counts(icr(2, 2), 1, 4, omega=1)


def lemma_rules(max_words: int, stride: int = 0):
    """(b, n, lambdas, c, perm) for every affine rule over b in 2..6 with
    n <= 4 and b^n <= max_words; of the larger shapes, every stride-th rule
    (none for stride 0)."""
    for b in range(2, 7):
        for n in range(1, 5):
            step = 1 if b ** n <= max_words else stride
            if not step:
                continue
            for i, (lambdas, c) in enumerate(affine_rules(b, n)):
                if i % step == 0:
                    yield b, n, lambdas, c, affine_rule_permutation(lambdas, c, b)


def test_affine_rule_permutation_matches_rule_step():
    # the oracle's packed permutations against its own symbol-by-symbol step
    for b, n, lambdas, c, perm in lemma_rules(27):
        words = list(all_words(n, b))
        assert [words[v] for v in perm] == \
            [rule_step(lambdas, c, b, w) for w in words], (lambdas, c, b)


def test_fixed_words_below_n_are_periodic_extensions():
    # the lemma behind Burnside's counts at j < n: brute force over all b^n
    # words finds exactly the j-periodic extensions that rule^j fixes; every
    # rule up to 256 words, every 16th of the 15,184 at b = 5, 6 and n = 4
    periodic = {}
    for b, n, lambdas, c, perm in lemma_rules(256, stride=16):
        power = perm
        for j in range(1, n):
            if j > 1:
                power = [perm[v] for v in power]
            if (b, n, j) not in periodic:
                periodic[b, n, j] = periodic_extensions(n, b, j)
            fixed = {w for w, v in enumerate(power) if v == w}
            assert fixed == {w for w in periodic[b, n, j] if power[w] == w}, \
                (lambdas, c, b, j)


def test_power_is_identity_iff_it_fixes_zero_and_unit_words():
    # the lemma behind Burnside's period check, at the rule's order (a
    # true period) and at the order over each of its primes (non-periods)
    for b, n, lambdas, c, perm in lemma_rules(256):
        order = permutation_order(perm)
        basis = [0] + [b ** i for i in range(n)]
        primes = [p for p in range(2, order + 1)
                  if order % p == 0 and all(p % q for q in range(2, p))]
        for m in [order] + [order // p for p in primes]:
            power = permutation_power(perm, m)
            identity = power == list(range(len(perm)))
            assert identity == (m == order), (lambdas, c, b, m)
            assert all(power[w] == w for w in basis) == identity, (lambdas, c, b, m)


def test_divisors_match_naive_list():
    for m in range(1, 2001):
        assert divisors(m) == [d for d in range(1, m + 1) if m % d == 0], m


def test_divisors_of_large_order_are_fast():
    start = time.perf_counter()
    assert len(divisors(2 ** 22 - 1)) == 16  # 3 * 23 * 89 * 683
    assert time.perf_counter() - start < 0.1


def test_order_of_x_once_per_route(monkeypatch):
    calls = []

    def counted(lam):
        calls.append(lam)
        return order_of_x(lam)

    # the routes and the CLI reach the scan only through astute.ideals
    monkeypatch.setattr(astute.ideals, "order_of_x", counted)
    # icr(4, 2) has c != 0, so the cycle-length scan runs too; each call
    # takes a fresh rule, which has found no order yet
    for route in (count_theorem2, count_burnside_direct):
        calls.clear()
        route(icr(4, 2), 2)
        assert len(calls) == 1, route.__name__
    # a given omega is not checked by a second scan, by both routes
    # and by the CLI
    calls.clear()
    for route in (count_theorem2, count_burnside_direct):
        route(icr(4, 2), 2, omega=order_of_x(icr(4, 2).char_poly()))
    assert calls == []
    assert main(["count", "--rule", "icr", "--b", "2", "--n", "4", "--k", "2",
                 "--method", "all"]) == 0
    assert len(calls) == 1
