import time

import pytest

import astute.cli
import astute.counting
import astute.ideals
import astute.rules
from astute.algebra import divisors, u_poly, x_pow_minus_one
from astute.cli import main
from astute.counting import (CountReport, base_divisor, closed_form_for,
                             closed_form_icr, closed_form_pcr, closed_form_xor,
                             count_burnside_direct, count_enumeration,
                             count_theorem2, count_theorem2_rule)
from astute.errors import BudgetExceeded
from astute.graph import cycle_lengths
from astute.ideals import order_of_x, smallest_cycle_length
from astute.rules import (AffineRule, enumerate_factor, fix_count_bruteforce,
                          icr, pcr, successor_array, xor_rule)

from oracles import lattice_rules, necklace_count

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
    assert count_theorem2(x_pow_minus_one(3, 2), 0, 2).value == 4
    assert count_theorem2(u_poly(4, 2), 0, 1).value == 4
    assert count_theorem2(x_pow_minus_one(2, 2), 0, 2).value == 4


def test_ideal_formula_witnesses():
    rep = count_theorem2(x_pow_minus_one(3, 2), 0, 2)
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
            assert count_theorem2_rule(rule, k).value == e
            closed = closed_form_for(rule, k)
            assert closed is not None and closed.value == e


def test_omega_multiple_invariance_sample():
    for rule in (pcr(3, 2), icr(4, 2), xor_rule(4), icr(2, 3)):
        lam = rule.char_poly()
        base_omega = order_of_x(lam)
        for k in (1, 2, 3):
            base = count_theorem2(lam, rule.c, k).value
            for m in (2, 3, 4):
                assert count_theorem2(lam, rule.c, k, omega=m * base_omega).value == base


def test_omega_must_be_a_multiple():
    lam = x_pow_minus_one(3, 2)  # order 3
    with pytest.raises(ValueError):
        count_theorem2(lam, 0, 1, omega=4)


def test_report_validation():
    with pytest.raises(ValueError):
        CountReport(0, "enumeration", "pcr", 2, 3, 1)
    with pytest.raises(ValueError):
        CountReport(4, "guesswork", "pcr", 2, 3, 1)


def test_count_budgets(monkeypatch):
    monkeypatch.setattr(astute.rules, "MAX_VERTICES", 8)
    with pytest.raises(BudgetExceeded):
        count_enumeration(pcr(3, 2), 2)
    monkeypatch.setattr(astute.rules, "MAX_VERTICES", 4)
    with pytest.raises(BudgetExceeded):
        count_burnside_direct(pcr(3, 2), 1)


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
    # pcr(3, 2) at k = 1: M = 3 and 8 words; cubing takes 2 compositions
    # and the divisors 1, 3 one count each, so (2 + 2) * 8 = 32 steps
    rule = pcr(3, 2)
    monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 32)
    assert count_burnside_direct(rule, 1).value == 4
    monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 31)
    with pytest.raises(BudgetExceeded, match="about 32 steps"):
        count_burnside_direct(rule, 1)


def test_burnside_period_check(monkeypatch):
    # icr(2, 2) is one cycle of its 4 words and X has order 2; a wrong
    # ell = 1 makes M = 2, which is no period: rule^2 moves words
    monkeypatch.setattr(astute.counting, "smallest_cycle_length",
                        lambda lam, c, k, omega: 1)
    with pytest.raises(ValueError, match="M=2 is not a period"):
        count_burnside_direct(icr(2, 2), 1, omega=2)


def test_wrong_omega_refused():
    # pcr(3, 2) has order 3; each route refuses omega = 2 before using it,
    # and the cycle length refuses it whatever c is
    rule = pcr(3, 2)
    lam = rule.char_poly()
    message = "omega=2 is not a multiple of the order of X"
    for c in (0, 1):
        with pytest.raises(ValueError, match=message):
            smallest_cycle_length(lam, c, 1, 2)
    with pytest.raises(ValueError, match=message):
        count_theorem2(lam, rule.c, 1, omega=2)
    with pytest.raises(ValueError, match=message):
        count_burnside_direct(rule, 1, omega=2)


def test_burnside_estimate_covers_work(monkeypatch):
    # the refusal's estimate bounds the compositions and fixed-point
    # counts the walk then makes, b^n word steps each
    made = []
    compose, fixed = astute.rules.compose, astute.rules.fixed_points
    monkeypatch.setattr(astute.rules, "compose",
                        lambda p, q: made.append(len(q)) or compose(p, q))
    monkeypatch.setattr(astute.rules, "fixed_points",
                        lambda perm: made.append(len(perm)) or fixed(perm))
    for rule, k in PACKED_INSTANCES + [(icr(3, 2), 4), (xor_rule(3), 6),
                                       (icr(6, 2), 1)]:
        monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 0)
        with pytest.raises(BudgetExceeded) as refusal:
            count_burnside_direct(rule, k)
        estimate = int(str(refusal.value).split()[3])
        monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 1 << 25)
        made.clear()
        count_burnside_direct(rule, k)
        assert made and sum(made) <= estimate, (rule.spec(), rule.b, k)


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

    monkeypatch.setattr(astute.counting, "order_of_x", counted)
    monkeypatch.setattr(astute.ideals, "order_of_x", counted)
    monkeypatch.setattr(astute.cli, "order_of_x", counted)
    rule = icr(4, 2)  # c != 0, so the cycle-length scan runs too
    for route in (count_theorem2_rule, count_burnside_direct):
        calls.clear()
        route(rule, 2)
        assert len(calls) == 1, route.__name__
    # a given omega is not checked by a second scan, by both routes
    # and by the CLI
    calls.clear()
    for route in (count_theorem2_rule, count_burnside_direct):
        route(rule, 2, omega=order_of_x(rule.char_poly()))
    assert calls == []
    assert main(["count", "--rule", "icr", "--b", "2", "--n", "4", "--k", "2",
                 "--method", "all"]) == 0
    assert len(calls) == 1
