"""Property tests drawn by hypothesis; skipped where it is not installed."""

import functools
import json
import random
from itertools import product
from math import gcd, lcm

import pytest

import astute.counting

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from astute.algebra import ModPoly, _rem_mod_p, divisors, poly_gcd
from astute.counting import (count_burnside_direct, count_enumeration, count_theorem2,
                             fixed_point_counts)
from astute.errors import BudgetExceeded
from astute.extremal import feedback_vertex_set
from astute.graph import (Factor, GraphParams, cycle_lengths, factor_json, to_dot,
                          vertex_names, word_str)
from astute.ideals import ideal_quotient_size, order_and_least_cycle, order_of_x
from astute.rules import (AffineRule, enumerate_factor, fix_count_bruteforce, icr,
                          parse_rule_spec, periodic_fixed_points, word_permutation)

from oracles import (affine_rule_permutation, factor_document, function_walk_lengths,
                     gcd_by_enumeration, ideal_quotient_size_oracle, membership_oracle,
                     periodic_fixed_count, permutation_cycles, poly_product, poly_remainder,
                     random_factor, rule_orbit_count, smallest_cycle_length_oracle)
from test_counting import all_lists_steps, count_burnside_work
from test_ideals import membership_cUs


@functools.lru_cache(maxsize=None)
def fvs_size(p: GraphParams) -> int:
    return len(feedback_vertex_set(p))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(b=st.sampled_from([2, 3, 4, 6, 8, 9]), n=st.integers(1, 4),
       k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_random_factor_cycles_within_feedback_vertex_set(b, n, k, seed):
    p = GraphParams(b, n, k)
    assume(p.num_vertices <= 512)
    factor = random_factor(p, random.Random(seed))
    assert len(cycle_lengths(factor.succ)) <= fvs_size(p)


# coefficient lists of degree <= 4, entries 0..4 reduced mod p by both sides,
# so trailing zeros mod p occur
small_polys = st.lists(st.integers(0, 4), max_size=5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5]), f=small_polys, g=small_polys)
@example(p=2, f=[], g=[1, 0, 1])               # one argument zero
@example(p=5, f=[0, 3, 0, 2], g=[0, 0])        # the other zero mod p
@example(p=3, f=[1, 2, 1], g=[1, 2, 1])        # equal arguments
@example(p=5, f=[2, 4, 1, 3], g=[2, 4, 1, 3])  # equal and not monic
@example(p=3, f=[2], g=[1, 1, 0, 2])           # a constant argument
@example(p=5, f=[4], g=[3])                    # both constant
def test_poly_gcd_matches_enumeration_oracle(p, f, g):
    assume(any(x % p for x in f + g))
    assert poly_gcd(f, g, p) == gcd_by_enumeration(f, g, p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 7]), f=st.lists(st.integers(0, 6), max_size=9),
       g=small_polys)
def test_rem_mod_p_matches_long_division_oracle(p, f, g):
    assume(g and g[-1] % p)
    assert _rem_mod_p(f, g, p) == poly_remainder(f, g, p)


@st.composite
def graph_permutations(draw):
    """A G(n, k) and any permutation of its packed vertices."""
    p = GraphParams(draw(st.sampled_from([2, 3])), draw(st.integers(1, 3)),
                    draw(st.integers(1, 3)))
    return p, draw(st.permutations(range(p.num_vertices)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=graph_permutations())
@example(case=(GraphParams(2, 4, 2), list(range(32))))          # all fixed points
@example(case=(GraphParams(3, 3, 2), list(range(1, 54)) + [0]))  # one long cycle
def test_cycle_walks_match_permutation_oracle(case):
    p, perm = case
    want = permutation_cycles(perm)
    assert len(cycle_lengths(perm)) == len(want)
    assert cycle_lengths(perm) == [len(c) for c in want]
    assert [c.codes for c in Factor(p, perm).cycles] == want


@st.composite
def graph_functions(draw):
    """A G(n, k) and any list of its packed vertices or -1, one entry per
    vertex: not a permutation in general, and -1 stands for no successor."""
    p = GraphParams(draw(st.sampled_from([2, 3])), draw(st.integers(1, 3)),
                    draw(st.integers(1, 3)))
    size = p.num_vertices
    return p, draw(st.lists(st.integers(-1, size - 1), min_size=size, max_size=size))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=graph_functions())
@example(case=(GraphParams(2, 1, 1), [1, 1]))        # a walk into a self-loop
@example(case=(GraphParams(2, 2, 1), [-1, 2, 1, -1]))  # -1 names the last vertex
@example(case=(GraphParams(2, 2, 1), [1, 2, 3, 1]))    # a tail into a cycle
def test_cycle_walks_match_function_walk_oracle(case):
    p, codes = case
    want = function_walk_lengths(codes)
    assert cycle_lengths(codes) == want
    assert [len(c) for c in Factor(p, codes).cycles] == want


def draw_unit_leading_rule(data, b, n):
    """An affine rule over Z/b whose first and last coefficients are units."""
    units = [u for u in range(1, b) if gcd(u, b) == 1]
    lambdas = ([data.draw(st.sampled_from(units))]
               + data.draw(st.lists(st.integers(0, b - 1), min_size=n - 1,
                                    max_size=n - 1))
               + [data.draw(st.sampled_from(units))])
    return AffineRule(tuple(lambdas), data.draw(st.integers(0, b - 1)), b)


@st.composite
def word_permutation_rules(draw):
    """An affine rule over b with unit ends, n >= 1 and b^n <= 4096: odd
    and even n, so heads one symbol longer than the tail and heads as long
    as it both occur."""
    b = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]))
    n = draw(st.integers(1, max(n for n in range(1, 13) if b ** n <= 4096)))
    return draw_unit_leading_rule(draw(st.data()), b, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rule=word_permutation_rules())
@example(rule=AffineRule((5, 7), 3, 12))  # n = 1: an empty tail
@example(rule=icr(11, 2))                 # head 6, tail 5
@example(rule=icr(12, 2))                 # head 6, tail 6
def test_word_permutation_matches_oracle(rule):
    # the residue rows against the oracle's symbol solved per partial sum
    assert word_permutation(rule) == affine_rule_permutation(rule.lambdas, rule.c, rule.b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(b=st.sampled_from([2, 3, 4, 5, 6, 10, 36]), data=st.data())
def test_certificates_match_document_oracle(b, data):
    # b^n * k <= 2048 vertices; the JSON writer against json.dumps of the
    # oracle's document, and every text and DOT label against word_str
    n = data.draw(st.integers(1, max(n for n in range(1, 12) if b ** n <= 2048)))
    k = data.draw(st.integers(1, min(6, 2048 // b ** n)))
    rule = draw_unit_leading_rule(data, b, n)
    optimal = data.draw(st.sampled_from([None, False, True]))
    extra = data.draw(st.sampled_from([None, {"rule": rule.spec()}, {"nodes": 7}]))
    f = enumerate_factor(rule, k)
    p = f.params
    doc = factor_document(b, n, k, [cyc.codes for cyc in f.cycles], optimal, extra)
    assert factor_json(f, optimal, extra) == json.dumps(doc, indent=2)
    labels = [word_str(w) + "@" + str(ph) for w in product(range(b), repeat=n)
              for ph in range(k)]
    assert vertex_names(p) == labels
    assert to_dot(p, f).splitlines()[1:len(labels) + 1] == [f'  "{s}";' for s in labels]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(b=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), n=st.integers(1, 3),
       k=st.integers(1, 6), data=st.data())
def test_enumeration_matches_orbit_oracle(b, n, k, data):
    # word cycles lifted to gcd(L, k) factor cycles each, against the
    # oracle's walk over every (word, phase) vertex
    assume(b ** n <= 729)
    rule = draw_unit_leading_rule(data, b, n)
    assert count_enumeration(rule, k).value == \
        rule_orbit_count(rule.lambdas, rule.c, b, k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(b=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), n=st.integers(1, 4),
       k=st.integers(1, 6), data=st.data())
@example(b=6, n=3, k=2, data=None)
@example(b=4, n=4, k=3, data=None)
def test_burnside_counts_match_bruteforce(b, n, k, data):
    # every per-divisor count of the walk (on periodic words below n, on the
    # zero and unit words at M, on all words otherwise) is the brute-force
    # count of the same power; j = k*e need not divide n
    assume(b ** n <= 729)
    rule = (AffineRule((1,) + (0,) * (n - 1) + (b - 1,), 1, b) if data is None
            else draw_unit_leading_rule(data, b, n))
    m = count_burnside_direct(rule, k).witnesses["M"]
    counts = fixed_point_counts(rule, k, m)
    assert sorted(counts) == divisors(m // k)
    for e, fixed in counts.items():
        assert fixed == fix_count_bruteforce(rule, k * e), (rule.spec(), b, k, e)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(b=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), n=st.integers(2, 9),
       data=st.data())
# (X + 1)^17 over Z/2 folds mod 16 to mu = 0, so all 2^16 periodic words
# are fixed
@example(b=2, n=17, data=None)
def test_periodic_fixed_points_match_oracle(b, n, data):
    # the count on the rule alone against j-periodic words stepped j times
    # through the oracle's own rule, for every j < n
    if data is None:
        rule, periods = parse_rule_spec("affine:0;1,1" + ",0" * 14 + ",1,1", n, b), [16]
    else:
        assume(b ** n <= 729)
        rule, periods = draw_unit_leading_rule(data, b, n), range(1, n)
    for j in periods:
        assert periodic_fixed_points(rule, j) == \
            periodic_fixed_count(rule.lambdas, rule.c, b, j), (rule.spec(), b, j)
    if data is None:
        assert periodic_fixed_points(rule, 16) == 2 ** 16


@settings(max_examples=150, deadline=None, derandomize=True)
@given(b=st.sampled_from([4, 6, 8, 9, 12]), n=st.integers(1, 3),
       k=st.integers(1, 6), data=st.data())
def test_burnside_matches_orbit_oracle(b, n, k, data):
    assume(b ** n <= 729)
    rule = draw_unit_leading_rule(data, b, n)
    assert count_burnside_direct(rule, k).value == \
        rule_orbit_count(rule.lambdas, rule.c, b, k)


@st.composite
def burnside_instances(draw):
    """(rule, k): an affine rule over b with b^n <= 2048, and k <= 12."""
    b = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]))
    n = draw(st.integers(1, max(n for n in range(1, 12) if b ** n <= 2048)))
    return draw_unit_leading_rule(draw(st.data()), b, n), draw(st.integers(1, 12))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=burnside_instances())
# omega = 16 makes rule^16 a translation below P = 32, with t != 0
@example(case=(icr(16, 2), 3))
def test_burnside_counts_at_p_match_bruteforce(case):
    # with the rule's own omega, the counts count_burnside_direct sums: every
    # power of rule^g, g = gcd(k, P), up to P; those where omega | g*e are
    # decided on the zero and unit words alone
    rule, k = case
    lam = rule.char_poly()
    omega, ell = order_and_least_cycle(lam, rule.c)
    period = lcm(ell, omega)
    g = gcd(k, period)
    counts = fixed_point_counts(rule, g, period, omega=omega)
    assert sorted(counts) == divisors(period // g)
    for e, fixed in counts.items():
        assert fixed == fix_count_bruteforce(rule, g * e), (rule.spec(), rule.b, k, e)
    if rule == icr(16, 2):
        assert counts[16] == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=burnside_instances())
# pinned, each with no full count: the affine rule at k = 4 (estimate
# 188 of 384), icr(11, 2) at k = 5 (138 of 28,672) and (X + 1)^17 over
# Z/2 at k = 16 (66,112 of 917,504: its 2^16 periodic words counted on
# the rule, and the zero and unit words walked 32 steps)
@example(case=(parse_rule_spec("affine:0;1,1,1,1,0,1", 5, 2), 4))
@example(case=(icr(11, 2), 5))
@example(case=(parse_rule_spec("affine:0;1,1" + ",0" * 14 + ",1,1", 17, 2), 16))
def test_burnside_estimate_is_its_work(case):
    # the refusal's estimate is the word steps the walk then makes, and
    # never above raising and counting every list; the fixture-free
    # MonkeyPatch context undoes the hooks after each example
    rule, k = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        work = count_burnside_work(monkeypatch)
        monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 0)
        with pytest.raises(BudgetExceeded) as refusal:
            count_burnside_direct(rule, k)
        estimate = int(str(refusal.value).split()[3])
        monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", 1 << 25)
        m = count_burnside_direct(rule, k).witnesses["M"]
    assert sum(map(sum, work.values())) == estimate, (rule.spec(), rule.b, k)
    assert estimate <= all_lists_steps(rule, k, m), (rule.spec(), rule.b, k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(b=st.sampled_from([4, 6, 8, 9, 12]), n=st.integers(1, 3),
       k=st.integers(1, 6), data=st.data())
def test_theorem2_matches_orbit_oracle(b, n, k, data):
    # w may be any multiple of the order of X, so 2w and 3w give the same count
    assume(b ** n <= 729)
    rule = draw_unit_leading_rule(data, b, n)
    want = rule_orbit_count(rule.lambdas, rule.c, b, k)
    report = count_theorem2(rule, k)
    assert report.value == want
    for m in (2, 3):
        omega = m * report.witnesses["omega"]
        assert count_theorem2(rule, k, omega=omega).value == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(b=st.sampled_from([2, 3, 4, 5, 6, 8, 9]), n=st.integers(1, 4),
       k=st.integers(1, 6), data=st.data())
def test_smallest_cycle_length_matches_word_cycle_oracle(b, n, k, data):
    # the divisor walk against the least lcm(k, L) over word-cycle
    # lengths L, for the drawn c and for c = 0
    rule = draw_unit_leading_rule(data, b, n)
    lam = rule.char_poly()
    omega = order_of_x(lam)
    for c in {rule.c, 0}:
        assert lcm(k, order_and_least_cycle(lam, c, omega)[1]) == \
            smallest_cycle_length_oracle(rule.lambdas, c, b, k), (rule.spec(), c)


# Theorem 2's ideals split over the primes of b: primes, squarefree
# composites (a gcd over each prime), and b with a square factor (a
# Smith normal form over that part)
IDEAL_MODULI = [2, 3, 5, 7, 6, 10, 15, 4, 8, 9, 12]


def draw_lambda(data, b, max_degree):
    """A lam of degree <= max_degree whose constant and leading
    coefficients are units; half the time g^2 * f with deg g >= 1, so
    not squarefree over any prime of b."""
    def unit_ended(degree):
        return draw_unit_leading_rule(data, b, degree).char_poly()

    if max_degree >= 2 and data.draw(st.booleans()):
        g = unit_ended(data.draw(st.integers(1, max_degree // 2)))
        room = max_degree - 2 * g.degree
        f = unit_ended(data.draw(st.integers(1, room))).coeffs if room else [1]
        return ModPoly.from_coeffs(poly_product(poly_product(g.coeffs, g.coeffs, b), f, b), b)
    return unit_ended(data.draw(st.integers(1, max_degree)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(b=st.sampled_from(IDEAL_MODULI), data=st.data())
def test_ideal_quotient_size_matches_closure_oracle(b, data):
    lam = draw_lambda(data, b, 5)
    for d in range(1, 7):
        if b ** d > 5000:
            break
        assert ideal_quotient_size(lam, d) == ideal_quotient_size_oracle(lam, d), (lam, d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(b=st.sampled_from(IDEAL_MODULI), data=st.data())
def test_membership_matches_closure_oracle(b, data):
    lam = draw_lambda(data, b, 5)
    c = data.draw(st.integers(0, b - 1))
    for s in range(1, 7):
        if b ** s > 5000:
            break
        assert membership_cUs(lam, c, s) == membership_oracle(lam, c, s), (lam, c, s)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(b=st.sampled_from(IDEAL_MODULI), data=st.data())
def test_shared_cycle_lengths_match_word_cycle_oracle(b, data):
    # the (omega, ell) pair count --method all computes once and shares:
    # ell from the order scan, then s = lcm(k, ell) at each k
    lam = draw_lambda(data, b, max(d for d in range(1, 5) if b ** d <= 729))
    c = data.draw(st.integers(0, b - 1))
    lambdas = tuple(reversed(lam.coeffs))
    omega, ell = order_and_least_cycle(lam, c)
    assert omega == order_of_x(lam), lam
    assert ell == smallest_cycle_length_oracle(lambdas, c, b, 1), (lam, c)
    for k in range(1, 7):
        assert lcm(k, ell) == smallest_cycle_length_oracle(lambdas, c, b, k), (lam, c, k)
