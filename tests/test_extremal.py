import functools
import random
from math import factorial

import pytest

from astute import extremal
from astute.counting import closed_form_pcr
from astute.errors import BudgetExceeded, Inconclusive, PreconditionViolated
from astute.extremal import (SearchBudget, cycle_capacity,
                             feedback_vertex_set, search_extremal,
                             verify_theorem1)
from astute.graph import GraphParams, validate_factor
from astute.rules import enumerate_factor, pcr

import oracles
from oracles import EXHAUSTIVE_MAX_VERTICES, exhaustive_factors, random_factor

DIVISIBLE_INSTANCES = (
    [(2, n, k) for (n, k) in [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 3),
                              (1, 2), (1, 3), (2, 4), (4, 2)]]
    + [(3, n, k) for (n, k) in [(1, 1), (2, 1), (2, 2)]])

ENUMERABLE_FACTORS = 50_000


def test_counterexample_instance():
    p = GraphParams(2, 3, 2)
    assert len(enumerate_factor(pcr(3, 2), 2).cycles) == 4
    res = search_extremal(p)
    assert res.optimal
    assert res.best_count == 6
    assert len(res.certificate.cycles) == 6
    assert validate_factor(res.certificate).ok


def test_search_is_deterministic():
    a = search_extremal(GraphParams(2, 3, 2))
    b = search_extremal(GraphParams(2, 3, 2))
    assert a.certificate == b.certificate
    assert a.nodes_explored == b.nodes_explored


@functools.lru_cache(maxsize=None)
def enumerable_maxima() -> tuple[tuple[GraphParams, int], ...]:
    """(instance, most cycles over all its factors) for every instance
    with at most ENUMERABLE_FACTORS factors, (b!)^(b^(n-1) k) of them."""
    out = []
    for b in range(2, 9):
        for n in range(1, 5):
            for k in range(1, 11):
                p = GraphParams(b, n, k)
                if (p.num_vertices <= EXHAUSTIVE_MAX_VERTICES and
                        factorial(b) ** (b ** (n - 1) * k) <= ENUMERABLE_FACTORS):
                    out.append((p, max(len(f.cycles) for f in exhaustive_factors(p))))
    return tuple(out)


def test_search_matches_exhaustive_maximum():
    assert len(enumerable_maxima()) == 34
    for p, best in enumerable_maxima():
        assert search_extremal(p).best_count == best, p


def test_cycle_capacity_bounds_exhaustive_maximum():
    for p, best in enumerable_maxima():
        assert cycle_capacity(p) >= best, p


def test_cycle_capacity_values():
    # G(5,1), G(6,1) and b=3 G(3,1) exceed their optima 8, 14 and 11
    for (b, n, k), cap in [((2, 3, 2), 6), ((2, 4, 2), 10), ((2, 4, 4), 16),
                           ((2, 5, 1), 9), ((2, 6, 1), 15), ((3, 3, 1), 12)]:
        assert cycle_capacity(GraphParams(b, n, k)) == cap


def test_cycle_capacity_matches_oracle():
    # composite b = 4, 6 included; the oracle scans every word's shifts
    checked = 0
    for b in (2, 3, 4, 5, 6):
        n = 1
        while b ** n <= 4096:
            for k in range(1, 13):
                assert cycle_capacity(GraphParams(b, n, k)) == \
                    oracles.cycle_capacity(b, n, k), (b, n, k)
                checked += 1
            n += 1
    assert checked == 34 * 12


class _FBuilt(Exception):
    pass


def test_capacity_decides_at_root(monkeypatch):
    # the rotation-rule factor meets the capacity: no node is explored,
    # and F, which could not change the verdict, is never built
    def refuse(*args, **kwargs):
        raise _FBuilt
    monkeypatch.setattr(extremal, "feedback_vertex_set", refuse)
    for n, k in [(4, 2), (4, 4)]:
        res = search_extremal(GraphParams(2, n, k), SearchBudget(max_vertices=64))
        assert res.optimal and res.nodes_explored == 0
        assert res.best_count == closed_form_pcr(n, k, 2).value
        assert validate_factor(res.certificate).ok
    # |F| = 8 decides G(5, 1), where n // k = 32 and the capacity 9 do not
    with pytest.raises(_FBuilt):
        search_extremal(GraphParams(2, 5, 1))


def test_feedback_vertex_set_is_acyclic():
    from oracles import acyclic_without
    checked = 0
    for b in (2, 3, 4, 6):
        for n in range(1, 11):
            for k in range(1, 1024 // b ** n + 1):
                assert acyclic_without(b, n, k, feedback_vertex_set(
                    GraphParams(b, n, k))), (b, n, k)
                checked += 1
    assert checked > 1000


def test_feedback_vertex_set_bounds_exhaustive_maximum():
    for p, best in enumerable_maxima():
        assert len(feedback_vertex_set(p)) >= best, p


def test_feedback_vertex_set_sizes():
    # |F| is the optimum on the k = 1 instances below, one above it on
    # b=4 G(3, 1), and above the capacity (139) on b=2 G(8, 4)
    for (b, n, k), size in [((2, 5, 1), 8), ((2, 6, 1), 14), ((2, 7, 1), 20),
                            ((3, 3, 1), 11), ((3, 4, 1), 24), ((4, 3, 1), 25),
                            ((2, 8, 4), 144)]:
        assert len(feedback_vertex_set(GraphParams(b, n, k))) == size


def test_fvs_decides_at_root():
    for (b, n, k), best in [((2, 5, 1), 8), ((2, 6, 1), 14), ((3, 3, 1), 11)]:
        res = search_extremal(GraphParams(b, n, k), SearchBudget(max_vertices=64))
        assert res.optimal and res.nodes_explored == 0
        assert res.best_count == best
        assert validate_factor(res.certificate).ok


def test_certificate_at_least_rotation_count():
    for b, n, k in DIVISIBLE_INSTANCES:
        res = search_extremal(GraphParams(b, n, k))
        assert validate_factor(res.certificate).ok
        assert res.best_count >= closed_form_pcr(n, k, b).value


def test_exhaustive_tiny_graph():
    shapes = sorted(sorted(len(c) for c in f.cycles)
                    for f in exhaustive_factors(GraphParams(2, 1, 1)))
    assert shapes == [[1, 1], [2]]


def test_exhaustive_counts_match_permutation_oracle():
    from oracles import factor_count_by_permutations
    for b, n, k in [(2, 2, 1), (2, 1, 2), (2, 3, 1)]:
        p = GraphParams(b, n, k)
        factors = list(exhaustive_factors(p))
        assert all(validate_factor(f).ok for f in factors)
        assert len(factors) == factor_count_by_permutations(p)


def test_exhaustive_budget():
    with pytest.raises(BudgetExceeded):
        next(exhaustive_factors(GraphParams(2, 4, 2)))


def test_search_budget_vertices():
    with pytest.raises(BudgetExceeded):
        search_extremal(GraphParams(2, 6, 1))  # 64 > default 32


@pytest.mark.parametrize("field", ["max_vertices", "max_nodes", "time_cap"])
def test_search_budget_refuses_nan(field):
    # NaN fails every comparison, so a "< 1" test would let it through
    # and the cap would never be reached
    with pytest.raises(ValueError, match="must be positive"):
        SearchBudget(**{field: float("nan")})


def test_search_node_cap_returns_incumbent():
    # G(3, 2) takes a few hundred nodes even with every bound
    res = search_extremal(GraphParams(2, 3, 2), SearchBudget(max_nodes=40))
    assert not res.optimal
    assert res.nodes_explored <= 40
    assert validate_factor(res.certificate).ok
    assert res.best_count >= closed_form_pcr(3, 2, 2).value


def test_search_deadline_after_table_before_f(monkeypatch):
    # the time cap starts after the capacity and the successor table and
    # before F: the first clock read falls between them
    p = GraphParams(2, 3, 2)
    f = feedback_vertex_set(p)
    events = []

    def recording(name, func):
        def stub(q):
            events.append(name)
            return func(q)
        return stub

    class Clock:  # stands in for the time module; never past the deadline
        @staticmethod
        def monotonic():
            events.append("clock")
            return 0.0

    monkeypatch.setattr(extremal, "cycle_capacity",
                        recording("capacity", extremal.cycle_capacity))
    monkeypatch.setattr(extremal, "successor_table",
                        recording("table", extremal.successor_table))
    monkeypatch.setattr(extremal, "feedback_vertex_set",
                        recording("F", lambda q: f))
    monkeypatch.setattr(extremal, "time", Clock)
    res = search_extremal(p, SearchBudget(time_cap=1.0))
    assert res.optimal and res.nodes_explored == 246
    assert events == ["capacity", "table", "clock", "F"]


def test_search_deeper_than_recursion_limit():
    # one level per vertex: 1,024 levels, past Python's default limit
    res = search_extremal(GraphParams(2, 10, 1),
                          SearchBudget(max_vertices=1024, max_nodes=5000))
    assert not res.optimal
    assert res.nodes_explored <= 5000
    assert validate_factor(res.certificate).ok


def test_verify_extremality_instances():
    for b, n, k in [(2, 3, 3), (2, 4, 2), (3, 2, 2)]:
        report = verify_theorem1(GraphParams(b, n, k))
        assert report.ok and bool(report)
        assert report.search_count == report.formula_count
        assert validate_factor(report.certificate).ok


def test_verify_precondition():
    with pytest.raises(PreconditionViolated):
        verify_theorem1(GraphParams(2, 3, 2))


def test_verify_inconclusive_on_cap():
    # b=4 G(3, 1): |F| = 25 and capacity 26 against the optimum 24
    with pytest.raises(Inconclusive):
        verify_theorem1(GraphParams(4, 3, 1),
                        SearchBudget(max_vertices=64, max_nodes=10))


def test_random_factor_valid_and_seeded():
    p = GraphParams(2, 4, 2)
    a = random_factor(p, random.Random(123))
    b = random_factor(p, random.Random(123))
    c = random_factor(p, random.Random(124))
    assert validate_factor(a).ok
    assert a == b
    assert a != c
