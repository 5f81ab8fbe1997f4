"""Acceptance suite: one test per criterion, exact tolerances pinned.

The lemma criteria run the rows of `cli`'s check table, the ones
`verify` reports, at its scope or wider.  Each test prints one pass/fail
line (visible with pytest -s); the assertions themselves are the gate.
"""

import random
import time

from astute import cli
from astute.cli import THEOREM1_INSTANCES as EXTREMALITY_INSTANCES
from astute.counting import (closed_form_for, count_burnside_direct,
                             count_enumeration, count_theorem2)
from astute.extremal import search_extremal
from astute.graph import GraphParams, validate_factor
from astute.ideals import order_of_x
from astute.rules import icr, pcr, xor_rule
from astute.spectral import covering_check

from oracles import exhaustive_factors, lattice_rules, random_factor


def _report(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS", flush=True)


def test_c1_counterexample_reproduction():
    start = time.monotonic()
    assert cli.check_counterexample() == {
        "name": "counterexample-g32", "pass": True,
        "detail": "rotation-rule=4 extremal=6"}
    result = search_extremal(GraphParams(2, 3, 2))
    assert len(result.certificate.cycles) == 6
    assert validate_factor(result.certificate).ok
    assert time.monotonic() - start < 1.0
    _report(1, "counterexample-reproduction")


def test_c2_rotation_rule_extremality_desk_scale():
    start = time.monotonic()
    rows = [run() for suite, run in cli.check_table() if suite == "theorem1"]
    assert len(rows) == len(EXTREMALITY_INSTANCES)
    assert all(row["pass"] for row in rows), rows
    assert time.monotonic() - start < 600
    _report(2, "rotation-rule-extremality")


def test_c3_four_way_count_agreement():
    start = time.monotonic()
    for rule in lattice_rules():
        for k in range(1, 7):
            reference = count_enumeration(rule, k).value
            assert count_burnside_direct(rule, k).value == reference, (rule.spec(), k)
            assert count_theorem2(rule, k).value == reference, (rule.spec(), k)
            closed = closed_form_for(rule, k)
            if closed is not None:
                assert closed.value == reference, (rule.spec(), k)
    assert time.monotonic() - start < 120
    _report(3, "four-way-count-agreement")


def test_c4_fix_count_oracle():
    # every lattice rule, custom affine ones included, and i = 0 too
    assert cli.check_fix_count_ideal(lattice_rules(), range(25))["pass"]
    _report(4, "fix-count-ideal-oracle")


def test_c5_gcd_lemma_suite():
    rows = [cli.check_gcd_repunit, cli.check_gcd_xn_minus_one, cli.check_gcd_mixed]
    assert all(row()["pass"] for row in rows)
    _report(5, "gcd-lemma-suite")


def test_c6_spectral_lemma_suite():
    assert cli.check_rotation_scaling()["pass"]
    assert cli.check_arc_difference_real()["pass"]
    # cycle sums over the wider rule list (n >= 2: the identity needs a
    # root of unity of order > 1)
    rules = [r for r in lattice_rules() if r.n >= 2]
    rules += [pcr(n, b) for b in (2, 3) for n in (5, 6)]
    rules += [icr(n, 2) for n in (5, 6)] + [xor_rule(6)]
    assert cli.check_cycle_sum_zero(rules)["pass"]
    _report(6, "spectral-lemma-suite")


def test_c7_covering_property():
    # exhaustive at 4 and 8 vertices
    for b, n in [(2, 2), (2, 3)]:
        for factor in exhaustive_factors(GraphParams(b, n, 1)):
            assert covering_check(factor)
    # larger instances: the search certificate always passes; every
    # factor passes only in the k | n regime the covering argument is
    # about (for strict n | k one cycle can collect several marked
    # vertices and leave another bare)
    rng = random.Random(2024)
    larger = [t for t in EXTREMALITY_INSTANCES if t not in ((2, 2, 1), (2, 3, 1))]
    for b, n, k in larger:
        p = GraphParams(b, n, k)
        assert covering_check(search_extremal(p).certificate)
        if n % k == 0:
            for _ in range(100):
                assert covering_check(random_factor(p, rng))
    _report(7, "covering-property")


def test_c8_omega_multiple_invariance():
    for rule in lattice_rules():
        base_omega = order_of_x(rule.char_poly())
        for k in range(1, 7):
            base = count_theorem2(rule, k).value
            for m in (2, 3, 4):
                got = count_theorem2(rule, k, omega=m * base_omega).value
                assert got == base, (rule.spec(), k, m)
    _report(8, "omega-multiple-invariance")
