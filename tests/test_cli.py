import json
import os
import signal
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from math import gcd

import pytest

import astute.counting
import astute.ideals
import astute.rules
from astute import cli, extremal, spectral
from astute.cli import main
from astute.errors import BudgetExceeded
from astute.algebra import poly_gcd
from astute.graph import factor_from_doc, factor_json, validate_factor

from oracles import all_words

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_text(capsys):
    code, out, _ = run(capsys, "factor", "--rule", "pcr", "--b", "2", "--n", "3",
                       "--k", "2", "--format", "text")
    assert code == 0
    assert "4 cycles" in out
    assert "000@0 -> 000@1" in out


def test_factor_json_roundtrip(capsys):
    code, out, _ = run(capsys, "factor", "--rule", "pcr", "--b", "2", "--n", "3",
                       "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "astute/1"
    assert doc["count"] == 4 and doc["rule"] == "pcr"
    assert validate_factor(factor_from_doc(doc)).ok
    f = astute.rules.enumerate_factor(astute.rules.pcr(3, 2), 2)
    assert out == factor_json(f, extra={"rule": "pcr"}) + "\n"
    assert factor_from_doc(json.loads(factor_json(f))) == f


def test_factor_custom_affine(capsys):
    code, out, _ = run(capsys, "factor", "--rule", "affine:1;1,0,1", "--b", "2",
                       "--n", "2", "--format", "text")
    assert code == 0
    assert "1 cycles" in out


def test_factor_deterministic(capsys):
    args = ("factor", "--rule", "icr", "--b", "3", "--n", "2", "--k", "2",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_xor_requires_binary(capsys):
    code, _, err = run(capsys, "factor", "--rule", "xor", "--b", "3", "--n", "3")
    assert code == 2
    assert "xor requires b=2" in err


def test_degenerate_sizes_rejected(capsys):
    code, _, err = run(capsys, "count", "--rule", "pcr", "--b", "2", "--n", "0")
    assert code == 2 and "n and k must be >= 1" in err
    code, _, err = run(capsys, "count", "--rule", "pcr", "--b", "2", "--n", "3",
                       "--k", "0")
    assert code == 2


@pytest.mark.parametrize("k", ["0", "-3"])
@pytest.mark.parametrize("method", ["all", "enum", "burnside", "theorem2", "closed"])
def test_count_refuses_k_below_one(capsys, method, k):
    code, out, err = run(capsys, "count", "--rule", "pcr", "--b", "2", "--n", "3",
                         "--k", k, "--method", method)
    assert code == 2 and out == "" and "invalid arguments" in err


def test_factor_budget_exit(capsys):
    code, _, err = run(capsys, "factor", "--rule", "pcr", "--b", "2", "--n", "23")
    assert code == 3
    assert "budget" in err


def test_count_all_agrees(capsys):
    code, out, _ = run(capsys, "count", "--rule", "pcr", "--b", "2", "--n", "3",
                       "--k", "2", "--method", "all")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 4
    assert all(l.split()[1] == "4" for l in lines)


def test_count_single_methods(capsys):
    code, out, _ = run(capsys, "count", "--rule", "icr", "--b", "2", "--n", "2",
                       "--method", "burnside")
    assert code == 0 and out.split()[1] == "1"
    code, out, _ = run(capsys, "count", "--rule", "xor", "--b", "2", "--n", "3",
                       "--method", "closed")
    assert code == 0 and out.split()[1] == "4"


def test_count_all_rows_match_each_route_alone(capsys):
    # --method all shares one (omega, ell) pair and one word permutation
    # between the routes and skips Theorem 2's check of X^omega; each of
    # its rows must still read as the route's own run does
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    alone = {"enumeration": "enum", "burnside_direct": "burnside",
             "theorem2": "theorem2", "closed_form": "closed"}

    @st.composite
    def specs(draw):
        """(spec, b, n): a random affine rule with unit ends over b, or
        pcr, icr or xor, with b^n <= 729."""
        b = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]))
        n = draw(st.integers(1, max(n for n in range(1, 10) if b ** n <= 729)))
        kind = draw(st.sampled_from(["affine", "pcr", "icr"] + ["xor"] * (b == 2)))
        if kind != "affine":
            return kind, b, n
        units = st.sampled_from([u for u in range(1, b) if gcd(u, b) == 1])
        lambdas = ([draw(units)] + draw(st.lists(st.integers(0, b - 1), min_size=n - 1,
                                                 max_size=n - 1)) + [draw(units)])
        c = draw(st.integers(0, b - 1))
        return f"affine:{c};" + ",".join(map(str, lambdas)), b, n

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(rule=specs(), k=st.integers(1, 6))
    def rows_match(rule, k):
        spec, b, n = rule
        flags = ["count", "--rule", spec, "--b", str(b), "--n", str(n), "--k", str(k),
                 "--method"]
        code, out, err = run(capsys, *flags, "all")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 3 + (spec in ("pcr", "icr", "xor"))
        for row in rows:
            code, out, err = run(capsys, *flags, alone[row.split()[0]])
            assert (code, err) == (0, "")
            assert [line.split() for line in out.splitlines()] == [row.split()]

    rows_match()


def test_count_pinned_affine_rule_finishes(capsys):
    # omega = 124 for this rule, so a route that builds d x d lattices
    # stalls here; the alarm turns a stall into a failure, not a hang
    with within(10):
        code, out, _ = run(capsys, "count", "--rule", "affine:4;4,3,1,3", "--b", "5",
                           "--n", "3", "--method", "all")
    assert code == 0
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["enumeration", "2"], ["burnside_direct", "2"], ["theorem2", "2"]]


# x^31 + x^3 + 1 over Z/2, a primitive trinomial: the order of x is 2^31 - 1
X31_RULE = "affine:1;" + ",".join(
    "1" if i in (0, 28, 31) else "0" for i in range(32))


@contextmanager
def within(seconds):
    """Fail the test instead of hanging the suite if the block overruns."""
    def stop(signum, frame):
        raise TimeoutError(f"command did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# b=2 rules whose Burnside period M is large: (rule, n, M, count)
LONG_PERIOD_RULES = [
    ("affine:0;1,0,0,0,0,1,0,0,0,0,0,0,0,0,1", 14, 5461, "4"),
    ("affine:1;1,0,0,0,0,0,0,0,0,0,0,0,1,0,1,1,1", 16, 16383, "6"),
]

# under the estimate of both rules above (361095 and 2424909 steps)
LOW_BURNSIDE_BUDGET = 1 << 18


def test_count_burnside_budget_refusal(capsys, monkeypatch):
    # M = 16383 powers of 65536 words: Burnside must refuse before its
    # power loop instead of running over its budget
    monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", LOW_BURNSIDE_BUDGET)
    with within(10):
        code, out, err = run(capsys, "count", "--rule",
                             "affine:1;1,0,0,0,0,0,0,0,0,0,0,0,1,0,1,1,1",
                             "--b", "2", "--n", "16", "--method", "burnside")
    assert code == 3 and out == ""
    assert "Burnside needs about" in err and "M=16383" in err


def test_count_burnside_word_budget_before_order(capsys):
    # x^31 + x^3 + 1 is primitive, so the order of x is 2^31 - 1: the word
    # budget must refuse before anything scans for that order
    with within(10):
        code, out, err = run(capsys, "count", "--rule", X31_RULE, "--b", "2",
                             "--n", "31", "--method", "burnside")
    assert code == 3 and out == ""
    assert "2147483648 words exceeds budget" in err


def test_count_all_word_budget_before_word_permutation(capsys, monkeypatch):
    # 2^23 words: enumeration and Burnside are skipped by the word budget
    # before any b^n-sized list, and Theorem 2 and the closed form
    # cross-check
    def refuse(rule):
        raise AssertionError("word permutation built over the word budget")

    monkeypatch.setattr(astute.rules, "word_permutation", refuse)
    code, out, err = run(capsys, "count", "--rule", "pcr", "--b", "2", "--n", "23",
                         "--method", "all")
    assert code == 0
    assert [line.split()[:2] for line in out.splitlines()] == \
        [["theorem2", "364724"], ["closed_form", "364724"]]
    assert err == ("skipped enumeration: 8388608 words exceeds budget 4194304\n"
                   "skipped burnside_direct: 8388608 words exceeds budget 4194304\n")


def test_count_all_past_vertex_budget_runs_every_route(capsys):
    # 2^16 * 999 vertices but 2^16 words: the enumeration walks the words,
    # so all four routes cross-check; a custom rule past the word budget
    # has only Theorem 2 left
    code, out, err = run(capsys, "count", "--rule", "icr", "--b", "2", "--n", "16",
                         "--k", "999", "--method", "all")
    assert (code, err) == (0, "")
    assert [line.split()[1] for line in out.splitlines()] == ["2048"] * 4
    code, out, err = run(capsys, "count", "--rule", "icr", "--b", "2", "--n", "16",
                         "--k", "999", "--method", "enum")
    assert (code, out, err) == (0, "enumeration  2048\n", "")
    code, out, err = run(capsys, "count", "--rule", "affine:0;1" + ",0" * 22 + ",1",
                         "--b", "2", "--n", "23", "--method", "all")
    assert code == 3
    assert [line.split()[:2] for line in out.splitlines()] == [["theorem2", "364724"]]
    assert err.splitlines()[-1] == "fewer than two counting methods ran"


def test_count_burnside_alone_keeps_its_word_budget(capsys):
    # 3 * 2^21 vertices are over the vertex budget, 2^21 words are not
    with within(30):
        code, out, err = run(capsys, "count", "--rule", "pcr", "--b", "2", "--n", "21",
                             "--k", "3", "--method", "burnside")
    assert (code, err) == (0, "")
    assert out == "burnside_direct  299600  M=21 ell=1 omega=21\n"


def test_count_theorem2_order_scan_budget(capsys):
    # Theorem 2 has no word budget, so the order scan's own step budget
    # must refuse x^31 + x^3 + 1 instead of scanning 2^31 - 1 steps
    with within(15):
        code, out, err = run(capsys, "count", "--rule", X31_RULE, "--b", "2",
                             "--n", "31", "--method", "theorem2")
    assert code == 3 and out == ""
    assert "order of X exceeds 262144" in err


def test_count_burnside_order_scan_budget(capsys, monkeypatch):
    # the b=2 n=20 primitive trinomial passes the word budget; its order
    # 2^20 - 1 is over the (lowered) scan budget, so Burnside refuses
    monkeypatch.setattr(astute.ideals, "ORDER_MAX_STEPS", 1000)
    with within(10):
        code, out, err = run(capsys, "count", "--rule",
                             "affine:0;1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,1",
                             "--b", "2", "--n", "20", "--method", "burnside")
    assert code == 3 and out == ""
    assert "order of X exceeds 1000" in err


def test_count_all_keeps_enumeration_when_order_scan_refuses(capsys, monkeypatch):
    # oracles.rule_orbit_count gives 2 for this rule (in about 10 s, too
    # slow to repeat here): c = 0 fixes the zero word and the primitive
    # trinomial cycles the other 2^20 - 1 words
    monkeypatch.setattr(astute.ideals, "ORDER_MAX_STEPS", 1000)
    with within(10):
        code, out, err = run(capsys, "count", "--rule",
                             "affine:0;1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,1",
                             "--b", "2", "--n", "20", "--method", "all")
    assert code == 3
    assert [line.split() for line in out.splitlines()] == [["enumeration", "2"]]
    assert err.splitlines() == [
        "skipped burnside_direct, theorem2: order of X exceeds 1000, "
        "the step budget of its scan",
        "fewer than two counting methods ran"]


def test_count_all_order_refusal_keeps_closed_form(capsys, monkeypatch):
    # the scan refuses, enumeration and the closed form still cross-check
    monkeypatch.setattr(astute.ideals, "ORDER_MAX_STEPS", 1)
    code, out, err = run(capsys, "count", "--rule", "pcr", "--b", "2",
                         "--n", "6", "--method", "all")
    assert code == 0
    rows = [line.split()[:2] for line in out.splitlines()]
    assert [r[0] for r in rows] == ["enumeration", "closed_form"]
    assert rows[0][1] == rows[1][1] == "14"
    assert err.startswith("skipped burnside_direct, theorem2: order of X exceeds 1,")


@pytest.mark.parametrize("rule, n, m, value", LONG_PERIOD_RULES)
def test_count_all_skips_burnside_over_budget(capsys, monkeypatch, rule, n, m, value):
    # Burnside refuses, enumeration and Theorem 2 still agree
    monkeypatch.setattr(astute.counting, "BURNSIDE_MAX_STEPS", LOW_BURNSIDE_BUDGET)
    with within(10):
        code, out, err = run(capsys, "count", "--rule", rule, "--b", "2",
                             "--n", str(n), "--method", "all")
    assert code == 0
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["enumeration", value], ["theorem2", value]]
    assert err.startswith("skipped burnside_direct: Burnside needs about")
    assert f"M={m}," in err and err.count("\n") == 1


@pytest.mark.parametrize("rule, n, m, value", LONG_PERIOD_RULES)
def test_count_all_long_period_rules_answer(capsys, rule, n, m, value):
    # at the default budget Burnside answers: a full count only where
    # k*e >= n, and the period decided on the zero and unit words
    with within(10):
        code, out, err = run(capsys, "count", "--rule", rule, "--b", "2",
                             "--n", str(n), "--method", "all")
    assert code == 0 and err == ""
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["enumeration", value], ["burnside_direct", value], ["theorem2", value]]
    assert f"M={m} " in out


def test_count_all_icr_b6_n8_runs_burnside(capsys):
    # Burnside used to refuse this one (33592320 estimated steps, just over
    # BURNSIDE_MAX_STEPS); counting only the words that can be fixed brings
    # it to 21883236
    with within(30):
        code, out, err = run(capsys, "count", "--rule", "icr", "--b", "6", "--n", "8",
                             "--method", "all")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "burnside_direct  34992  M=48 ell=48 omega=8"
    assert {line.split()[1] for line in out.splitlines()} == {"34992"}


def test_count_burnside_icr_b12_n6_answers(capsys):
    # Burnside used to refuse this one (38817806 estimated steps): P = 72
    # and omega = 6, so rule^6, rule^12, rule^18, rule^24 and rule^36 are
    # translations, decided on the 7 zero and unit words instead of counted
    # on lists of 12^6 words
    with within(30):
        code, out, err = run(capsys, "count", "--rule", "icr", "--b", "12", "--n", "6",
                             "--k", "6", "--method", "burnside")
    assert (code, err) == (0, "")
    assert out == "burnside_direct  248832  M=72 ell=72 omega=6\n"
    assert astute.counting.closed_form_icr(6, 6, 12).value == 248832


def test_count_closed_unavailable_for_custom(capsys):
    code, _, err = run(capsys, "count", "--rule", "affine:0;1,1,1", "--b", "2",
                       "--n", "2", "--method", "closed")
    assert code == 2
    assert "closed form" in err


def test_extremal_json(capsys, tmp_path):
    dot = tmp_path / "cert.dot"
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "extremal", "--b", "2", "--n", "3", "--k", "2",
                       "--emit-dot", str(dot), "--emit-json", str(cert))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "astute/1"
    assert doc["count"] == 6 and doc["optimal"] is True
    assert {"b", "n", "k", "count", "cycles", "optimal"} <= doc.keys()
    assert json.loads(cert.read_text()) == doc
    assert "color=blue" in dot.read_text()
    assert validate_factor(factor_from_doc(doc)).ok


def test_extremal_budget_exit(capsys):
    code, _, err = run(capsys, "extremal", "--b", "2", "--n", "6")
    assert code == 3
    assert "exceeds search budget" in err


def test_extremal_env_budget(capsys, monkeypatch):
    # the environment sets no budget: only --budget-nodes stops the search
    monkeypatch.setenv("ASTUTE_MAX_NODES", "25")
    code, out, _ = run(capsys, "extremal", "--b", "2", "--n", "3", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6 and doc["optimal"] is True and doc["nodes"] == 246
    code, out, _ = run(capsys, "extremal", "--b", "2", "--n", "3", "--k", "2",
                       "--budget-nodes", "25")
    assert code == 3
    assert json.loads(out)["optimal"] is False


def test_extremal_deep_search_exits_on_budget(capsys):
    # 1,024 vertices, one search level each, stopped by the node budget
    deep = ["--b", "2", "--n", "10", "--k", "1", "--max-vertices", "1024",
            "--budget-nodes", "5000"]
    code, out, _ = run(capsys, "extremal", *deep)
    assert code == 3
    doc = json.loads(out)
    assert doc["optimal"] is False and doc["nodes"] == 5000
    assert validate_factor(factor_from_doc(doc)).ok
    code, _, err = run(capsys, "verify", "--suite", "theorem1", *deep)
    assert code == 3
    assert "after 5000 nodes" in err


def test_extremal_time_cap(capsys):
    code, out, _ = run(capsys, "extremal", "--b", "2", "--n", "3", "--k", "4",
                       "--max-vertices", "48", "--time-cap", "1e-6")
    assert code == 3
    doc = json.loads(out)
    assert doc["optimal"] is False
    assert validate_factor(factor_from_doc(doc)).ok
    assert doc["nodes"] < 21015  # a full run explores 21,015 nodes


def test_extremal_time_cap_nan(capsys):
    # NaN is no positive cap: a deadline of monotonic() + nan is never passed
    code, out, err = run(capsys, "extremal", "--b", "2", "--n", "3", "--k", "2",
                         "--time-cap", "nan")
    assert code == 2 and out == ""
    assert err == "invalid arguments: time_cap must be positive\n"


def test_verify_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counterexample")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"][0]["detail"] == "rotation-rule=4 extremal=6"


def test_verify_theorem1_single_instance(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--b", "2",
                       "--n", "3", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 1
    assert doc["checks"][0]["name"] == "pcr-extremal b=2 n=3 k=3"


def test_verify_theorem1_budget_exit(capsys):
    code, out, err = run(capsys, "verify", "--suite", "theorem1", "--b", "4",
                         "--n", "3", "--k", "1", "--max-vertices", "64",
                         "--budget-nodes", "10")
    assert code == 3
    assert out == "" and "budget" in err


def test_verify_counterexample_budget_exit(capsys):
    code, out, err = run(capsys, "verify", "--suite", "counterexample",
                         "--budget-nodes", "5")
    assert code == 3
    assert out == "" and "budget" in err


def test_verify_precondition_exit(capsys):
    code, _, err = run(capsys, "verify", "--suite", "theorem1", "--b", "2",
                       "--n", "3", "--k", "2")
    assert code == 2
    assert "k | n or n | k" in err


def test_verify_partial_instance_refused(capsys):
    code, out, err = run(capsys, "verify", "--suite", "theorem1", "--b", "2",
                         "--n", "3")
    assert code == 2
    assert out == "" and "--k" in err


def test_verify_instance_refused_by_fixed_suites(capsys):
    for suite in ("lemmas", "counterexample"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--b", "2",
                             "--n", "4", "--k", "1")
        assert code == 2
        assert out == "" and "takes no --b/--n/--k" in err


def test_verify_max_vertices(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--b", "2",
                       "--n", "4", "--k", "2", "--max-vertices", "32")
    assert code == 0 and json.loads(out)["pass"] is True
    # 64 vertices pass the vertex budget and reach the node budget
    code, out, err = run(capsys, "verify", "--suite", "theorem1", "--b", "4",
                         "--n", "3", "--k", "1", "--max-vertices", "64",
                         "--budget-nodes", "10")
    assert code == 3
    assert out == "" and "search hit its budget" in err
    assert "exceeds search budget" not in err


def test_verify_csv(capsys, tmp_path):
    path = tmp_path / "orbits.csv"
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--b", "2",
                       "--n", "3", "--k", "1", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "orbit,word,phase,re,im,distinguished"
    assert len(lines) == 9  # 8 vertices + header
    # with --csv the flags describe the dump, not a sweep restriction
    assert len(json.loads(out)["checks"]) == len(
        json.loads(run(capsys, "verify", "--suite", "theorem1")[1])["checks"])


def _negated(fn):
    return lambda *args, **kwargs: not fn(*args, **kwargs)


# (rows, module, subject, a wrong version of the subject): each row of the
# check table, with its subject wrong, must report pass: false
WRONG_SUBJECTS = [
    ("gcd-repunit gcd-xn-minus-one gcd-mixed", cli, "poly_gcd",
     lambda f: lambda *args: [0] + f(*args)),
    ("rotation-scaling", spectral, "rotation_identity_holds", _negated),
    ("cycle-sum-zero", spectral, "cycle_sum_check", _negated),
    # the rotation, cycle-sum and arc rows are all decided by this one test
    ("rotation-scaling cycle-sum-zero arc-difference-real", spectral,
     "evaluates_to_zero_exact", _negated),
    ("fix-count-ideal", cli, "fix_count_bruteforce",
     lambda f: lambda *args: f(*args) + 1),
    ("pcr-extremal", extremal, "closed_form_pcr",
     lambda f: lambda *args: replace(f(*args), value=f(*args).value + 1)),
    ("counterexample-g32", cli, "search_extremal",
     lambda f: lambda *args: replace(f(*args), best_count=f(*args).best_count + 1)),
]


@pytest.mark.parametrize("names,module,subject,wrong", WRONG_SUBJECTS,
                         ids=[w[2] for w in WRONG_SUBJECTS])
def test_no_check_row_passes_vacuously(monkeypatch, names, module, subject, wrong):
    monkeypatch.setattr(module, subject, wrong(getattr(module, subject)))
    rows = [run() for _, run in cli.check_table()]
    hit = [row for row in rows if row["name"].split()[0] in names.split()]
    assert {row["name"].split()[0] for row in hit} == set(names.split())
    assert not any(row["pass"] for row in hit), hit


def test_arc_row_decides_every_distinct_gap(monkeypatch):
    # the row decides each distinct gap once, so it must still meet every
    # one: the gaps are exactly (d, 0, ..., 0) for -b < d < b
    for b in (2, 3):
        for n in range(1, 7):
            gaps = {tuple(a - c for a, c in zip(s, t[-1:] + t[:-1]))
                    for s in all_words(n, b) for t in (s[1:] + (x,) for x in range(b))}
            assert gaps == {(d,) + (0,) * (n - 1) for d in range(1 - b, b)}, (b, n)
    # a zero test wrong on one single nonzero gap, any one, fails the row
    exact = spectral.evaluates_to_zero_exact
    for n in range(1, 7):
        for d in (-2, -1, 1, 2):
            wrong = (d,) + (0,) * (n - 1)
            monkeypatch.setattr(spectral, "evaluates_to_zero_exact", lambda coeffs, m: (
                exact(coeffs, m) != (tuple(coeffs) == wrong)))
            assert not cli.check_arc_difference_real()["pass"], wrong


@pytest.mark.parametrize("row,degree", [(cli.check_gcd_repunit, lambda f: len(f)),
                                        (cli.check_gcd_xn_minus_one, lambda f: len(f) - 1)])
def test_symmetric_gcd_rows_decide_every_unordered_pair(monkeypatch, row, degree):
    # U_n has n coefficients, X^n - 1 has n + 1: each {n, m} with
    # n, m <= 12 is decided once over each b in 2, 3, 5
    decided = []
    monkeypatch.setattr(cli, "poly_gcd", lambda f, g, b: (
        decided.append((b, frozenset({degree(f), degree(g)}))) or poly_gcd(f, g, b)))
    assert row()["pass"]
    assert Counter(decided) == Counter(
        {(b, frozenset({n, m})) for b in (2, 3, 5) for n in range(1, 13)
         for m in range(1, 13)})


def counted(monkeypatch, module, name) -> list:
    """The first arguments of every call of module.name from now on."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda arg, *rest: calls.append(arg) or fn(arg, *rest))
    return calls


def test_fix_count_row_builds_one_permutation_per_rule(monkeypatch):
    # the 24 powers of a rule are counted on its one permutation
    built = counted(monkeypatch, astute.rules, "word_permutation")
    assert cli.check_fix_count_ideal()["pass"]
    assert built == cli.lemma_rules()
    # and builds none past the word budget
    built.clear()
    monkeypatch.setattr(astute.rules, "MAX_VERTICES", 8)
    with pytest.raises(BudgetExceeded):
        cli.check_fix_count_ideal([astute.rules.pcr(4, 2)])
    assert built == []


def test_verify_csv_needs_instance(capsys):
    code, _, err = run(capsys, "verify", "--suite", "theorem1", "--csv", "/tmp/x.csv")
    assert code == 2
    assert "--csv" in err


@pytest.mark.parametrize("argv", [
    ["factor", "--rule", "pcr", "--b", "2", "--n", "3", "--out"],
    ["export", "--b", "2", "--n", "3", "--out"],
    ["extremal", "--b", "2", "--n", "3", "--k", "2", "--emit-json"],
    ["extremal", "--b", "2", "--n", "3", "--k", "2", "--emit-dot"],
    ["verify", "--suite", "theorem1", "--b", "2", "--n", "3", "--k", "1", "--csv"],
])
def test_unwritable_output_path(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err == f"invalid arguments: cannot write {path}: No such file or directory\n"
    # a directory is no more writable than a missing parent
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"invalid arguments: cannot write {tmp_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["factor", "--rule", "pcr", "--b", "37", "--n", "1"],
    ["factor", "--rule", "icr", "--b", "37", "--n", "1", "--format", "json"],
    ["extremal", "--b", "37", "--n", "1", "--max-vertices", "64"],
    ["export", "--b", "37", "--n", "1", "--rule", "pcr"],
    ["export", "--b", "37", "--n", "1"],
    ["verify", "--suite", "all", "--b", "37", "--n", "1", "--k", "1", "--csv"],
])
def test_unrenderable_alphabet_refused_before_work(capsys, monkeypatch, tmp_path, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the b > 36 refusal")

    for name in ("enumerate_factor", "search_extremal", "to_dot", "check_table"):
        monkeypatch.setattr(cli, name, refuse)
    path = tmp_path / "table.csv"
    code, out, err = run(capsys, *argv, *([str(path)] if argv[-1] == "--csv" else []))
    assert (code, out) == (2, "")
    assert err == "invalid arguments: word rendering supports symbols < 36 only\n"
    assert not path.exists()


@pytest.mark.parametrize("b,n,k,message", [
    (1, 1, 1, "alphabet size b must be >= 2"),
    (2, 0, 1, "n and k must be >= 1"),
    (2, 1, 0, "n and k must be >= 1"),
])
def test_verify_csv_instance_refused_before_checks(capsys, monkeypatch, tmp_path,
                                                    b, n, k, message):
    def refuse(*args, **kwargs):
        raise AssertionError("checks ran before the --csv instance was refused")

    monkeypatch.setattr(cli, "check_table", refuse)
    path = tmp_path / "t.csv"
    code, out, err = run(capsys, "verify", "--b", str(b), "--n", str(n), "--k", str(k),
                         "--csv", str(path))
    assert (code, out) == (2, "")
    assert err == f"invalid arguments: {message}\n"
    assert not path.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--b", "1", "alphabet size b must be >= 2"),
    ("--n", "0", "n and k must be >= 1"),
    ("--k", "0", "n and k must be >= 1"),
])
@pytest.mark.parametrize("command", [["count", "--rule", "pcr"],
                                     ["count", "--rule", "affine:0;1"],
                                     ["factor", "--rule", "pcr"], ["extremal"]],
                         ids=["count-pcr", "count-affine", "factor", "extremal"])
def test_bad_instance_flag_reads_alike(capsys, command, flag, value, message):
    # the instance flags are checked before any rule is built, so a bad
    # one reads the same under every subcommand
    flags = {"--b": "2", "--n": "1", "--k": "1", flag: value}
    code, out, err = run(capsys, *command, *[x for pair in flags.items() for x in pair])
    assert (code, out, err) == (2, "", f"invalid arguments: {message}\n")


def test_no_derived_value_outlives_one_command(capsys, monkeypatch):
    # a rule keeps its permutation only while it lives, and each verify
    # builds its own lemma rules: the second run builds every permutation
    # the first did, one per rule for the fix-count row and one per k for
    # each factor of the cycle-sum row (n >= 2)
    built = counted(monkeypatch, astute.rules, "word_permutation")
    want = Counter()
    for rule in cli.lemma_rules():
        want[rule] += 1 + 4 * (rule.n >= 2)
    for _ in range(2):
        built.clear()
        assert main(["verify", "--suite", "lemmas"]) == 0
        assert Counter(built) == want
    capsys.readouterr()


@pytest.mark.parametrize("argv,code", [
    (["--rule", "icr", "--b", "2", "--n", "10", "--k", "3"], 0),
    (["--rule", "affine:1;1,1,3,1", "--b", "6", "--n", "3", "--k", "5"], 0),
    # the order scan refuses this primitive trinomial, so Burnside and
    # Theorem 2 are skipped: one scan, not one per route
    (["--rule", "affine:0;1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,1",
      "--b", "2", "--n", "20"], 3),
], ids=["icr", "composite-b", "refused-order-scan"])
def test_count_all_builds_one_permutation_and_one_order_scan(capsys, monkeypatch,
                                                             argv, code):
    built = counted(monkeypatch, astute.rules, "word_permutation")
    scans = counted(monkeypatch, astute.ideals, "order_of_x")
    with within(20):
        assert main(["count", *argv, "--method", "all"]) == code
    assert (len(built), len(scans)) == (1, 1)
    capsys.readouterr()


def test_count_accepts_unrenderable_alphabet(capsys):
    # count prints no words, so b > 36 is fine
    code, out, err = run(capsys, "count", "--rule", "pcr", "--b", "37", "--n", "1",
                         "--method", "all")
    assert (code, err) == (0, "")
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["enumeration", "37"], ["burnside_direct", "37"], ["theorem2", "37"],
        ["closed_form", "37"]]


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "--b", "2", "--n", "2", "--rule", "pcr")
    assert code == 0
    assert out.startswith("digraph astute {")
    assert "[color=magenta]" in out
    code, out2, _ = run(capsys, "export", "--b", "2", "--n", "2")
    assert code == 0
    assert "color=" not in out2


def test_export_checks_vertex_budget_before_work(capsys, monkeypatch):
    # with or without --rule, past the budget export refuses before it
    # builds a label or an arc
    monkeypatch.setattr(astute.rules, "MAX_VERTICES", 8)
    assert run(capsys, "export", "--b", "2", "--n", "3")[0] == 0  # at the budget

    def refuse(*args, **kwargs):
        raise AssertionError("to_dot ran past the vertex budget")

    monkeypatch.setattr(cli, "to_dot", refuse)
    for rule in ([], ["--rule", "pcr"]):
        code, out, err = run(capsys, "export", "--b", "2", "--n", "5", *rule)
        assert (code, out) == (3, ""), rule
        assert err == "budget exceeded: 32 vertices exceeds budget 8\n", rule


PARSE_CASES = [
    ["factor", "--rule", "pcr", "--b", "2", "--n", "3", "--format", "json"],
    ["count", "--rule", "affine:1;1,2,2", "--b=3", "--n", "2", "--k", "2"],
    ["extremal", "--b", "2", "--n", "3", "--k", "2", "--time-cap", "1.5",
     "--budget-nodes", "9", "--emit-json", "x.json"],
    ["verify"],
    ["verify", "--suite", "theorem1", "--b", "2", "--n", "3", "--k", "1", "--csv", "t.csv"],
    ["export", "--b", "2", "--n", "2", "--rule", "pcr", "--color", "blue"],
    ["count", "--rule", "pcr", "--b", "x", "--n", "3"],               # a bad int
    ["factor", "--rule", "pcr"],                                      # a missing flag
    ["extremal", "--b", "2", "--n", "3", "--k", "2", "--workers", "2"],
    ["count", "--rule", "pcr", "--b", "2", "--n", "3", "--meth", "enum"],
    ["count", "-h"],
    ["count", "--b", "2", "-h"],
    [],
    ["-h"],
    ["frobnicate", "--b", "2"],                                       # no such command
]


def parse_outcome(capsys, parse, argv):
    """The namespace parse gives argv, or its exit code where it stops,
    with what it printed."""
    try:
        result = parse(list(argv))
    except SystemExit as e:
        result = e.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES)
def test_one_pass_parse_matches_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the width
    want = parse_outcome(capsys, cli._parser().parse_args, argv)
    got = parse_outcome(capsys, cli._parse, argv)
    assert got == want
    seen = []
    for name in ("cmd_factor", "cmd_count", "cmd_extremal", "cmd_verify", "cmd_export"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    code, out, err = parse_outcome(capsys, main, argv)
    if seen:
        # main runs the command on the namespace parse_args gives
        assert (seen, code, out, err) == ([want[0]], 0, "", "")
    elif argv:
        assert (code, out, err) == want
    else:
        # a bare call prints the help and exits 2
        assert code == 2 and out.startswith("usage: astute") and err == ""


def test_usage_error_exit_code(capsys):
    import pytest
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--rule", "pcr"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["extremal", "--b", "2", "--n", "3", "--k", "2", "--workers", "2"])
    assert exc.value.code == 2


COUNT_ALL = ["count", "--rule", "affine:1;1,2,2", "--b", "3", "--n", "2", "--k", "2",
             "--method", "all"]


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch):
    # one process runs every call on the parser its first call built;
    # each must print and exit as `python -m astute.cli` does alone
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the width
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in ([], ["count", "--b", "x"], COUNT_ALL, ["verify", "--suite", "lemmas"],
                 ["count", "--rule", "pcr", "--b", "2", "--n", "4"]):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "astute.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_command_replaced_after_first_call_runs(capsys, monkeypatch):
    assert run(capsys, *COUNT_ALL)[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_count", lambda args: calls.append(args.k) or 17)
    assert run(capsys, *COUNT_ALL)[0] == 17
    assert calls == [2]
