import json
from itertools import product

import pytest

from astute.graph import (Factor, GraphParams, Vertex, cycle_lengths, factor_from_doc,
                          factor_json, pack, parse_word, successor_table,
                          to_dot, unpack, validate_factor, vertex_names,
                          word_str)
from astute.rules import enumerate_factor, pcr

from oracles import (_vertex_successors, debruijn_arcs_direct, factor_document,
                     permutation_cycles)


def successors(v, p):
    """Out-neighbours of a vertex through its successor table row."""
    return [unpack(s, p) for s in successor_table(p)[pack(v, p)]]


def is_arc(u, v, p):
    return pack(v, p) in successor_table(p)[pack(u, p)]


def test_successors_examples():
    p = GraphParams(2, 3, 2)
    assert successors(Vertex((0, 1, 0), 0), p) == [
        Vertex((1, 0, 0), 1), Vertex((1, 0, 1), 1)]
    p1 = GraphParams(2, 1, 1)
    assert successors(Vertex((0,), 0), p1) == [Vertex((0,), 0), Vertex((1,), 0)]
    p3 = GraphParams(3, 2, 3)
    assert successors(Vertex((1, 2), 2), p3) == [
        Vertex((2, 0), 0), Vertex((2, 1), 0), Vertex((2, 2), 0)]


def test_successor_table_rows():
    for b in (2, 3, 4, 6):
        for n in range(1, 5):
            for k in range(1, 5):
                p = GraphParams(b, n, k)
                table = successor_table(p)
                assert len(table) == p.num_vertices
                want = _vertex_successors(b, n, k)
                for c, row in enumerate(table):
                    assert list(row) == want[c], (p, c)


def test_is_arc_examples():
    p = GraphParams(2, 3, 2)
    assert is_arc(Vertex((0, 1, 0), 0), Vertex((1, 0, 0), 1), p)
    assert not is_arc(Vertex((0, 1, 0), 0), Vertex((1, 0, 0), 0), p)
    assert not is_arc(Vertex((0, 1, 0), 0), Vertex((0, 0, 1), 1), p)


def test_degree_regularity():
    for p in (GraphParams(2, 3, 2), GraphParams(3, 2, 1), GraphParams(2, 1, 3)):
        indeg = {c: 0 for c in range(p.num_vertices)}
        table = successor_table(p)
        for c in range(p.num_vertices):
            succs = table[c]
            assert len(succs) == p.b
            assert len(set(succs)) == p.b
            for s in succs:
                indeg[s] += 1
        assert all(d == p.b for d in indeg.values())


def test_packed_successors_match_vertex_successors():
    # the definition: shift the word left, append any symbol, advance the phase
    for p in (GraphParams(2, 4, 3), GraphParams(3, 2, 2), GraphParams(5, 1, 2)):
        table = successor_table(p)
        for c in range(p.num_vertices):
            v = unpack(c, p)
            want = [Vertex(v.word[1:] + (x,), (v.phase + 1) % p.k)
                    for x in range(p.b)]
            assert [unpack(s, p) for s in table[c]] == want


def test_k1_equals_de_bruijn():
    cases = [(b, n) for b in (2, 3, 4) for n in range(1, 9) if b ** n <= 256]
    cases += [(16, 2), (6, 3)]
    for b, n in cases:
        p = GraphParams(b, n, 1)
        arcs = set()
        table = successor_table(p)
        for c in range(p.num_vertices):
            for s in table[c]:
                arcs.add((unpack(c, p).word, unpack(s, p).word))
        assert arcs == debruijn_arcs_direct(n, b)


def test_pack_unpack_roundtrip():
    p = GraphParams(3, 3, 4)
    for code in range(p.num_vertices):
        assert pack(unpack(code, p), p) == code


def test_packed_order_is_word_major():
    # symbol 0 occupies the most significant digit: shifting is arithmetic
    p = GraphParams(2, 3, 1)
    assert pack(Vertex((1, 0, 0), 0), p) == 4
    assert pack(Vertex((0, 0, 1), 0), p) == 1


def test_validate_factor_accepts_rule_factor():
    f = enumerate_factor(pcr(3, 2), 2)
    assert len(f.cycles) == 4
    res = validate_factor(f)
    assert res.ok and bool(res)
    # cycle lengths are multiples of k
    assert all(len(c) % 2 == 0 for c in f.cycles)


def test_validate_factor_diagnostics():
    f = enumerate_factor(pcr(3, 2), 2)
    p = f.params
    doc = json.loads(factor_json(f))
    # a document that leaves out the first cycle (000@0 -> 000@1)
    missing = factor_from_doc(dict(doc, cycles=doc["cycles"][1:]))
    res = validate_factor(missing)
    assert not res.ok and res.diagnostic == "uncovered vertex 000@0"

    # 001@1 -> 000@0 is no arc: 001 shifts to 01x
    succ = list(f.succ)
    succ[pack(Vertex((0, 0, 1), 1), p)] = pack(Vertex((0, 0, 0), 0), p)
    res = validate_factor(Factor(p, succ))
    assert not res.ok and res.diagnostic == "broken arc 001@1 -> 000@0"
    # a document whose second cycle runs backwards
    broken = list(doc["cycles"])
    broken[1] = broken[1][::-1]
    res = validate_factor(factor_from_doc(dict(doc, cycles=broken)))
    assert not res.ok and "broken arc" in res.diagnostic

    # 100@0 -> 000@1 is an arc, but 000@0 already leads to 000@1
    succ = list(f.succ)
    succ[pack(Vertex((1, 0, 0), 0), p)] = pack(Vertex((0, 0, 0), 1), p)
    res = validate_factor(Factor(p, succ))
    assert not res.ok and "duplicate vertex 000@1" in res.diagnostic

    res = validate_factor(Factor(p, f.succ[1:]))
    assert not res.ok and "15 successors for 16 vertices" in res.diagnostic


@pytest.mark.parametrize("cycles,message", [
    ([[["00", 0]]], "has length 2, not n=3"),
    ([[["000", 2]]], "phase 2 out of range"),
    ([[["000", -1]]], "phase -1 out of range"),
    ([[["000", 0], ["000", 1]], [["000", 1]]], "listed twice"),
    ([[["001", 0], ["010", 1], ["001", 0]]], "listed twice"),
    ([[]], "empty cycle"),
    ([[["002", 0]]], "symbols outside"),
    ([[["000", "0"]]], "phase '0' out of range"),
    ([[["000", True]]], "phase True out of range"),
    ([[[0, 0]]], "word 0 is not a string"),
    ([[5]], "entry 5 is not a"),
])
def test_factor_from_doc_refusals(cycles, message):
    doc = {"schema": "astute/1", "b": 2, "n": 3, "k": 2, "cycles": cycles}
    with pytest.raises(ValueError, match=message):
        factor_from_doc(doc)


@pytest.mark.parametrize("field,value,message", [
    ("k", True, "k must be an int, not True"),
    ("b", "2", "b must be an int, not '2'"),
    ("cycles", 5, "cycles 5 is not a list"),
    ("cycles", [5], "cycle 5 is not a list"),
])
def test_factor_from_doc_refuses_malformed_fields(field, value, message):
    doc = {"schema": "astute/1", "b": 2, "n": 1, "k": 1,
           "cycles": [[["0", 0]], [["1", 0]]]}
    assert len(factor_from_doc(doc)) == 2
    doc[field] = value
    with pytest.raises(ValueError, match=message):
        factor_from_doc(doc)


def test_factor_holds_a_copy_of_succ():
    p = GraphParams(2, 1, 1)
    succ = [0, 1]
    f = Factor(p, succ)
    succ[0] = 1
    assert f.succ == (0, 1)
    assert [c.codes for c in f.cycles] == [(0,), (1,)]


def test_cycles_walk_in_canonical_order():
    p = GraphParams(2, 3, 1)
    f = enumerate_factor(pcr(3, 2), 1)
    assert [c.codes for c in f.cycles] == [(0,), (1, 2, 4), (3, 6, 5), (7,)]
    assert f.cycles[1].vertices == (
        Vertex((0, 0, 1), 0), Vertex((0, 1, 0), 0), Vertex((1, 0, 0), 0))
    assert len(f) == 4 and len(f.cycles[1]) == 3
    assert all(c.params == p for c in f.cycles)


def test_word_render_parse():
    assert word_str((0, 1, 0)) == "010"
    assert parse_word("2101", 3) == (2, 1, 0, 1)
    assert word_str(parse_word("a5", 16)) == "a5"
    with pytest.raises(ValueError):
        parse_word("3", 3)


@pytest.mark.parametrize("b, n", [(2, 1), (2, 6), (3, 4), (6, 3), (10, 2),
                                  (36, 1), (36, 2)])
def test_word_names_match_word_str(b, n):
    assert vertex_names(GraphParams(b, n, 1), last="") == [
        word_str(w) for w in product(range(b), repeat=n)]


def test_word_names_refuse_large_alphabet():
    with pytest.raises(ValueError, match="word rendering supports symbols < 36 only"):
        vertex_names(GraphParams(37, 1, 1))


def test_cycle_walks_return_on_non_permutations():
    # a walk stops at the first visited vertex, so succ need not be a
    # permutation: [1, 1] is one cycle, and a -1 left by an uncovered
    # vertex indexes the last vertex, as on any Python list
    assert len(cycle_lengths([1, 1])) == 1
    assert cycle_lengths([1, 1]) == [2]
    assert [c.codes for c in Factor(GraphParams(2, 1, 1), [1, 1]).cycles] == [(0, 1)]
    f = factor_from_doc({"b": 2, "n": 1, "k": 1, "cycles": [[["0", 0]]]})
    assert f.succ == (0, -1)
    assert len(cycle_lengths(f.succ)) == 2
    assert [c.codes for c in f.cycles] == [(0,), (1,)]
    f = factor_from_doc({"b": 2, "n": 2, "k": 1, "cycles": [[["01", 0], ["10", 0]]]})
    assert f.succ == (-1, 2, 1, -1)
    assert len(cycle_lengths(f.succ)) == 2
    assert [c.codes for c in f.cycles] == [(0, -1), (1, 2)]
    assert cycle_lengths(f.succ) == [len(c) for c in f.cycles]


def test_factor_json_roundtrip():
    f = enumerate_factor(pcr(3, 2), 2)
    doc = json.loads(factor_json(f))
    assert doc["schema"] == "astute/1"
    assert doc["count"] == 4
    back = factor_from_doc(doc)
    assert back == f
    assert validate_factor(back).ok


@pytest.mark.parametrize("b,n", [(2, 3), (3, 2), (6, 2), (36, 1)])
def test_doc_to_json_matches_json_dumps(b, n):
    # the extra string needs escaping: quotes, backslash, control and
    # non-ASCII characters, and the writer's own placeholder key
    note = 'tab\t "q" \\ \x01 \u00e9 \u2603 \U0001f600\n  "cycles": null'
    for k in (1, 2, 3):
        rule = pcr(n, b)
        f = enumerate_factor(rule, k)
        cycles = permutation_cycles(f.succ)
        for optimal, extra in ((None, None),
                               (None, {"rule": rule.spec()}),
                               (False, {"nodes": 0}),
                               (True, {"rule": rule.spec(), "nodes": 12345, "note": note})):
            want = json.dumps(factor_document(b, n, k, cycles, optimal, extra), indent=2)
            assert factor_json(f, optimal, extra) == want, (b, n, k)


def test_dot_output():
    p = GraphParams(2, 2, 1)
    f = enumerate_factor(pcr(2, 2), 1)
    dot = to_dot(p, f, color="magenta")
    assert dot.startswith("digraph astute {")
    assert '"01@0" -> "10@0" [color=magenta];' in dot
    assert dot.count("->") == p.num_vertices * p.b


def test_params_validation():
    for fields in ((2.0, 3, 1), (2, True, 1), (2, 3, False), (2, 3, "1")):
        with pytest.raises(ValueError, match="must be an int"):
            GraphParams(*fields)
    with pytest.raises(ValueError):
        GraphParams(1, 3, 1)
    with pytest.raises(ValueError):
        GraphParams(2, 0, 1)
    with pytest.raises(ValueError):
        GraphParams(2, 3, 0)
