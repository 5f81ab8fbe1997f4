"""Workloads: the CLI operations each one runs, and how each answer is checked.

Every check here is independent of the code under test.  Reference
counts come from walking the rule's raw word permutation, built from
the paper's definitions and never through `astute.rules`; factor
certificates are checked with this file's own arc and coverage test,
not `validate_factor`; extremal counts are held to the optimum known by
theorem.  References are computed when a workload is built, outside the
timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

# Per-operation time limits (seconds).  Each is several times the
# operation's cost on a 2-core x86 host, so only a stall reaches it; the
# algebra draws cost well under 0.1 s each.
LIMIT_ORBITS = 20.0
LIMIT_ALGEBRA = 1.0
LIMIT_SEARCH = 20.0
LIMIT_VERIFY = 30.0

# A seeded draw of affine rules for `algebra`.  Every b in
# {2, 3, 4, 5, 6, 9} appears, b^n stays between 25 and 100, and each
# shape gets the same number of rules, so draws from different seeds
# cost about the same.  From b^n = 125 up, some draws stall in the SNF
# (1 in 20 at b=5, n=3 and 3 in 20 at b=6, n=3 in a trial), and the
# stall count a seed happens to draw would swing wall_s; the pinned
# rule below keeps that defect in every pass instead.
ALGEBRA_SHAPES = ((2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (5, 2), (6, 2), (9, 2))
ALGEBRA_RULES_PER_SHAPE = 16
# Known defect, kept in on purpose: the SNF inside
# ideal_quotient_size(L, 62) for this 125-word rule runs for minutes.
ALGEBRA_PINNED = ("affine:4;4,3,1,3", 5, 3, 1)

# Searches that finish, then two capped by a node budget that they
# cannot finish within today (decided_frac 3/5 on the seed code).
SEARCH_BUDGET_NODES = 400_000
SEARCH_FINISHING = ((2, 4, 2), (2, 5, 1), (2, 3, 2))
SEARCH_CAPPED = ((2, 6, 1), (3, 3, 1))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    decided: bool
    detail: str = ""


@dataclass(frozen=True)
class Op:
    name: str
    argv: list[str]
    limit: float
    check: Callable[[int, str], Verdict]  # (exit code, stdout) -> verdict


# ---------------------------------------------------------------------------
# reference arithmetic (from the paper's definitions)


def _phi(m: int) -> int:
    return sum(1 for j in range(1, m + 1) if gcd(j, m) == 1)


def rotation_count(b: int, n: int, k: int) -> int:
    """Cycles of the rotation-rule factor of G(n, k): Theorem 1's optimum
    when k | n or n | k, and the necklace count when k = 1."""
    g = gcd(n, k)
    total = sum(_phi(n // d) * b ** d for d in range(1, n + 1)
                if n % d == 0 and d % g == 0)
    return g * total // n


def known_optimum(b: int, n: int, k: int) -> int:
    """Maximum number of cycles of a factor of G(n, k), where a theorem
    gives it: 6 for G(3, 2) over b = 2 (the paper's counterexample),
    Theorem 1 when k | n or n | k, and Mykkeltveit's proof of Golomb's
    conjecture (the necklace count) when k = 1."""
    if (b, n, k) == (2, 3, 2):
        return 6
    if n % k == 0 or k % n == 0:
        return rotation_count(b, n, k)
    raise ValueError(f"no known optimum for b={b} n={n} k={k}")


def parse_rule(spec: str, b: int, n: int):
    """(lambdas, c) of a rule: a_n solves c = sum(lambdas[i] * a_i) mod b."""
    if spec == "pcr":
        return [1] + [0] * (n - 1) + [b - 1], 0          # a_n = a_0
    if spec == "icr":
        return [1] + [0] * (n - 1) + [b - 1], b - 1      # a_n = a_0 + 1
    if spec == "xor":
        return [1] * (n + 1), 0                          # a_n = sum a_i
    c, lams = spec[len("affine:"):].split(";")
    return [int(x) % b for x in lams.split(",")], int(c) % b


def appended_symbol(lams, c: int, b: int, word) -> int:
    inv = pow(lams[-1], -1, b)
    acc = sum(l * a for l, a in zip(lams, word))
    return (inv * (c - acc)) % b


def word_permutation(spec: str, b: int, n: int) -> list[int]:
    """The rule on words packed with a_0 as the most significant digit."""
    lams, c = parse_rule(spec, b, n)
    head = b ** (n - 1)
    perm = []
    for value in range(b ** n):
        word = [0] * n
        v = value
        for i in range(n - 1, -1, -1):
            v, word[i] = divmod(v, b)
        perm.append((value % head) * b + appended_symbol(lams, c, b, word))
    return perm


def orbit_count(spec: str, b: int, n: int, k: int) -> int:
    """Cycles of the factor the rule generates on G(n, k).

    A word cycle of length L carries L*k vertices in orbits of length
    lcm(L, k), hence gcd(L, k) factor cycles.
    """
    perm = word_permutation(spec, b, n)
    seen = bytearray(len(perm))
    total = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = 1
            v = perm[v]
            length += 1
        total += gcd(length, k)
    return total


def parse_word(s: str, b: int, n: int) -> tuple[int, ...]:
    word = tuple(DIGITS.index(ch) for ch in s)
    if len(word) != n or any(a >= b for a in word):
        raise ValueError(f"bad word {s!r}")
    return word


def check_cycles(cycles, b: int, n: int, k: int, step=None) -> str:
    """'' if `cycles` ([[word, phase], ...] lists) is a factor of G(n, k),
    else the first problem.  With `step`, every arc must be the rule's."""
    seen = set()
    for cyc in cycles:
        if not cyc:
            return "empty cycle"
        verts = [(parse_word(w, b, n), ph) for w, ph in cyc]
        for i, (word, ph) in enumerate(verts):
            if not 0 <= ph < k:
                return f"phase {ph} out of range"
            if (word, ph) in seen:
                return f"vertex {word}@{ph} repeated"
            seen.add((word, ph))
            nxt, nph = verts[(i + 1) % len(verts)]
            if nph != (ph + 1) % k or nxt[:-1] != word[1:]:
                return f"{word}@{ph} -> {nxt}@{nph} is not an arc"
            if step is not None and nxt[-1] != step(word):
                return f"{word}@{ph} -> {nxt}@{nph} is not the rule's arc"
    if len(seen) != b ** n * k:
        return f"{len(seen)} of {b ** n * k} vertices covered"
    return ""


# ---------------------------------------------------------------------------
# checks of each command's output


def _count_check(spec: str, b: int, n: int, k: int) -> Callable[[int, str], Verdict]:
    want = orbit_count(spec, b, n, k)
    methods = {"enumeration", "burnside_direct", "theorem2"}
    if spec in ("pcr", "icr", "xor"):
        methods.add("closed_form")

    def check(rc: int, out: str) -> Verdict:
        if rc != 0:
            return Verdict(False, True, f"exit {rc}")
        got = {}
        for line in out.splitlines():
            fields = line.split()
            if len(fields) >= 2:
                got[fields[0]] = int(fields[1])
        if set(got) != methods:
            return Verdict(False, True, f"methods {sorted(got)}")
        wrong = {m: v for m, v in got.items() if v != want}
        if wrong:
            return Verdict(False, True, f"want {want}, got {wrong}")
        return Verdict(True, True)

    return check


def _factor_json_check(spec: str, b: int, n: int, k: int):
    want = orbit_count(spec, b, n, k)
    lams, c = parse_rule(spec, b, n)

    def check(rc: int, out: str) -> Verdict:
        if rc != 0:
            return Verdict(False, True, f"exit {rc}")
        doc = json.loads(out)
        if (doc["b"], doc["n"], doc["k"]) != (b, n, k):
            return Verdict(False, True, "wrong instance")
        if doc["count"] != want or len(doc["cycles"]) != want:
            return Verdict(False, True, f"count {doc['count']}, want {want}")
        problem = check_cycles(doc["cycles"], b, n, k,
                               step=lambda w: appended_symbol(lams, c, b, w))
        return Verdict(not problem, True, problem)

    return check


def _factor_dot_check(spec: str, b: int, n: int, k: int, color: str):
    lams, c = parse_rule(spec, b, n)

    def check(rc: int, out: str) -> Verdict:
        if rc != 0:
            return Verdict(False, True, f"exit {rc}")
        lines = out.splitlines()
        if lines[0] != "digraph astute {" or lines[-1] != "}":
            return Verdict(False, True, "not a digraph")
        nodes, arcs, marked = set(), set(), 0
        for line in lines[1:-1]:
            parts = line.strip().rstrip(";").split(" -> ")
            if len(parts) == 1:
                nodes.add(parts[0].strip('"'))
                continue
            head, tail = parts[0].strip('"'), parts[1]
            attr = f" [color={color}]"
            is_marked = tail.endswith(attr)
            tail = tail[:-len(attr)] if is_marked else tail
            arcs.add((head, tail.strip('"')))
            w, ph = head.split("@")
            t, tph = tail.strip('"').split("@")
            word, nxt = parse_word(w, b, n), parse_word(t, b, n)
            if word[1:] != nxt[:-1] or int(tph) != (int(ph) + 1) % k:
                return Verdict(False, True, f"{head} -> {tail} is not an arc")
            if is_marked:
                marked += 1
                if nxt[-1] != appended_symbol(lams, c, b, word):
                    return Verdict(False, True, f"{head} -> {tail} marked wrongly")
        size = b ** n * k
        if len(nodes) != size or len(arcs) != size * b or marked != size:
            return Verdict(False, True, f"{len(nodes)} nodes, {len(arcs)} arcs, "
                                        f"{marked} marked; want {size}, {size * b}, {size}")
        return Verdict(True, True)

    return check


def _extremal_check(b: int, n: int, k: int):
    best = known_optimum(b, n, k)

    def check(rc: int, out: str) -> Verdict:
        if rc not in (0, 3):
            return Verdict(False, False, f"exit {rc}")
        doc = json.loads(out)
        optimal = doc["optimal"]
        if (rc == 0) != (optimal is True):
            return Verdict(False, False, f"exit {rc} with optimal={optimal}")
        if (doc["b"], doc["n"], doc["k"]) != (b, n, k):
            return Verdict(False, False, "wrong instance")
        if doc["count"] != len(doc["cycles"]):
            return Verdict(False, False, "count differs from the certificate")
        problem = check_cycles(doc["cycles"], b, n, k)
        if problem:
            return Verdict(False, False, problem)
        if doc["count"] > best or (optimal and doc["count"] != best):
            return Verdict(False, False,
                           f"count {doc['count']} (optimal={optimal}), optimum {best}")
        return Verdict(True, optimal)

    return check


def _verify_check(rc: int, out: str) -> Verdict:
    if rc != 0:
        return Verdict(False, True, f"exit {rc}")
    report = json.loads(out)
    if report["pass"] is not True or not report["checks"]:
        return Verdict(False, True, "report does not pass")
    return Verdict(True, True)


# ---------------------------------------------------------------------------
# workloads


def _count_op(spec: str, b: int, n: int, k: int, limit: float) -> Op:
    argv = ["count", "--rule", spec, "--b", str(b), "--n", str(n),
            "--k", str(k), "--method", "all"]
    return Op(f"count {spec} b={b} n={n} k={k}", argv, limit,
              _count_check(spec, b, n, k))


def orbits(rng: random.Random) -> list[Op]:
    ops = [_count_op("pcr", 2, 16, 1, LIMIT_ORBITS),
           _count_op("icr", 2, 16, 3, LIMIT_ORBITS),
           _count_op("xor", 2, 16, 1, LIMIT_ORBITS),
           _count_op("pcr", 6, 6, 2, LIMIT_ORBITS),
           Op("factor json xor b=2 n=14",
              ["factor", "--rule", "xor", "--b", "2", "--n", "14", "--format", "json"],
              LIMIT_ORBITS, _factor_json_check("xor", 2, 14, 1)),
           Op("factor dot pcr b=2 n=12 k=2",
              ["factor", "--rule", "pcr", "--b", "2", "--n", "12", "--k", "2",
               "--format", "dot"],
              LIMIT_ORBITS, _factor_dot_check("pcr", 2, 12, 2, "magenta"))]
    rng.shuffle(ops)
    return ops


def _units(b: int) -> list[int]:
    return [u for u in range(1, b) if gcd(u, b) == 1]


def draw_affine_rules(rng: random.Random) -> list[tuple[str, int, int, int]]:
    """(spec, b, n, k) for every shape: units at both ends, anything in
    between, c uniform in Z/b (so c = 0 happens), k uniform in 1..3."""
    rules = []
    for b, n in ALGEBRA_SHAPES:
        for _ in range(ALGEBRA_RULES_PER_SHAPE):
            lams = ([rng.choice(_units(b))] + [rng.randrange(b) for _ in range(n - 1)]
                    + [rng.choice(_units(b))])
            c = rng.randrange(b)
            rules.append((f"affine:{c};{','.join(map(str, lams))}", b, n,
                          rng.choice((1, 2, 3))))
    return rules


def algebra(rng: random.Random) -> list[Op]:
    ops = [_count_op(*rule, LIMIT_ALGEBRA) for rule in draw_affine_rules(rng)]
    ops.append(_count_op(*ALGEBRA_PINNED, LIMIT_ALGEBRA))
    rng.shuffle(ops)
    return ops


def search(rng: random.Random) -> list[Op]:
    ops = []
    for b, n, k in SEARCH_FINISHING + SEARCH_CAPPED:
        argv = ["extremal", "--b", str(b), "--n", str(n), "--k", str(k)]
        if (b, n, k) in SEARCH_CAPPED:
            argv += ["--budget-nodes", str(SEARCH_BUDGET_NODES),
                     "--max-vertices", str(b ** n * k)]
        ops.append(Op(f"extremal b={b} n={n} k={k}", argv, LIMIT_SEARCH,
                      _extremal_check(b, n, k)))
    rng.shuffle(ops)
    return ops


def verify(rng: random.Random) -> list[Op]:
    return [Op("verify all", ["verify", "--suite", "all"], LIMIT_VERIFY, _verify_check)]


WORKLOADS = {"orbits": orbits, "algebra": algebra, "search": search, "verify": verify}


def build(name: str, seed: int) -> list[Op]:
    """The operations of one pass of workload `name`.  The seed draws the
    algebra rules and shuffles the order of every workload's operations."""
    return WORKLOADS[name](random.Random(seed))
