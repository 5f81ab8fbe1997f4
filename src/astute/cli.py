"""Command-line interface.

Subcommands: factor, count, extremal, verify, export.  Exit codes:
0 success, 2 invalid flags, 3 budget exceeded, 4 counting-method
disagreement, 5 verification failure.  Data goes to stdout, diagnostics
to stderr.  --budget-nodes and --max-vertices default to SearchBudget's
fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache, partial
from itertools import product
from math import gcd
from operator import sub

from . import counting, spectral
from .algebra import poly_gcd, u_poly, x_pow_minus_one
from .errors import (AstuteError, BudgetExceeded, Inconclusive, NotInvertible,
                     PreconditionViolated)
from .extremal import SearchBudget, search_extremal, verify_theorem1
from .graph import (GraphParams, check_renderable, factor_json, to_dot,
                    vertex_names, word_str)
from .ideals import ideal_quotient_size
from .rules import (check_vertex_budget, enumerate_factor, fix_count_bruteforce,
                    parse_rule_spec, pcr, icr, xor_rule)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DISAGREE = 4
EXIT_VERIFY = 5


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args.command is None:
        _parser().print_help()
        return EXIT_USAGE
    # looked up on each call, so a cmd_* replaced on this module is the one run
    command = {"factor": cmd_factor, "count": cmd_count, "extremal": cmd_extremal,
               "verify": cmd_verify, "export": cmd_export}[args.command]
    try:
        return command(args)
    except (BudgetExceeded, Inconclusive) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, NotInvertible, PreconditionViolated) as e:
        print(f"invalid arguments: {e}", file=sys.stderr)
        return EXIT_USAGE
    except AstuteError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _parse(argv: list[str]) -> argparse.Namespace:
    """_parser().parse_args(argv) in one argparse pass: a call that names
    a subcommand first goes straight to that subcommand's parser, whose
    leftovers the top-level parser reports as parse_args does.  A bare
    call, -h and an unknown command take the full parser."""
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommands' parsers by name, built on
    the first call and then reused: they depend on no input and hold no
    functions."""
    parser = argparse.ArgumentParser(
        prog="astute",
        description="Factors of de Bruijn-like graphs: enumerate, count, search.")
    sub = parser.add_subparsers(dest="command")

    p_factor = sub.add_parser("factor", help="enumerate the factor of a succession rule")
    _add_instance_flags(p_factor, rule=True)
    p_factor.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_factor.add_argument("--out", help="write output to this path instead of stdout")

    p_count = sub.add_parser("count", help="count factor cycles by one or all methods")
    _add_instance_flags(p_count, rule=True)
    p_count.add_argument("--method", default="all",
                         choices=("all", "enum", "burnside", "theorem2", "closed"))

    p_ext = sub.add_parser("extremal", help="search for a maximum-cycle factor")
    _add_instance_flags(p_ext, rule=False)
    _add_search_flags(p_ext)
    p_ext.add_argument("--time-cap", type=float, default=None)
    p_ext.add_argument("--emit-dot", metavar="PATH")
    p_ext.add_argument("--emit-json", metavar="PATH")

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=("lemmas", "theorem1", "counterexample", "all"))
    p_verify.add_argument("--b", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    _add_search_flags(p_verify)
    p_verify.add_argument("--csv", metavar="PATH",
                          help="dump the per-orbit transform table for the "
                               "--b/--n/--k instance")

    p_export = sub.add_parser("export", help="DOT rendering of the graph")
    _add_instance_flags(p_export, rule=False)
    p_export.add_argument("--rule", help="highlight this rule's factor")
    p_export.add_argument("--color", default="magenta")
    p_export.add_argument("--out", help="write output to this path instead of stdout")

    return parser, sub.choices


def _add_instance_flags(p: argparse.ArgumentParser, rule: bool):
    p.add_argument("--b", type=int, required=True, help="alphabet size (>= 2)")
    p.add_argument("--n", type=int, required=True, help="word length (>= 1)")
    p.add_argument("--k", type=int, default=1, help="phase count (default 1)")
    if rule:
        p.add_argument("--rule", required=True,
                       help="pcr | icr | xor | affine:c;l0,l1,...,ln")


def _add_search_flags(p: argparse.ArgumentParser):
    p.add_argument("--budget-nodes", type=int, default=SearchBudget.max_nodes)
    p.add_argument("--max-vertices", type=int, default=SearchBudget.max_vertices)


def _params(args) -> GraphParams:
    return GraphParams(args.b, args.n, args.k)


def _search_budget(args) -> SearchBudget:
    return SearchBudget(max_vertices=args.max_vertices,
                        max_nodes=args.budget_nodes,
                        time_cap=getattr(args, "time_cap", None))


def _emit(text: str, out: str | None, newline: str | None = None):
    """Write text to the file out, else to stdout; refuse an unwritable out."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline=newline) as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {out}: {e.strerror}") from None


def cmd_factor(args) -> int:
    p = _params(args)
    rule = parse_rule_spec(args.rule, args.n, args.b)
    check_renderable(p.b)
    factor = enumerate_factor(rule, args.k)
    if args.format == "text":
        labels = vertex_names(p)
        lines = [f"factor of G(n={p.n}, k={p.k}) over b={p.b} by rule {rule.spec()}: "
                 f"{len(factor.cycles)} cycles"]
        for cyc in factor.cycles:
            lines.append("  " + " -> ".join([labels[c] for c in cyc.codes]))
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "json":
        _emit(factor_json(factor, extra={"rule": rule.spec()}) + "\n", args.out)
    else:
        _emit(to_dot(p, factor, color="magenta"), args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    p = _params(args)
    rule = parse_rule_spec(args.rule, args.n, args.b)
    wanted = args.method
    reports = []
    # The routes read the word permutation and (omega, ell) off the rule,
    # which finds each once.  Under all, the order scan runs just before
    # Burnside; a refusal by a budget skips its route (the scan's: both
    # routes that read it), and the routes that ran still cross-check.
    for flag, method, route in (
            ("enum", "enumeration", counting.count_enumeration),
            ("all", "burnside_direct, theorem2", lambda rule, k: rule.order_and_ell),
            ("burnside", "burnside_direct", counting.count_burnside_direct),
            ("theorem2", "theorem2", counting.count_theorem2)):
        if wanted not in ("all", flag):
            continue
        try:
            result = route(rule, p.k)
        except BudgetExceeded as e:
            if wanted != "all":
                raise
            print(f"skipped {method}: {e}", file=sys.stderr)
            if flag == "all":
                break
            continue
        if flag != "all":
            reports.append(result)
    if wanted in ("all", "closed"):
        closed = counting.closed_form_for(rule, p.k)
        if closed is not None:
            reports.append(closed)
        elif wanted == "closed":
            raise ValueError(f"no closed form for rule {rule.spec()!r}")

    width = max(len(r.method) for r in reports)
    for r in reports:
        notes = ""
        if r.witnesses:
            notes = "  " + " ".join(f"{k}={_fmt_witness(v)}"
                                    for k, v in r.witnesses.items())
        print(f"{r.method:<{width}}  {r.value}{notes}")
    if wanted != "all":
        return EXIT_OK
    if len({r.value for r in reports}) != 1:
        print("counting methods disagree: "
              + ", ".join(f"{r.method}={r.value}" for r in reports), file=sys.stderr)
        return EXIT_DISAGREE
    if len(reports) < 2:
        print("fewer than two counting methods ran", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _fmt_witness(v) -> str:
    if isinstance(v, list):
        return ";".join("/".join(str(x) for x in t) for t in v)
    return str(v)


def cmd_extremal(args) -> int:
    p = _params(args)
    budget = _search_budget(args)
    check_renderable(p.b)
    result = search_extremal(p, budget)
    text = factor_json(result.certificate, optimal=result.optimal,
                       extra={"nodes": result.nodes_explored})
    if args.emit_json:
        _emit(text, args.emit_json)
    if args.emit_dot:
        _emit(to_dot(p, result.certificate, color="blue"), args.emit_dot)
    print(text)
    return EXIT_OK if result.optimal else EXIT_BUDGET


def cmd_export(args) -> int:
    p = _params(args)
    rule = parse_rule_spec(args.rule, args.n, args.b) if args.rule else None
    check_renderable(p.b)
    check_vertex_budget(p)
    factor = enumerate_factor(rule, args.k) if rule else None
    _emit(to_dot(p, factor, color=args.color), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites: one row per check, shared with the tests
#
# Each row returns the dict the report prints.  The rows check verify's
# scope; the cycle-sum and fix-count rows take a wider instance set from
# the tests, and then carry no detail, since it names verify's scope.

def lemma_rules() -> list:
    """pcr, icr and, at b = 2, xor for b = 2, 3 and n <= 4, built on each
    call, so no rule's derived values outlive one check."""
    return [rule for b in (2, 3) for n in range(1, 5)
            for rule in [pcr(n, b), icr(n, b)] + ([xor_rule(n)] if b == 2 else [])]


def _check(name: str, ok: bool, detail: str = "") -> dict:
    out = {"name": name, "pass": bool(ok)}
    if detail:
        out["detail"] = detail
    return out


def _gcd_cases():
    """(b, n, m, gcd(n, m), us, xs) for n, m <= 12 over b = 2, 3, 5, with
    us[i] and xs[i] the coefficient lists of 1 + X + ... + X^(i-1) and
    X^i - 1, both monic (index 0 unused)."""
    for b in (2, 3, 5):
        us = [None] + [list(u_poly(i, b).coeffs) for i in range(1, 13)]
        xs = [None] + [list(x_pow_minus_one(i, b).coeffs) for i in range(1, 13)]
        for n in range(1, 13):
            for m in range(1, 13):
                yield b, n, m, gcd(n, m), us, xs


# The repunit and X^n - 1 rows are symmetric in (n, m), and Euclid's
# first step turns gcd(f, g) with deg f < deg g into gcd(g, f), so each
# decides the pairs m <= n only.

def check_gcd_repunit() -> dict:
    """gcd(U_n, U_m) = U_gcd(n, m) over each prime b."""
    ok = all(poly_gcd(us[n], us[m], b) == us[g]
             for b, n, m, g, us, xs in _gcd_cases() if m <= n)
    return _check("gcd-repunit", ok, "n,m<=12 b in 2,3,5")


def check_gcd_xn_minus_one() -> dict:
    """gcd(X^n - 1, X^m - 1) = X^gcd(n, m) - 1 over each prime b."""
    ok = all(poly_gcd(xs[n], xs[m], b) == xs[g]
             for b, n, m, g, us, xs in _gcd_cases() if m <= n)
    return _check("gcd-xn-minus-one", ok, "n,m<=12 b in 2,3,5")


def check_gcd_mixed() -> dict:
    """gcd(U_n, X^m - 1) is X^g - 1 when b divides n/g and U_g otherwise,
    g = gcd(n, m), over each prime b."""
    ok = all(poly_gcd(us[n], xs[m], b) == (xs[g] if (n // g) % b == 0 else us[g])
             for b, n, m, g, us, xs in _gcd_cases())
    return _check("gcd-mixed", ok, "both branches")


def check_rotation_scaling() -> dict:
    """The transform scales by a root of unity under rotation, on every
    word of every b for n <= 8 (decided on the unit words)."""
    ok = all(spectral.rotation_identity_holds(n) for n in range(1, 9))
    return _check("rotation-scaling", ok, "all words b<=4 n<=8")


def check_cycle_sum_zero(rules=None) -> dict:
    """Transforms along every cycle of each rule's factor, k in 1, 2, 3, 6,
    sum to zero; rules default to lemma_rules() with n >= 2 (the identity
    rests on the vanishing power sum of a root of unity of order n)."""
    ok = True
    for rule in rules or [r for r in lemma_rules() if r.n >= 2]:
        for k in (1, 2, 3, 6):
            f = enumerate_factor(rule, k)
            ok &= all(spectral.cycle_sum_check(c) for c in f.cycles)
    return _check("cycle-sum-zero", ok,
                  "" if rules else "rule factors b<=3 2<=n<=4 k in 1,2,3,6")


def check_arc_difference_real() -> dict:
    """On every arc s -> t of b <= 3, n <= 6, C(s) - C(rot^-1(t)) is
    exactly real, and exactly zero iff s = rot^-1(t).

    Every arc is enumerated, but the verdict depends on the difference
    alone (s = rot^-1(t) exactly when it is all zero), so each distinct
    difference of a (b, n) is decided once."""
    ok = True
    for b in (2, 3):
        for n in range(1, 7):
            diffs = set()
            for s in product(range(b), repeat=n):
                for x in range(b):
                    r_inv_t = spectral.rotate_right(s[1:] + (x,))
                    # tuple() of a list, not of the unsized map: that one
                    # over-allocates and resizes, which costs peak memory
                    diffs.add(tuple(list(map(sub, s, r_inv_t))))
            for diff in diffs:
                ok &= spectral.is_real_exact(diff, n) and (
                    spectral.evaluates_to_zero_exact(diff, n) == (not any(diff)))
    return _check("arc-difference-real", ok, "all arcs b<=3 n<=6")


def check_fix_count_ideal(rules=None, exponents=None) -> dict:
    """Brute-force fixed counts of rule^i match the ideal-quotient
    prediction: |Z/b[X] / (lam, X^gcd(i, w) - 1)| when the smallest
    word-cycle length divides i, else 0.  Rules default to lemma_rules()
    and exponents to 1..24; each rule's word permutation is built once."""
    ok = True
    for rule in rules or lemma_rules():
        lam = rule.char_poly()
        omega, ell = rule.order_and_ell
        for i in exponents or range(1, 25):
            want = ideal_quotient_size(lam, gcd(i, omega)) if i % ell == 0 else 0
            ok &= fix_count_bruteforce(rule, i) == want
    return _check("fix-count-ideal", ok,
                  "" if rules or exponents else "b<=3 n<=4 i<=24")


def check_theorem1(b: int, n: int, k: int,
                   budget: SearchBudget | None = None) -> dict:
    """The search optimum on G(n, k) equals the rotation-rule closed form;
    an incomplete search raises Inconclusive."""
    report = verify_theorem1(GraphParams(b, n, k), budget)
    return _check(f"pcr-extremal b={b} n={n} k={k}", report.ok,
                  f"search={report.search_count} formula={report.formula_count}")


def check_counterexample(budget: SearchBudget | None = None) -> dict:
    """On b=2 G(3, 2) the rotation rule makes 4 cycles and the optimum is
    6; an incomplete search raises Inconclusive."""
    pcr_count = len(enumerate_factor(pcr(3, 2), 2).cycles)
    result = search_extremal(GraphParams(2, 3, 2), budget)
    if not result.optimal:
        raise Inconclusive(
            f"search hit its budget after {result.nodes_explored} nodes")
    ok = pcr_count == 4 and result.best_count == 6
    return _check("counterexample-g32", ok,
                  f"rotation-rule={pcr_count} extremal={result.best_count}")


THEOREM1_INSTANCES = (
    [(2, n, k) for (n, k) in [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (2, 2),
                              (3, 3), (1, 2), (1, 3), (2, 4), (4, 2)]]
    + [(3, n, k) for (n, k) in [(1, 1), (2, 1), (3, 1), (2, 2)]])


def check_table(instances=THEOREM1_INSTANCES,
                budget: SearchBudget | None = None) -> list[tuple]:
    """Every verify row in report order, as (suite, call returning the
    row's dict) pairs: the lemmas, one Theorem 1 row per instance, then
    the counterexample; the search rows use budget."""
    return [*(("lemmas", row) for row in (
                check_gcd_repunit, check_gcd_xn_minus_one, check_gcd_mixed,
                check_rotation_scaling, check_cycle_sum_zero,
                check_arc_difference_real, check_fix_count_ideal)),
            *(("theorem1", partial(check_theorem1, b, n, k, budget))
              for b, n, k in instances),
            ("counterexample", partial(check_counterexample, budget))]


def cmd_verify(args) -> int:
    given = [x is not None for x in (args.b, args.n, args.k)]
    if any(given) and not all(given):
        raise ValueError("--b, --n and --k must be given together")
    if args.csv and not all(given):
        raise ValueError("--csv needs an explicit --b/--n/--k instance")
    if all(given) and not args.csv and args.suite in ("lemmas", "counterexample"):
        raise ValueError(f"--suite {args.suite} takes no --b/--n/--k instance")
    if args.csv:
        check_renderable(args.b)
        dump = GraphParams(args.b, args.n, args.k)
    instances = THEOREM1_INSTANCES
    # explicit flags narrow the sweep; with --csv they describe the dump instead
    if args.b is not None and not args.csv:
        instances = [(args.b, args.n, args.k)]
    # only the search rows read the budget, so only they refuse a bad one
    budget = None if args.suite == "lemmas" else _search_budget(args)
    checks = [run() for suite, run in check_table(instances, budget)
              if args.suite in (suite, "all")]
    if args.csv:
        _write_transform_csv(args.csv, dump)
    ok = all(c["pass"] for c in checks)
    report = {"schema": "astute/1", "suite": args.suite, "checks": checks, "pass": ok}
    print(json.dumps(report, indent=2))
    if not ok:
        failed = [c["name"] for c in checks if not c["pass"]]
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _write_transform_csv(path: str, p: GraphParams):
    rows = spectral.orbit_transform_table(p)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["orbit", "word", "phase", "re", "im", "distinguished"])
    for r in rows:
        w.writerow([r["orbit"], word_str(r["word"]), r["phase"],
                    f"{r['re']:.12g}", f"{r['im']:.12g}",
                    int(r["distinguished"])])
    _emit(buf.getvalue(), path, newline="")


if __name__ == "__main__":
    sys.exit(main())
