"""Exact search for factors of G(n, k) with the maximum number of cycles.

Branch and bound over successor assignments: vertices take their one
out-arc in ascending packed order, each choice ascending by appended
symbol; an in-degree flag keeps the assignment a bijection, and path
endpoints are tracked so cycle closures are counted incrementally.  The
path is kept on an explicit stack, one level per vertex, so the depth
is bounded by the vertex budget, not by the interpreter's recursion
limit.  The choices are the rows of graph.successor_table, the one
table of arcs, which F and validate_factor read too.

The admissible bound takes the least of three limits on the cycles still
to be closed: the open chains that hold a vertex of a feedback vertex set
F; open_vertices // k, by the phase invariant (every cycle length is a
positive multiple of k), where open vertices are those not yet locked
into a completed cycle; and the short-cycle capacity (`cycle_capacity`)
less the cycles already closed.

F meets every cycle of G(n, k) and is built from the arcs alone
(`feedback_vertex_set`), never from the transforms or the closed forms,
so the search stays an independent check of Theorem 1.  Every cycle
still to close is a union of open chains (a lone vertex is a chain), it
holds a vertex of F, and two cycles never share a chain; so the cycles
still to close are at most the open chains holding a vertex of F.  At
the root that is |F|, which equals the optimum on b=2 G(5, 1), G(6, 1),
G(7, 1) and b=3 G(3, 1), G(4, 1).  The capacity holds because a cycle of
length L <= n consists of the windows of an L-periodic sequence, so its
words have minimal period <= L, and few words are that periodic; they
are counted from the periodic words themselves, b^q for each period q,
never by a pass over all b^n words.  The capacity is the tighter of the
two on some instances (139 against |F| = 144 on b=2 G(8, 4)).  The
incumbent starts at the rotation-rule factor, which is optimal whenever
k | n or n | k; when a bound equals its count the search ends at the
root.  F is the costly bound, so it is built only where the root is
open: when min(b^n, capacity) does not exceed the incumbent, the root
is closed whatever |F| is, and neither F nor the successor table is
made.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Optional

from .counting import closed_form_pcr
from .errors import (AstuteError, BudgetExceeded, Inconclusive,
                     PreconditionViolated)
from .graph import Factor, GraphParams, cycle_lengths, successor_table
from .rules import pcr, periodic_words, successor_array


@dataclass(frozen=True)
class SearchBudget:
    max_vertices: int = 32
    max_nodes: int = 10 ** 8
    time_cap: Optional[float] = None  # seconds

    def __post_init__(self):
        if not (self.max_vertices >= 1 and self.max_nodes >= 1):  # refuses NaN
            raise ValueError("budgets must be positive")
        if self.time_cap is not None and not self.time_cap > 0:
            raise ValueError("time_cap must be positive")


@dataclass(frozen=True)
class SearchResult:
    best_count: int
    certificate: Factor
    optimal: bool
    nodes_explored: int


def cycle_capacity(p: GraphParams) -> int:
    """An upper bound on the number of cycles of any factor of G(n, k).

    Cycle lengths are multiples of k.  A cycle of length L <= n with
    words w_0 .. w_{L-1} in order has w_j[t] = w_{j+t}[0] (indices mod
    L), because each arc shifts the word left by one; so w_j[t + L] =
    w_j[t], and every word on the cycle has minimal period <= L.  Hence
    the cycles of length <= L cover at most cap(L) = k * #{words of
    minimal period <= L} vertices; cap never falls as L grows, and from
    L = n on it is every vertex.  A word has minimal period <= L when it
    repeats with some period q <= L, so those words are the union of
    rules.periodic_words(b, n, q) over q <= L: one set, grown by the
    periods L - k + 1 .. L at each step of L, never the b^n words.

    The bound fills the lengths k, 2k, ... in turn, each with as many
    cycles as cap(length) still has room for, up to the first multiple
    of k that is >= n.  Admissibility: count a factor's cycles longer
    than that last length as cycles of it, which only frees room; its
    lengths then meet every capacity.  Where they first differ from the
    greedy fill, at length L, the factor has fewer cycles of length L
    (the fill took all that fit).  Replacing one of its next longer
    cycles by one of length L keeps every capacity met and the count
    unchanged (with no longer cycle left, it already has fewer cycles
    than the fill), so repeating this reaches the fill.  The bound
    reads nothing but b, n and k: no transform, no closed form.
    """
    b, n, k = p.b, p.n, p.k
    periodic: set[int] = set()
    cycles = used = 0
    length = k
    while length < n:
        for q in range(length - k + 1, length + 1):
            periodic.update(periodic_words(b, n, q))
        fit = (k * len(periodic) - used) // length
        cycles += fit
        used += fit * length
        length += k
    return cycles + (p.num_vertices - used) // length


def feedback_vertex_set(p: GraphParams) -> tuple[int, ...]:
    """Packed codes of a set F meeting every cycle of G(n, k), ascending.

    Every cycle of a factor is a cycle of the graph, so no factor has
    more than |F| cycles.  F comes from the arcs alone, by the
    contraction reductions of Levy and Low (1988), applied from a
    worklist until none fits: drop a vertex with no in-arc or no
    out-arc; put a vertex with a self-loop into F; bypass a vertex with
    one in-arc or one out-arc by joining its neighbours directly (every
    cycle through it keeps its other vertices).  When no reduction
    fits, the vertex with the largest in * out degree joins F, the
    smallest code on ties.  G - F is checked acyclic by Kahn's
    algorithm before F is returned.  The arcs are read from
    graph.successor_table(p).
    """
    n = p.num_vertices
    succs = successor_table(p)
    out_arcs = [set(s) for s in succs]
    in_arcs: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in out_arcs[u]:
            in_arcs[v].add(u)
    alive = [True] * n
    work = list(range(n - 1, -1, -1))
    heap: list[tuple[int, int]] = []
    pushed = [0] * n  # the key of each vertex's newest heap entry (keys are <= -4)
    chosen = []
    push, pop = work.append, work.pop
    heappush, heappop = heapq.heappush, heapq.heappop

    while work or heap:
        if work:
            v = pop()
            if not alive[v]:
                continue
            ins, outs = in_arcs[v], out_arcs[v]
            if v in outs:
                chosen.append(v)
            elif ins and outs:
                if len(ins) > 1 and len(outs) > 1:
                    # any later degree change puts v on the worklist
                    # again, so the heap holds every live vertex's key
                    # (its newest entry stays until v leaves: no repeats)
                    key = -len(ins) * len(outs)
                    if pushed[v] != key:
                        pushed[v] = key
                        heappush(heap, (key, v))
                    continue
                # bypass v; removing it below puts its neighbours back
                for u in ins:
                    for w in outs:
                        out_arcs[u].add(w)
                        in_arcs[w].add(u)
        else:
            key, v = heappop(heap)
            ins, outs = in_arcs[v], out_arcs[v]
            if not alive[v] or key != -len(ins) * len(outs):
                continue
            chosen.append(v)
        alive[v] = False
        outs.discard(v)
        ins.discard(v)
        for u in ins:
            out_arcs[u].discard(v)
            push(u)
        for w in outs:
            in_arcs[w].discard(v)
            push(w)

    in_deg = [0] * n
    removed = [False] * n
    for c in chosen:
        removed[c] = True
    for u in range(n):
        if not removed[u]:
            for v in succs[u]:
                in_deg[v] += 1
    ready = [c for c in range(n) if not removed[c] and not in_deg[c]]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succs[u]:
            if not removed[v]:
                in_deg[v] -= 1
                if not in_deg[v]:
                    ready.append(v)
    if seen != n - len(chosen):
        raise AstuteError(f"feedback vertex set of {p} misses a cycle; "
                          "this signals a bug")
    return tuple(sorted(chosen))


def search_extremal(p: GraphParams,
                    budget: SearchBudget | None = None) -> SearchResult:
    """Find a factor of G(n, k) with the maximum number of cycles.

    Exhaustive within the budget; returns optimal=False with the best
    incumbent when the node or time cap is hit.  Deterministic: the same
    instance and budget give the same certificate and node count.

    Depth-first over the vertices in packed order, each choosing its
    successor by appended symbol, on an explicit stack: tries[u] holds
    the successors of u not yet tried, and the chain ends the choice at u
    joined are kept to undo it on the way back up.
    """
    budget = budget or SearchBudget()
    n, k = p.num_vertices, p.k
    if n > budget.max_vertices:
        raise BudgetExceeded(
            f"{n} vertices exceeds search budget {budget.max_vertices}")
    # incumbent: the rotation-rule factor, so a run that finds nothing
    # strictly better still certificates with a valid factor
    best_succ = successor_array(pcr(p.n, p.b), k)
    best = len(cycle_lengths(best_succ))
    cap = cycle_capacity(p)
    # at the root no cycle is closed, so the bound is at most
    # min(vertices // k, cap) whatever F is: the successor table and F
    # are made only when that leaves the root open
    if min(n // k, cap) <= best:
        return SearchResult(best, Factor(p, best_succ), True, 0)
    table = successor_table(p)
    deadline = (time.monotonic() + budget.time_cap
                if budget.time_cap is not None else None)
    max_nodes = budget.max_nodes
    # does the chain ending at this tail hold a vertex of F?
    has_f = [0] * n  # 0 or 1: it is summed and masked
    for c in feedback_vertex_set(p):
        has_f[c] = 1
    f_chains = sum(has_f)
    if f_chains <= best:  # |F| closes the root
        return SearchResult(best, Factor(p, best_succ), True, 0)
    succ = [-1] * n
    pred_used = [False] * n
    head_of_tail = list(range(n))
    tail_of_head = list(range(n))
    len_of_tail = [1] * n
    tries: list = [None] * n
    # per depth, the chains the choice there joined: the head h1 of
    # u's chain (-1 when the choice closed a cycle), the tail t2 of
    # its successor's chain and that chain's F flag before the join
    joined_h1 = [-1] * n
    joined_t2 = [-1] * n
    joined_ft = [0] * n
    completed = closed = nodes = 0
    optimal = True
    u = 0
    tries[0] = iter(table[0])
    back = False  # true when coming back up to u: undo its choice
    while True:
        if back:
            v = succ[u]
            succ[u] = -1
            pred_used[v] = False
            h1 = joined_h1[u]
            if h1 < 0:
                completed -= 1
                closed -= len_of_tail[u]
                f_chains += has_f[u]
            else:
                t2 = joined_t2[u]
                ft = joined_ft[u]
                f_chains += ft & has_f[u]
                has_f[t2] = ft
                len_of_tail[t2] -= len_of_tail[u]
                head_of_tail[t2] = v
                tail_of_head[h1] = u
        for v in tries[u]:
            if not pred_used[v]:
                break
        else:
            if not u:
                break
            u -= 1
            back = True
            continue
        nodes += 1
        if nodes >= max_nodes or (deadline is not None and not nodes % 1024
                                  and time.monotonic() > deadline):
            optimal = False
            break
        h1 = head_of_tail[u]
        if h1 == v:
            completed += 1
            closed += len_of_tail[u]
            f_chains -= has_f[u]
            joined_h1[u] = -1
        else:
            t2 = tail_of_head[v]
            head_of_tail[t2] = h1
            tail_of_head[h1] = t2
            len_of_tail[t2] += len_of_tail[u]
            ft = has_f[t2]
            has_f[t2] = ft | has_f[u]
            f_chains -= ft & has_f[u]
            joined_h1[u] = h1
            joined_t2[u] = t2
            joined_ft[u] = ft
        pred_used[v] = True
        succ[u] = v
        u += 1
        back = True
        if u == n:
            if completed > best:
                best, best_succ = completed, list(succ)
            u -= 1
        elif completed + min(f_chains, (n - closed) // k,
                             cap - completed) <= best:
            u -= 1
        else:
            tries[u] = iter(table[u])
            back = False
    return SearchResult(best, Factor(p, best_succ), optimal, nodes)


@dataclass(frozen=True)
class ExtremalityReport:
    ok: bool
    search_count: int
    formula_count: int
    certificate: Factor
    nodes_explored: int = field(compare=False, default=0)

    def __bool__(self) -> bool:
        return self.ok


def verify_theorem1(p: GraphParams,
                    budget: SearchBudget | None = None) -> ExtremalityReport:
    """Check that the rotation-rule factor is extremal on G(n, k).

    Only defined when k | n or n | k.  Compares the exhaustive search
    optimum against the rotation-rule closed form; an incomplete search
    raises Inconclusive rather than guessing.
    """
    if p.n % p.k and p.k % p.n:
        raise PreconditionViolated(f"need k | n or n | k, got n={p.n}, k={p.k}")
    result = search_extremal(p, budget)
    if not result.optimal:
        raise Inconclusive(
            f"search hit its budget after {result.nodes_explored} nodes")
    formula = closed_form_pcr(p.n, p.k, p.b).value
    return ExtremalityReport(result.best_count == formula, result.best_count,
                             formula, result.certificate, result.nodes_explored)

