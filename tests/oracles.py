"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the package's computation paths:
ideals are enumerated as additive closures, polynomial products and
remainders taken by schoolbook rules, a gcd found by trying every monic
divisor, necklaces counted by canonical rotations, the short-cycle
capacity taken from each word's own shifts, factor counts taken over raw
permutations, certificate words named by digit arithmetic, rule steps
solved by trying every symbol, factors built from the arc rule, fixed
words found by applying a rule to every word (or to every periodic word,
stepped as many times as its period).
From the package they take only data types (ModPoly, Factor), the
BudgetExceeded error and, to list the rules under test, the rule
constructors.
"""

from itertools import permutations, product
from math import gcd, lcm

from astute.algebra import ModPoly
from astute.errors import BudgetExceeded
from astute.graph import Factor

EXHAUSTIVE_MAX_VERTICES = 20


def all_words(n: int, b: int):
    if n == 0:
        yield ()
        return
    for head in all_words(n - 1, b):
        for a in range(b):
            yield head + (a,)


def reduce_mod_xd(coeffs, d: int, b: int) -> tuple:
    out = [0] * d
    for j, c in enumerate(coeffs):
        out[j % d] = (out[j % d] + c) % b
    return tuple(out)


def ideal_closure(lam: ModPoly, d: int) -> set:
    """All elements of the ideal (lam, X^d - 1) inside (Z/b)^d, by
    additive closure of the cyclic shifts of lam."""
    b = lam.modulus
    base = reduce_mod_xd(lam.coeffs, d, b)
    gens = []
    row = list(base)
    for _ in range(d):
        gens.append(tuple(row))
        row = [row[-1]] + row[:-1]
    closure = {tuple([0] * d)}
    frontier = list(closure)
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((x + y) % b for x, y in zip(v, g))
            if w not in closure:
                closure.add(w)
                frontier.append(w)
    return closure


def ideal_quotient_size_oracle(lam: ModPoly, d: int) -> int:
    return lam.modulus ** d // len(ideal_closure(lam, d))


def membership_oracle(lam: ModPoly, c: int, s: int) -> bool:
    target = tuple([c % lam.modulus] * s)
    return target in ideal_closure(lam, s)


def _stripped(f, b: int) -> list:
    out = [x % b for x in f]
    while out and not out[-1]:
        out.pop()
    return out


def poly_product(f, g, b: int) -> list:
    """f*g over Z/b, coefficient lists ascending by degree, by the
    schoolbook convolution; trailing zeros stripped."""
    out = [0] * (len(f) + len(g))
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return _stripped(out, b)


def poly_remainder(f, g, b: int) -> list:
    """f mod g over Z/b by long division, trailing zeros stripped: the top
    term of f is cancelled by a multiple of g until f is shorter than g.
    g's top coefficient (after stripping) must be a unit mod b."""
    g = _stripped(g, b)
    inv = pow(g[-1], -1, b)
    r = [x % b for x in f]
    while len(r) >= len(g):
        t = r.pop() * inv
        shift = len(r) - len(g) + 1
        for j, y in enumerate(g[:-1]):
            r[shift + j] = (r[shift + j] - t * y) % b
    return _stripped(r, b)


def gcd_by_enumeration(f, g, p: int) -> list:
    """The monic gcd of f and g over Z/p (p prime, f and g not both zero):
    the highest-degree monic polynomial dividing both, found by trying
    every monic polynomial of each degree from the top down."""
    f, g = _stripped(f, p), _stripped(g, p)
    for d in range(min(len(h) for h in (f, g) if h) - 1, -1, -1):
        for low in all_words(d, p):
            h = list(low) + [1]
            if not poly_remainder(f, h, p) and not poly_remainder(g, h, p):
                return h


def necklace_count(n: int, b: int) -> int:
    """Words that are minimal among their rotations."""
    count = 0
    for w in all_words(n, b):
        if all(w <= w[i:] + w[:i] for i in range(n)):
            count += 1
    return count


def cycle_capacity(b: int, n: int, k: int) -> int:
    """The short-cycle bound on the cycles of a factor of G(n, k): every
    word's minimal period by scanning the shifts of the word itself, then
    the lengths k, 2k, ... below n filled greedily, each with as many
    cycles as k * #{words of minimal period <= length} leaves room for,
    and the vertices left over cut into cycles of the first multiple of
    k that is >= n."""
    periods = {}
    for w in all_words(n, b):
        q = next(q for q in range(1, n + 1) if w[q:] == w[:n - q])
        periods[q] = periods.get(q, 0) + 1
    cycles = used = 0
    length = k
    while length < n:
        room = k * sum(c for q, c in periods.items() if q <= length)
        fit = (room - used) // length
        cycles += fit
        used += fit * length
        length += k
    return cycles + (b ** n * k - used) // length


def factor_count_by_permutations(p) -> int:
    """Number of vertex permutations compatible with the arc set, with
    vertices (word, phase) and arcs (s, i) -> (t, i+1), s[1:] = t[:-1],
    taken straight from the definition of G(n, k)."""
    vertices = [(w, i) for w in all_words(p.n, p.b) for i in range(p.k)]

    def is_arc(u, v):
        return u[0][1:] == v[0][:-1] and v[1] == (u[1] + 1) % p.k

    count = 0
    for perm in permutations(range(len(vertices))):
        if all(is_arc(vertices[i], vertices[j]) for i, j in enumerate(perm)):
            count += 1
    return count


def permutation_cycles(perm) -> list:
    """Cycles of a permutation of range(len(perm)), each a tuple starting
    at its least element, in ascending order of that element: every
    element's orbit is followed back to the element, and an orbit is kept
    from its least element only."""
    cycles = []
    for start in range(len(perm)):
        orbit = [start]
        while perm[orbit[-1]] != start:
            orbit.append(perm[orbit[-1]])
        if min(orbit) == start:
            cycles.append(tuple(orbit))
    return cycles


def function_walk_lengths(codes) -> list:
    """Lengths of the walks over any list of codes in [-1, len(codes)):
    each walk starts at the least slot no walk has reached, steps from c
    to codes[c] taken mod len(codes) (so -1 names the last slot) and
    stops before the first slot any walk has reached.  Reached slots are
    kept in a set."""
    reached = set()
    lengths = []
    for start in range(len(codes)):
        if start in reached:
            continue
        length, c = 0, start
        while c not in reached:
            reached.add(c)
            length += 1
            c = codes[c] % len(codes)
        lengths.append(length)
    return lengths


def factor_document(b: int, n: int, k: int, cycles, optimal=None, extra=None) -> dict:
    """The astute/1 document of a factor of G(n, k) whose cycles are
    lists of packed codes (word value * k + phase, symbol 0 the most
    significant base-b digit), each word named digit by digit."""
    def name(value):
        out = ""
        for _ in range(n):
            value, a = divmod(value, b)
            out = "0123456789abcdefghijklmnopqrstuvwxyz"[a] + out
        return out

    doc = {"schema": "astute/1", "b": b, "n": n, "k": k, "count": len(cycles),
           "cycles": [[[name(c // k), c % k] for c in cyc] for cyc in cycles]}
    if optimal is not None:
        doc["optimal"] = optimal
    if extra:
        doc.update(extra)
    return doc


def rule_step(lambdas, c: int, b: int, word) -> tuple:
    """The word an affine rule maps word to: shift left and append the x
    with lambdas[0]*a_0 + ... + lambdas[n-1]*a_(n-1) + lambdas[n]*x = c
    (mod b), solved by trying every symbol x."""
    n = len(lambdas) - 1
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != n = {n}")
    partial = sum(l * a for l, a in zip(lambdas, word))
    x, = [x for x in range(b) if (partial + lambdas[n] * x - c) % b == 0]
    return tuple(word[1:]) + (x,)


def rule_orbit_count(lambdas, c: int, b: int, k: int) -> int:
    """Cycles of the factor an affine rule generates on G(n, k): orbits of
    its permutation of the vertices (word, phase), walked one by one with
    rule_step."""
    n = len(lambdas) - 1

    def step(vertex):
        word, phase = vertex
        return rule_step(lambdas, c, b, word), (phase + 1) % k

    seen = set()
    orbits = 0
    for vertex in ((w, i) for w in all_words(n, b) for i in range(k)):
        if vertex in seen:
            continue
        orbits += 1
        while vertex not in seen:
            seen.add(vertex)
            vertex = step(vertex)
    return orbits


def smallest_cycle_length_oracle(lambdas, c: int, b: int, k: int) -> int:
    """Least lcm(k, L) over the lengths L of the cycles of an affine
    rule's word permutation, each cycle walked once with rule_step."""
    n = len(lambdas) - 1
    seen = set()
    best = None
    for word in all_words(n, b):
        if word in seen:
            continue
        length = 0
        while word not in seen:
            seen.add(word)
            word = rule_step(lambdas, c, b, word)
            length += 1
        best = lcm(k, length) if best is None else min(best, lcm(k, length))
    return best


def affine_rules(b: int, n: int):
    """(lambdas, c) for every affine rule over Z/b on words of length n:
    lambdas[0] and lambdas[n] units, the rest and c anything."""
    units = [u for u in range(1, b) if gcd(u, b) == 1]
    for first in units:
        for middle in product(range(b), repeat=n - 1):
            for last in units:
                for c in range(b):
                    yield (first, *middle, last), c


def affine_rule_permutation(lambdas, c: int, b: int) -> list:
    """The rule on packed words (a_0 the most significant digit): each word
    shifted left with the x appended that solves lambdas[0]*a_0 + ... +
    lambdas[n]*x = c (mod b), found for each residue of the partial sum by
    trying every symbol."""
    n = len(lambdas) - 1
    partial = [0]  # sum of lambdas[i] * a_i mod b, words in packed order
    for lam in lambdas[:-1]:
        partial = [(s + lam * a) % b for s in partial for a in range(b)]
    solve = [[x for x in range(b) if (r + lambdas[n] * x - c) % b == 0][0]
             for r in range(b)]
    head = b ** (n - 1)
    return [(w % head) * b + solve[s] for w, s in enumerate(partial)]


def periodic_fixed_count(lambdas, c: int, b: int, j: int) -> int:
    """Words of length n = len(lambdas) - 1 > j that repeat with period j
    and come back after j steps of rule_step: each j-periodic extension
    of a word of length j, stepped j times."""
    n = len(lambdas) - 1
    fixed = 0
    for head in all_words(j, b):
        word = start = tuple(head[i % j] for i in range(n))
        for _ in range(j):
            word = rule_step(lambdas, c, b, word)
        fixed += word == start
    return fixed


def periodic_extensions(n: int, b: int, j: int) -> set:
    """Packed values of the words a_0..a_(n-1) with a_i = u_(i mod j), one
    for each word u of length j."""
    out = set()
    for u in all_words(j, b):
        value = 0
        for i in range(n):
            value = value * b + u[i % j]
        out.add(value)
    return out


def permutation_power(perm, m: int) -> list:
    """perm applied m >= 0 times, as a list, by repeated squaring."""
    power = list(range(len(perm)))
    while m:
        if m & 1:
            power = [perm[v] for v in power]
        perm = [perm[v] for v in perm]
        m >>= 1
    return power


def permutation_order(perm) -> int:
    """lcm of the cycle lengths of perm, each cycle walked once."""
    seen = bytearray(len(perm))
    order = 1
    for start in range(len(perm)):
        length, w = 0, start
        while not seen[w]:
            seen[w] = 1
            w = perm[w]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def _vertex_successors(b: int, n: int, k: int) -> list:
    """For each vertex (word, phase) of G(n, k), in the order words
    lexicographic, then phase, the indices in that order of its successors
    (s, i) -> (s[1:] + (x,), i+1 mod k), by appended symbol x."""
    vertices = [(w, i) for w in all_words(n, b) for i in range(k)]
    index = {v: c for c, v in enumerate(vertices)}
    return [[index[(w[1:] + (x,), (i + 1) % k)] for x in range(b)]
            for w, i in vertices]


def acyclic_without(b: int, n: int, k: int, removed) -> bool:
    """Whether G(n, k) minus the vertices with the given packed codes has
    no cycle, by Kahn's algorithm.  Vertices are (word, phase) with arcs
    (s, i) -> (s[1:] + (x,), i+1 mod k), straight from the definition;
    code c names the c-th vertex in the order words lexicographic, then
    phase, which is how the package packs them."""
    out = _vertex_successors(b, n, k)
    gone = set(removed)
    kept = [c for c in range(len(out)) if c not in gone]
    in_deg = {c: 0 for c in kept}
    for c in kept:
        for d in out[c]:
            if d not in gone:
                in_deg[d] += 1
    ready = [c for c in kept if in_deg[c] == 0]
    seen = 0
    while ready:
        c = ready.pop()
        seen += 1
        for d in out[c]:
            if d not in gone:
                in_deg[d] -= 1
                if in_deg[d] == 0:
                    ready.append(d)
    return seen == len(kept)


def exhaustive_factors(p):
    """Every factor of G(n, k), one per successor choice that is a
    permutation, in lexicographic order of the choices; refused past
    EXHAUSTIVE_MAX_VERTICES vertices."""
    n = p.num_vertices
    if n > EXHAUSTIVE_MAX_VERTICES:
        raise BudgetExceeded(
            f"{n} vertices exceeds exhaustive budget {EXHAUSTIVE_MAX_VERTICES}")
    choices = _vertex_successors(p.b, p.n, p.k)
    succ = [-1] * n
    taken = [False] * n

    def descend(u):
        if u == n:
            yield Factor(p, succ)
            return
        for v in choices[u]:
            if not taken[v]:
                taken[v] = True
                succ[u] = v
                yield from descend(u + 1)
                taken[v] = False

    return descend(0)


def random_factor(p, rng):
    """A uniformly random factor of G(n, k).  The b vertices (y w, i) share
    the successors (w x, i+1), so a factor is one permutation of the
    alphabet per (suffix w, phase i), drawn by rng.shuffle in that order."""
    b, n, k = p.b, p.n, p.k
    head = b ** (n - 1)
    succ = [0] * p.num_vertices
    for w in range(head):
        for ph in range(k):
            perm = list(range(b))
            rng.shuffle(perm)
            for y in range(b):
                # packed code: word value * k + phase, first symbol most significant
                succ[(y * head + w) * k + ph] = (w * b + perm[y]) * k + (ph + 1) % k
    return Factor(p, succ)


def debruijn_arcs_direct(n: int, b: int) -> set:
    """Arc set of the order-n de Bruijn graph, straight from the definition."""
    arcs = set()
    for s in all_words(n, b):
        for t in all_words(n, b):
            if s[1:] == t[:-1]:
                arcs.add((s, t))
    return arcs


def transform_reference(word) -> complex:
    """DFT by direct exponentials, summed in reverse order."""
    import cmath
    n = len(word)
    return sum(word[i] * cmath.exp(2j * cmath.pi * i / n)
               for i in range(n - 1, -1, -1))


def cycle_sum_vanishes(codes, b: int, n: int, k: int) -> bool:
    """Whether sum S_i mu^i = 0, with S_i symbol i summed over the words of
    the packed vertices (word value * k + phase), each word looked up in
    the all_words list.  For n <= 4 and n = 6 every nonzero value has
    modulus >= 1 (an integer of Z[i] or Z[exp(2 pi i / 3)]), so a float
    sum decides it."""
    if n not in (1, 2, 3, 4, 6):
        raise ValueError("the float decision needs n in 1, 2, 3, 4, 6")
    words = list(all_words(n, b))
    sums = [sum(words[c // k][i] for c in codes) for i in range(n)]
    return abs(transform_reference(sums)) < 0.5


def fixed_affine_rules(b: int, n: int, count: int = 5):
    """The deterministic custom-rule set used across the test lattice."""
    import random
    from astute.algebra import is_unit
    from astute.rules import AffineRule

    rng = random.Random(97 * b + n)
    out = []
    while len(out) < count:
        lams = [rng.randrange(b) for _ in range(n + 1)]
        if not (is_unit(lams[0], b) and is_unit(lams[-1], b)):
            continue
        out.append(AffineRule(tuple(lams), rng.randrange(b), b))
    return out


def lattice_rules():
    """Every rule in the agreement lattice: built-ins plus the fixed
    custom rules per (b, n), plus the binary sum rule up to n = 5."""
    from astute.rules import icr, pcr, xor_rule

    rules = []
    for b in (2, 3):
        for n in range(1, 5):
            rules += [pcr(n, b), icr(n, b)]
            rules += fixed_affine_rules(b, n)
            if b == 2:
                rules.append(xor_rule(n))
    rules.append(xor_rule(5))
    return rules

