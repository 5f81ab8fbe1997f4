"""The graph G(n, k): tensor product of the order-n de Bruijn graph on
b symbols with a directed k-cycle.

Vertices are (word, phase) pairs with word in {0..b-1}^n and phase in
Z/kZ; there is an arc (s, i) -> (t, i+1) whenever t is s shifted left
one symbol with any new last symbol.  Adjacency is always computed on
demand; the arc set is never materialized.

Each vertex has a canonical packed code word_value * k + phase, where
the word value places symbol 0 in the most significant base-b digit so
the shift is plain arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class GraphParams:
    b: int
    n: int
    k: int

    def __post_init__(self):
        if self.b < 2:
            raise ValueError("alphabet size b must be >= 2")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be >= 1")

    @property
    def num_vertices(self) -> int:
        return self.b ** self.n * self.k


class Vertex(NamedTuple):
    word: tuple[int, ...]
    phase: int


def word_value(word: tuple[int, ...], b: int) -> int:
    v = 0
    for a in word:
        v = v * b + a
    return v


def value_word(value: int, n: int, b: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        value, out[i] = divmod(value, b)
    return tuple(out)


def pack(v: Vertex, p: GraphParams) -> int:
    return word_value(v.word, p.b) * p.k + v.phase


def unpack(code: int, p: GraphParams) -> Vertex:
    value, phase = divmod(code, p.k)
    return Vertex(value_word(value, p.n, p.b), phase)


def check_vertex(v: Vertex, p: GraphParams):
    if len(v.word) != p.n or any(not 0 <= a < p.b for a in v.word):
        raise ValueError(f"word {v.word} invalid for b={p.b}, n={p.n}")
    if not 0 <= v.phase < p.k:
        raise ValueError(f"phase {v.phase} out of range for k={p.k}")


def successors(v: Vertex, p: GraphParams) -> list[Vertex]:
    """The b out-neighbours of v, ordered by appended symbol."""
    check_vertex(v, p)
    tail = v.word[1:]
    ph = (v.phase + 1) % p.k
    return [Vertex(tail + (x,), ph) for x in range(p.b)]


def is_arc(u: Vertex, v: Vertex, p: GraphParams) -> bool:
    check_vertex(u, p)
    check_vertex(v, p)
    return u.word[1:] == v.word[:-1] and v.phase == (u.phase + 1) % p.k


def successor_codes(code: int, p: GraphParams) -> list[int]:
    """Packed successors of a packed vertex, ordered by appended symbol."""
    value, phase = divmod(code, p.k)
    shifted = (value % p.b ** (p.n - 1)) * p.b
    ph = (phase + 1) % p.k
    return [(shifted + x) * p.k + ph for x in range(p.b)]


@dataclass(frozen=True)
class Cycle:
    vertices: tuple[Vertex, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Factor:
    """Vertex-disjoint cycles covering every vertex of G(n, k)."""
    cycles: tuple[Cycle, ...]
    params: GraphParams

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    diagnostic: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_factor(f: Factor) -> ValidationResult:
    """Check arcs, cyclic closure, disjointness, and total coverage."""
    p = f.params
    seen: set[int] = set()
    for cyc in f.cycles:
        vs = cyc.vertices
        if not vs:
            return ValidationResult(False, "empty cycle")
        for v in vs:
            try:
                check_vertex(v, p)
            except ValueError as e:
                return ValidationResult(False, f"invalid vertex: {e}")
            code = pack(v, p)
            if code in seen:
                return ValidationResult(False, f"duplicate vertex {word_str(v.word)}@{v.phase}")
            seen.add(code)
        for i, v in enumerate(vs):
            w = vs[(i + 1) % len(vs)]
            if not is_arc(v, w, p):
                return ValidationResult(
                    False,
                    f"broken arc {word_str(v.word)}@{v.phase} -> {word_str(w.word)}@{w.phase}")
    if len(seen) != p.num_vertices:
        missing = next(c for c in range(p.num_vertices) if c not in seen)
        v = unpack(missing, p)
        return ValidationResult(False, f"uncovered vertex {word_str(v.word)}@{v.phase}")
    return ValidationResult(True)


def all_words(p: GraphParams) -> list[tuple[int, ...]]:
    """Every word, indexed by its packed value."""
    return list(product(range(p.b), repeat=p.n))


def factor_from_successor(succ_of, p: GraphParams) -> Factor:
    """Assemble a Factor from a packed successor permutation.

    Cycles are emitted in ascending order of their minimal packed vertex
    and each starts at that vertex.
    """
    n = p.num_vertices
    k = p.k
    words = all_words(p)
    visited = bytearray(n)
    cycles = []
    for start in range(n):
        if visited[start]:
            continue
        cyc = []
        c = start
        while not visited[c]:
            visited[c] = 1
            cyc.append(Vertex(words[c // k], c % k))
            c = succ_of[c]
        cycles.append(Cycle(tuple(cyc)))
    return Factor(tuple(cycles), p)


def count_cycles(succ_of) -> int:
    """Number of cycles of a packed successor permutation."""
    visited = bytearray(len(succ_of))
    count = 0
    for start in range(len(succ_of)):
        if visited[start]:
            continue
        count += 1
        c = start
        while not visited[c]:
            visited[c] = 1
            c = succ_of[c]
    return count


def iter_vertices(p: GraphParams) -> Iterator[Vertex]:
    for code in range(p.num_vertices):
        yield unpack(code, p)


def word_str(word: tuple[int, ...]) -> str:
    """Render a word as base-b digits (supports b <= 36)."""
    if max(word, default=0) >= len(_DIGITS):
        raise ValueError("word rendering supports symbols < 36 only")
    return "".join([_DIGITS[a] for a in word])


def parse_word(s: str, b: int) -> tuple[int, ...]:
    word = tuple(_DIGITS.index(ch) for ch in s.lower())
    if any(not 0 <= a < b for a in word):
        raise ValueError(f"word {s!r} has symbols outside [0, {b})")
    return word


def factor_to_doc(f: Factor, optimal: bool | None = None, extra: dict | None = None) -> dict:
    """JSON document for a factor (schema astute/1)."""
    p = f.params
    doc = {
        "schema": "astute/1",
        "b": p.b,
        "n": p.n,
        "k": p.k,
        "count": len(f.cycles),
        "cycles": [[[word_str(v.word), v.phase] for v in c.vertices] for c in f.cycles],
    }
    if optimal is not None:
        doc["optimal"] = optimal
    if extra:
        doc.update(extra)
    return doc


def factor_from_doc(doc: dict) -> Factor:
    p = GraphParams(b=doc["b"], n=doc["n"], k=doc["k"])
    cycles = tuple(
        Cycle(tuple(Vertex(parse_word(w, p.b), ph) for w, ph in cyc))
        for cyc in doc["cycles"])
    return Factor(cycles, p)


def to_dot(p: GraphParams, factor: Factor | None = None, color: str = "magenta") -> str:
    """DOT rendering of G(n, k); factor arcs get a color attribute."""
    k = p.k
    words = all_words(p)
    labels = [f'"{name}@{ph}"' for name in map(word_str, words) for ph in range(k)]
    marked: set[tuple[int, int]] = set()
    if factor is not None:
        value_of = {w: i for i, w in enumerate(words)}
        for cyc in factor.cycles:
            codes = [value_of[v.word] * k + v.phase for v in cyc.vertices]
            marked.update(zip(codes, codes[1:] + codes[:1]))
    lines = ["digraph astute {"]
    lines += [f"  {label};" for label in labels]
    for code, label in enumerate(labels):
        for tcode in successor_codes(code, p):
            attr = f" [color={color}]" if (code, tcode) in marked else ""
            lines.append(f"  {label} -> {labels[tcode]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
