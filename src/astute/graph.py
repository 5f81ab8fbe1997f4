"""The graph G(n, k): tensor product of the order-n de Bruijn graph on
b symbols with a directed k-cycle.

Vertices are (word, phase) pairs with word in {0..b-1}^n and phase in
Z/kZ; there is an arc (s, i) -> (t, i+1) whenever t is s shifted left
one symbol with any new last symbol.  Adjacency is read from one
table, successor_table, of a range per vertex.

Each vertex has a canonical packed code word_value * k + phase, where
the word value places symbol 0 in the most significant base-b digit so
the shift is plain arithmetic.  A factor is stored as one thing only:
its packed successor permutation.  Cycles are walked from it on demand
and decode to Vertex objects only for the spectral checks; the text,
JSON and DOT renderings each read one string per vertex from a table
made by vertex_names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class GraphParams:
    b: int
    n: int
    k: int

    def __post_init__(self):
        for name in ("b", "n", "k"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass
                raise ValueError(f"{name} must be an int, not {value!r}")
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


def successor_table(p: GraphParams) -> list[range]:
    """The packed successors of every packed code c, ordered by appended
    symbol, as ranges: the b codes k apart from (value mod b^(n-1))·b·k
    + (phase + 1) mod k.  The one source of arcs: the search, F,
    validate_factor and to_dot all read it.  The rows depend on the word
    only through its last n - 1 symbols, so the first b^(n-1)·k rows are
    made and the list repeats them b times."""
    b, k = p.b, p.k
    step = b * k
    nexts = [(ph + 1) % k for ph in range(k)]
    return [range(base + ph, base + ph + step, k)
            for base in range(0, p.num_vertices, step) for ph in nexts] * b


@dataclass(frozen=True)
class Cycle:
    """One cycle of a factor: packed vertex codes in walk order."""
    codes: tuple[int, ...]
    params: GraphParams

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The cycle decoded to (word, phase) vertices."""
        return tuple(unpack(c, self.params) for c in self.codes)


@dataclass(frozen=True)
class Factor:
    """Vertex-disjoint cycles covering every vertex of G(n, k), held as
    the packed successor permutation: succ[c] is the vertex after c.
    Walk the cycles of a factor read from outside only once it validates."""
    params: GraphParams
    succ: tuple[int, ...]

    def __post_init__(self):
        # a private copy: the exhaustive search keeps mutating its list
        object.__setattr__(self, "succ", tuple(self.succ))

    def __len__(self) -> int:
        return len(self.cycles)

    @cached_property
    def cycles(self) -> tuple[Cycle, ...]:
        """Cycles in ascending order of their minimal packed vertex, each
        starting at that vertex."""
        succ = self.succ
        visited = [False] * len(succ)
        cycles = []
        start = 0
        try:
            while True:
                start = visited.index(False, start)
                codes = []
                c = start
                while not visited[c]:
                    visited[c] = True
                    codes.append(c)
                    c = succ[c]
                cycles.append(Cycle(tuple(codes), self.params))
        except ValueError:  # every slot marked
            return tuple(cycles)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    diagnostic: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _label(code: int, p: GraphParams) -> str:
    v = unpack(code, p)
    return f"{word_str(v.word)}@{v.phase}"


def validate_factor(f: Factor) -> ValidationResult:
    """Check that succ is a permutation along arcs: each vertex has one
    successor (-1 marks none) along an arc, and exactly one predecessor.
    Package code builds only valid factors; this is kept to check factors
    read from outside."""
    p = f.params
    n = p.num_vertices
    if len(f.succ) != n:
        return ValidationResult(False, f"{len(f.succ)} successors for {n} vertices")
    pred = [False] * n
    for c, (t, row) in enumerate(zip(f.succ, successor_table(p))):
        if t == -1:
            return ValidationResult(False, f"uncovered vertex {_label(c, p)}")
        if t not in row:
            return ValidationResult(False, f"broken arc {_label(c, p)} -> {_label(t, p)}")
        if pred[t]:
            return ValidationResult(False, f"duplicate vertex {_label(t, p)}")
        pred[t] = True
    return ValidationResult(True)


def check_renderable(b: int):
    """Refuse an alphabet too large to render words in."""
    if b > len(_DIGITS):
        raise ValueError("word rendering supports symbols < 36 only")


def word_sums(columns: list) -> list:
    """columns[0][a_0] + ... + columns[n-1][a_(n-1)] for every word
    a_0..a_(n-1), indexed by its packed value (n >= 1; values may be
    numbers or strings).

    Each half of the positions is tabled a position at a time, each pass
    extending every entry by every symbol; one last pass joins the
    halves, so most of the b^n entries are made once.
    """
    def table(cols):
        out = cols[0]
        for col in cols[1:]:
            out = [s + t for s in out for t in col]
        return list(out)

    half = (len(columns) + 1) // 2
    head = table(columns[:half])
    if half == len(columns):
        return head
    tail = table(columns[half:])
    return [h + t for h in head for t in tail]


def vertex_names(p: GraphParams, first: str = "", last: str = "@{}") -> list[str]:
    """first + word_str(word) + last.format(phase) for every vertex,
    indexed by its packed code: one word_sums call, with first glued to
    the first digit column and a last column of phase strings."""
    check_renderable(p.b)
    digits = _DIGITS[:p.b]
    return word_sums([[first + d for d in digits]] + [digits] * (p.n - 1)
                     + [[last.format(ph) for ph in range(p.k)]])


def cycle_lengths(succ_of) -> list[int]:
    """Length of each cycle of a packed successor permutation, in
    ascending order of the cycle's least member.

    Each walk marks slots in a list of bools, stops at the first marked
    one and counts the slots it marked; the next walk starts at the first
    unmarked slot, found by list.index.  So succ_of need not be a
    permutation: the walks and their number are those of Factor.cycles
    on the same list.  The marks are a list, not a bytearray, because
    CPython specialises list indexing and not bytearray indexing; that
    costs 8 bytes a slot instead of 1 (32 MiB at 2^22 slots) while the
    walk runs.
    """
    visited = [False] * len(succ_of)
    lengths = []
    start = 0
    try:
        while True:
            start = visited.index(False, start)
            length = 0
            c = start
            while not visited[c]:
                visited[c] = True
                c = succ_of[c]
                length += 1
            lengths.append(length)
    except ValueError:  # every slot marked
        return lengths


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


def factor_json(f: Factor, optimal: bool | None = None, extra: dict | None = None) -> str:
    """The factor's JSON document (schema astute/1), written as
    json.dumps(doc, indent=2) would write it, byte for byte.

    Each vertex's [word, phase] entry comes from one vertex_names table,
    and each cycle joins its entries; the words use 0-9a-z only, so need
    no escaping.  The other keys go through json.dumps with a placeholder
    standing in for the cycles.  The document as a dict is
    json.loads(factor_json(f)).
    """
    p = f.params
    entries = vertex_names(p, '      [\n        "', '",\n        {}\n      ]')
    cycles = ",\n".join(["    [\n" + ",\n".join(map(entries.__getitem__, cyc.codes))
                         + "\n    ]" for cyc in f.cycles])
    doc = {"schema": "astute/1", "b": p.b, "n": p.n, "k": p.k,
           "count": len(f.cycles), "cycles": None}
    if optimal is not None:
        doc["optimal"] = optimal
    if extra:
        doc.update(extra)
    head, tail = json.dumps(doc, indent=2).split('\n  "cycles": null', 1)
    return f'{head}\n  "cycles": [\n{cycles}\n  ]{tail}'


def factor_from_doc(doc: dict) -> Factor:
    """The factor a document describes; the one reader of outside input,
    kept for library users though no package code calls it.

    Refuses a b, n or k that is not an int (GraphParams), cycles or a
    cycle that is not a list, an entry that is not a [word, phase] pair,
    a word that is not a string of n symbols, a phase that is not an int
    in [0, k), a vertex listed twice and an empty cycle with ValueError.
    Arcs and coverage are validate_factor's: a vertex no cycle lists
    keeps successor -1."""
    p = GraphParams(b=doc["b"], n=doc["n"], k=doc["k"])
    succ = [-1] * p.num_vertices
    if not isinstance(doc["cycles"], (list, tuple)):
        raise ValueError(f"cycles {doc['cycles']!r} is not a list")
    for cyc in doc["cycles"]:
        if not isinstance(cyc, (list, tuple)):
            raise ValueError(f"cycle {cyc!r} is not a list")
        if not cyc:
            raise ValueError("empty cycle")
        codes = []
        for entry in cyc:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValueError(f"cycle entry {entry!r} is not a [word, phase] pair")
            w, ph = entry
            if not isinstance(w, str):
                raise ValueError(f"word {w!r} is not a string")
            word = parse_word(w, p.b)
            if len(word) != p.n:
                raise ValueError(f"word {w!r} has length {len(word)}, not n={p.n}")
            if type(ph) is not int or not 0 <= ph < p.k:
                raise ValueError(f"phase {ph!r} out of range for k={p.k}")
            codes.append(pack(Vertex(word, ph), p))
        for c, t in zip(codes, codes[1:] + codes[:1]):
            if succ[c] != -1:
                raise ValueError(f"vertex {_label(c, p)} listed twice")
            succ[c] = t
    return Factor(p, succ)


def to_dot(p: GraphParams, factor: Factor | None = None, color: str = "magenta") -> str:
    """DOT rendering of G(n, k); factor arcs get a color attribute."""
    labels = vertex_names(p, '"', '@{}"')
    succ = factor.succ if factor is not None else (-1,) * p.num_vertices
    marked = f" [color={color}]"
    lines = ["digraph astute {"]
    lines += [f"  {label};" for label in labels]
    for code, (label, row) in enumerate(zip(labels, successor_table(p))):
        arc = succ[code]
        for tcode in row:
            lines.append(f"  {label} -> {labels[tcode]}{marked if tcode == arc else ''};")
    lines.append("}")
    return "\n".join(lines) + "\n"
