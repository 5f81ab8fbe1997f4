"""Source hygiene that no installed linter checks: every name a module
under src/astute imports must be used in that module, and every public
name the package defines must be read by package code (helpers only the
tests call belong in the tests)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "astute"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in `source` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                           key=lambda kv: kv[1])
            if name not in used]


def test_detects_unused_import():
    source = "from math import gcd, lcm\nimport os.path\n\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == ["line 1: lcm", "line 2: os"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


# Public names that no module in src/astute references, each with the
# reason it stays in the package.
KEPT = {
    "factor_from_doc": "reads a certificate back from outside",
    "validate_factor": "checks a factor read from outside",
    "covering_check": "the covering property's check until a decycling "
                      "certificate replaces it",
}


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """Public functions, methods and classes (dunders excluded) defined in
    `sources` (module name -> source) whose name no source reads, as
    'module.Class.name' strings.  A read is a Name or an attribute access;
    re-exports by import are not reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [qual for qual, name in defined
            if not name.startswith("_") and name not in read and name not in KEPT]


def test_detects_unreferenced_public_name():
    sources = {"a": "def used():\n    pass\n\n\ndef unused():\n    used()\n\n\n"
                    "class C:\n    def method(self):\n        pass\n\n"
                    "    def __len__(self):\n        return 0\n\n\n"
                    "def _private():\n    pass\n\n\n"
                    "def factor_from_doc():\n    pass\n",
               "b": "from .a import unused\n\nx = C()\n"}
    assert unreferenced_public_names(sources) == ["a.unused", "a.C.method"]


def test_no_test_only_public_api():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_names(sources) == []


# The process-wide caches: module-level functions memoized by lru_cache or
# cache, each with the reason it is kept.  Their entries outlive one
# command, so a cache added here must be one whose entries stay right for
# any later call and whose reuse the benchmark can clear or does not
# mind.  A value derived from one object (a cached_property) dies with
# the object and is not listed.
CACHES = {
    "cli._parsers": "the argument parsers depend on no input and hold no "
                    "functions, so one build serves every call",
    "ideals.ideal_quotient_size": "verify's fix-count row asks one quotient size "
                                  "for many exponents; the benchmark clears it",
    "spectral.cyclotomic": "each cyclotomic polynomial is built from the lower "
                           "ones; the benchmark clears it",
    "spectral._roots": "a transform reads the n-th roots of unity once per "
                       "word, and they depend on n alone",
}


def module_caches(sources: dict[str, str]) -> list[str]:
    """'module.name' of every function in `sources` (module name -> source)
    decorated with lru_cache or cache, called or not, bare or as an
    attribute of functools."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.FunctionDef):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else \
                    getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append(f"{module}.{node.name}")
    return sorted(found)


def test_detects_module_cache():
    source = ("import functools\nfrom functools import cache, cached_property, lru_cache\n\n"
              "@lru_cache(maxsize=4)\ndef a(x):\n    pass\n\n"
              "@functools.cache\ndef b(x):\n    pass\n\n"
              "@cache\ndef c(x):\n    pass\n\n"
              "class C:\n    @cached_property\n    def d(self):\n        pass\n")
    assert module_caches({"m": source}) == ["m.a", "m.b", "m.c"]


def test_process_wide_caches_are_pinned():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert module_caches(sources) == sorted(CACHES)
