"""Source hygiene that no installed linter checks: every name a module
under src/astute imports must be used in that module."""

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
