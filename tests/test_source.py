"""Rules on the package source itself.

Verification must survive ``python -O``, which strips ``assert`` statements,
so the package raises its documented errors instead of asserting.
"""

import ast
from pathlib import Path

import drgq

SOURCES = sorted(Path(drgq.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "qpoly.py", "spectral.py"}


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"
