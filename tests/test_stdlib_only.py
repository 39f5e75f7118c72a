"""The library imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``; this keeps it true.
"""

import ast
import sys
from pathlib import Path

import pytest

import deodhar

SOURCES = sorted(Path(deodhar.__file__).resolve().parent.glob("*.py"))


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert {"__init__.py", "cli.py", "subexpr.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        name
        for name in _absolute_imports(tree)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
