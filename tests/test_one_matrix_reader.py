"""A caller's matrix has one reader, the ``RatMatrix`` constructor.

The constructor reads the rows and every entry of what it is given.  The
library builds each matrix of its own from values it already holds through
``weyl._built``, which skips that read, and calls the constructor only in
``matrix_from_json``, on a caller's JSON document.  This parses the library
and fails on any other call of the constructor.
"""

import ast
from pathlib import Path

import deodhar

SOURCES = sorted(Path(deodhar.__file__).resolve().parent.glob("*.py"))
HOME = ("linalg.py", "matrix_from_json")


def _constructor_calls(tree: ast.AST, scope: str = ""):
    """(enclosing function, line) of each call of ``RatMatrix`` or ``<module>.RatMatrix``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _constructor_calls(node, node.name)
            continue
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "RatMatrix")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "RatMatrix")
        ):
            yield scope, node.lineno
        yield from _constructor_calls(node, scope)


def test_only_matrix_from_json_calls_the_constructor():
    sites = [
        (path.name, scope, line)
        for path in SOURCES
        for scope, line in _constructor_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [(name, scope) for name, scope, _ in sites] == [HOME], sites
