"""The range check of a caller-supplied index has one home.

Every index is read by ``weyl._int_in_range``, which words the error as
"<what> <x> out of range <lo>..<hi>".  This parses the library and fails on
any other ``InputError`` whose message says "out of range", so that the rule
is not written out again by hand.
"""

import ast
from pathlib import Path

import deodhar

SOURCES = sorted(Path(deodhar.__file__).resolve().parent.glob("*.py"))
HOME = ("weyl.py", "_int_in_range")


def _message_parts(node: ast.AST):
    """The literal text of a str constant or of an f-string's constant parts."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, ast.JoinedStr):
        for part in node.values:
            yield from _message_parts(part)


def _range_errors(tree: ast.AST, scope: str = ""):
    """(enclosing function, line) of each InputError call saying "out of range"."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _range_errors(node, node.name)
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "InputError"
            and any("out of range" in text for arg in node.args for text in _message_parts(arg))
        ):
            yield scope, node.lineno
        yield from _range_errors(node, scope)


def test_range_errors_have_one_home():
    sites = [
        (path.name, scope, line)
        for path in SOURCES
        for scope, line in _range_errors(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [(name, scope) for name, scope, _ in sites] == [HOME], sites
