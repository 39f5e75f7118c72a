"""Every size limit has one home, the table ``errors.LIMITS``.

A limit is read by ``errors.check_limit``, which raises the row's message.
This parses the library and fails on a "limited to" message or a
``*_GUARD`` name outside the table, and on a row that no call site reads.
"""

import ast
import re
from pathlib import Path

import pytest

import deodhar
from deodhar.errors import LIMITS, DomainError, check_limit

SOURCES = sorted(Path(deodhar.__file__).resolve().parent.glob("*.py"))


def _outside_the_table(path: Path) -> str:
    """The source of a library module, less the LIMITS table in errors.py."""
    text = path.read_text(encoding="utf-8")
    if path.name == "errors.py":
        (table,) = [
            node
            for node in ast.parse(text).body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["LIMITS"]
        ]
        text = text.replace(ast.get_source_segment(text, table), "")
    return text


def test_limits_have_one_home():
    found = [
        (path.name, match.group())
        for path in SOURCES
        for match in re.finditer(r"limited to|\w*_GUARD\b", _outside_the_table(path))
    ]
    assert found == []


def test_every_row_is_read_by_check_limit():
    read = {
        node.args[0].value
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "check_limit"
        and isinstance(node.args[0], ast.Constant)
    }
    assert read == set(LIMITS)


@pytest.mark.parametrize("name", LIMITS)
def test_check_limit_passes_at_the_bound_and_raises_above(name):
    limit, message = LIMITS[name]
    assert check_limit(name, limit) == limit
    with pytest.raises(DomainError) as exc:
        check_limit(name, limit + 1)
    assert str(exc.value) == message.format(value=limit + 1, limit=limit)
    assert "out of range" not in str(exc.value)
