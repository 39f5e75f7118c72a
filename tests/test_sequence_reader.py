"""Every caller-supplied sequence is read by one rule, ``weyl._seq_from_json``.

A word, an index set, a weight, matrix rows, the fields of a trace and of
its JSON object, permutation images, group-word factors and R-polynomial
coefficients are each a list or a tuple.  A set, a dict, a string, a range
or a generator is refused by name, never read in an order of its own: a set
or a dict would otherwise be read by its iteration order or its keys, and a
generator used up by a first pass.
"""

import ast
from pathlib import Path

import pytest

import deodhar
from deodhar.components import classify, minor_polynomial
from deodhar.diagrams import classical_arrangement
from deodhar.errors import InputError
from deodhar.linalg import RatMatrix
from deodhar.pinning import FACTOR_S, GroupFactor, GroupWord, reduce_flag
from deodhar.positivity import random_positive_sample, sample_positive
from deodhar.subexpr import RPolynomial, SubexpressionTrace, trace_from_json
from deodhar.weyl import (
    Permutation,
    act,
    check_reduced_word,
    evaluate_word,
    identity_perm,
    is_reduced,
    pair,
    simple_reflection,
)

_E = identity_perm(3)
_W = Permutation((2, 3, 1))
_I = RatMatrix.identity(3)
_E2, _S1 = identity_perm(2), simple_reflection(2, 1)


def _trace(**fields):
    return SubexpressionTrace(**{"word": [1], "values": [_E2, _S1], "marks": ["+"], **fields})


def _trace_json(**fields):
    return trace_from_json({"word": [1], "values": [[1, 2], [2, 1]], "marks": ["+"], **fields})


# site -> (a valid sequence, call taking it, what the reader names)
SITES = {
    "check_reduced_word": ((1, 2), lambda x: check_reduced_word(3, x), "word"),
    "evaluate_word": ((1, 2), lambda x: evaluate_word(3, x), "word"),
    "is_reduced": ((1, 2), lambda x: is_reduced(3, x), "word"),
    "classify": ((1, 2), lambda x: classify(_I, x), "word"),
    "classical_arrangement": ((1, 2), lambda x: classical_arrangement(x, 3), "word"),
    "reduce_flag": ((1, 2), lambda x: reduce_flag(_I, x, 1), "word"),
    "random_positive_sample": ((1, 2), lambda x: random_positive_sample(_E, x, 7), "word"),
    "sample_positive": ((1, 2), lambda x: sample_positive(_E, x, [1, 2]), "word"),
    "minor-rows": ((1, 2), lambda x: _I.minor(x, (1, 2)), "index set"),
    "minor-cols": ((1, 2), lambda x: _I.minor((1, 2), x), "index set"),
    "minor_polynomial-rows": ((1, 2), lambda x: minor_polynomial(x, (1, 3), 3), "index set"),
    "minor_polynomial-cols": ((1, 3), lambda x: minor_polynomial((1, 2), x, 3), "index set"),
    "act": ((1, 2, 3), lambda x: act(_W, x), "weight"),
    "pair": ((1, 2, 3), lambda x: pair(x, 1), "weight"),
    "from_rows-rows": (((1, 0), (0, 1)), RatMatrix, "matrix rows"),
    "from_rows-row": ((1, 0), lambda x: RatMatrix([x, (0, 1)]), "matrix row"),
    "Permutation": ((2, 3, 1), Permutation, "permutation images"),
    "GroupWord": ((GroupFactor(FACTOR_S, 1),), lambda x: GroupWord(2, x), "group word factors"),
    "SubexpressionTrace-word": ((1,), lambda x: _trace(word=x), "trace word"),
    "SubexpressionTrace-values": ((_E2, _S1), lambda x: _trace(values=x), "trace values"),
    "SubexpressionTrace-marks": (("+",), lambda x: _trace(marks=x), "trace marks"),
    "trace_from_json-word": ((1,), lambda x: _trace_json(word=x), "trace word"),
    "trace_from_json-values": (((1, 2), (2, 1)), lambda x: _trace_json(values=x), "trace values"),
    "trace_from_json-value": ((2, 1), lambda x: _trace_json(values=[[1, 2], x]), "trace value"),
    "RPolynomial": ((1, -2, 1), RPolynomial, "R-polynomial coefficients"),
    "RPolynomial.from_coeffs": ((1, -2, 1), RPolynomial.from_coeffs, "R-polynomial coefficients"),
}

# container -> the valid sequence held in it
CONTAINERS = {
    "set": set,
    "dict": dict.fromkeys,
    "str": lambda good: "".join(map(str, good)),
    "range": lambda good: range(1, len(good) + 1),
    "generator": lambda good: (x for x in good),
}


@pytest.mark.parametrize("container", sorted(CONTAINERS))
@pytest.mark.parametrize("site", sorted(SITES))
def test_only_a_list_or_a_tuple_is_read(site, container):
    good, call, what = SITES[site]
    assert call(list(good)) == call(tuple(good))
    bad = CONTAINERS[container](good)
    with pytest.raises(InputError) as exc:
        call(bad)
    assert str(exc.value) == f"{what} must be a list or a tuple, got {bad!r}"


@pytest.mark.parametrize("word, message", [
    ([1, 99], "letter 99 out of range 1..2"),
    ([1, 1.5], "letter must be an integer, got 1.5"),
])
def test_reduce_flag_reads_the_letters_past_its_prefix(word, message):
    with pytest.raises(InputError) as exc:
        reduce_flag(_I, word, 1)
    assert str(exc.value) == message


def test_check_reduced_word_reads_its_degree_before_the_letters():
    # d - 1 bounds each letter, so a str degree escaped as a bare TypeError.
    with pytest.raises(InputError) as exc:
        check_reduced_word("3", [1])
    assert str(exc.value) == "degree must be an integer, got '3'"


SOURCES = sorted(Path(deodhar.__file__).resolve().parent.glob("*.py"))
# sample_positive also takes a mapping, so it keeps its own three-way check.
HOMES = [("positivity.py", "sample_positive"), ("weyl.py", "_seq_from_json")]


def _list_or_tuple_checks(tree: ast.AST, scope: str = ""):
    """The enclosing function of each ``isinstance(x, (list, tuple))``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _list_or_tuple_checks(node, node.name)
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
            and {getattr(e, "id", None) for e in node.args[1].elts} == {"list", "tuple"}
        ):
            yield scope
        yield from _list_or_tuple_checks(node, scope)


def test_the_list_or_tuple_rule_has_one_home():
    sites = sorted(
        (path.name, scope)
        for path in SOURCES
        for scope in _list_or_tuple_checks(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert sites == HOMES
