"""Every library object a caller passes is read by one rule, ``weyl._obj_from_caller``.

A function that takes a `Permutation`, a `RatMatrix`, a `GroupWord`, a
`GroupFactor` or a `SubexpressionTrace` refuses any other object with
``InputError("<what> must be a <Class>, got <type>")`` before it reads an
attribute, so a string, None or a list never escapes as a bare
AttributeError.  Operators (``Permutation.__mul__``, ``RatMatrix.__mul__``)
are left as they are.
"""

import pytest

from deodhar.errors import InputError
from deodhar.linalg import (
    RatMatrix,
    bruhat_position,
    flag_equal,
    matrix_to_json,
    opposite_position,
    unipotent_representative,
)
from deodhar.pinning import (
    FACTOR_S,
    GroupFactor,
    GroupWord,
    apply_lift,
    evaluate,
    factor_matrix,
    gmin,
    group_word_to_json,
    partial,
    perm_matrix,
    reduce_flag,
)
from deodhar.positivity import random_positive_sample, sample_positive
from deodhar.subexpr import (
    SubexpressionTrace,
    enumerate_distinguished,
    is_distinguished,
    positive_subexpression,
    r_polynomial,
    trace_to_json,
)
from deodhar.weyl import (
    Permutation,
    a_reduced_word,
    act,
    bruhat_leq,
    identity_perm,
    longest_element,
    reduced_words,
)

_E, _W0 = identity_perm(3), longest_element(3)
_I = RatMatrix.identity(3)
_GW = GroupWord(3, (GroupFactor(FACTOR_S, 1),))
_TRACE = positive_subexpression(_E, (1, 2, 1))

# entry point -> (a valid object, call taking it, what the reader names)
ENTRIES = {
    "bruhat_leq-v": (_E, lambda x: bruhat_leq(x, _W0), "v"),
    "bruhat_leq-w": (_W0, lambda x: bruhat_leq(_E, x), "w"),
    "act": (_W0, lambda x: act(x, (1, 0, 0)), "w"),
    "a_reduced_word": (_W0, a_reduced_word, "w"),
    "reduced_words": (_W0, reduced_words, "w"),
    "r_polynomial-v": (_E, lambda x: r_polynomial(x, _W0, (1, 2, 1)), "v"),
    "r_polynomial-w": (_W0, lambda x: r_polynomial(_E, x, (1, 2, 1)), "w"),
    "positive_subexpression": (_E, lambda x: positive_subexpression(x, (1, 2, 1)), "v"),
    "enumerate_distinguished": (_E, lambda x: enumerate_distinguished(x, (1, 2, 1)), "v"),
    "is_distinguished": (_TRACE, is_distinguished, "trace"),
    "trace_to_json": (_TRACE, trace_to_json, "trace"),
    "flag_equal-a": (_I, lambda x: flag_equal(x, _I), "flag representative"),
    "flag_equal-b": (_I, lambda x: flag_equal(_I, x), "flag representative"),
    "bruhat_position": (_I, bruhat_position, "matrix"),
    "opposite_position": (_I, opposite_position, "matrix"),
    "unipotent_representative": (_I, unipotent_representative, "matrix"),
    "matrix_to_json": (_I, matrix_to_json, "matrix"),
    "gmin-g": (_I, lambda x: gmin(x, _E, _E, 1), "matrix"),
    "gmin-v": (_E, lambda x: gmin(_I, x, _E, 1), "v"),
    "gmin-w": (_E, lambda x: gmin(_I, _E, x, 1), "w"),
    "evaluate": (_GW, evaluate, "group word"),
    "partial": (_GW, lambda x: partial(x, 1), "group word"),
    "group_word_to_json": (_GW, group_word_to_json, "group word"),
    "perm_matrix": (_W0, perm_matrix, "w"),
    "apply_lift-g": (_I, lambda x: apply_lift(x, _W0), "matrix"),
    "apply_lift-w": (_W0, lambda x: apply_lift(_I, x), "w"),
    "factor_matrix": (GroupFactor(FACTOR_S, 1), lambda x: factor_matrix(3, x), "factor"),
    "reduce_flag": (_I, lambda x: reduce_flag(x, (1, 2), 1), "flag representative"),
    "sample_positive": (_E, lambda x: sample_positive(x, (1, 2, 1), [1, 2, 3]), "v"),
    "random_positive_sample": (_E, lambda x: random_positive_sample(x, (1, 2, 1), 7), "v"),
}

CLASSES = {
    "v": Permutation,
    "w": Permutation,
    "trace": SubexpressionTrace,
    "flag representative": RatMatrix,
    "matrix": RatMatrix,
    "group word": GroupWord,
    "factor": GroupFactor,
}


@pytest.mark.parametrize("bad", ["x", None, [1, 2, 3]], ids=["str", "None", "list"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_wrong_object_is_refused_by_name(entry, bad):
    good, call, what = ENTRIES[entry]
    call(good)
    with pytest.raises(InputError) as exc:
        call(bad)
    cls = CLASSES[what].__name__
    assert str(exc.value) == f"{what} must be a {cls}, got {type(bad).__name__}"
