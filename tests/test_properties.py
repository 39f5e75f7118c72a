"""Hypothesis properties of classification, factorization and positive subexpressions.

Each example draws a seed and builds its case with the generators in
``support``, so a failure shrinks to a seed that reproduces it.
"""

import argparse
import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deodhar.cli import _descriptor_from_args
from deodhar.components import (
    ComponentDescriptor,
    _sweep,
    build_element,
    chamber_coordinates,
    classify,
    element_from_coordinates,
    factorize,
)
from deodhar.diagrams import classify_graphical, diagram_formulas
from deodhar.errors import DeodharError, DomainError, InputError, NotInComponentError
from deodhar.linalg import RatMatrix, rational_from_json, unipotent_representative
from deodhar.pinning import (
    GroupFactor,
    GroupWord,
    _Columns,
    evaluate,
    factor_matrix,
    group_word_from_json,
    group_word_to_json,
    partial,
    perm_matrix,
)
from deodhar.positivity import is_totally_nonnegative, random_positive_sample, sample_positive
from deodhar.subexpr import (
    MARK_DOWN,
    SubexpressionTrace,
    enumerate_distinguished,
    positive_subexpression,
    trace_from_json,
    trace_to_json,
)
from deodhar.weyl import Permutation, check_reduced_word, evaluate_word, is_reduced

from support import (
    bruhat_leq_subword,
    det_cofactor,
    random_component_flag,
    random_distinguished,
    random_nonzero,
    random_perm,
    random_positive,
    random_rational,
    random_reduced_word,
    random_sparse_unipotent,
    random_unipotent,
)

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(2, 6), st.booleans())
def test_word_check_agrees_with_the_length_criterion(seed, d, reduced):
    # check_reduced_word asks for a right ascent at every letter; a word is
    # reduced exactly when its product has as many inversions as letters.
    rng = random.Random(seed)
    if reduced:
        word = random_reduced_word(rng, random_perm(rng, d))
    else:
        word = tuple(rng.randint(1, d - 1) for _ in range(rng.randint(0, 2 * d)))
    ok = evaluate_word(d, word).length() == len(word)
    assert is_reduced(d, word) == ok
    if ok:
        got, prefixes = check_reduced_word(d, list(word))
        assert got == word
        assert prefixes == tuple(evaluate_word(d, word[:k]) for k in range(len(word) + 1))
    else:
        with pytest.raises(InputError) as info:
            check_reduced_word(d, list(word))
        assert str(info.value) == f"word {word!r} is not reduced"
    # Every letter is read before any product: a bad letter after a repeated
    # one is reported as a bad letter.
    i = rng.randint(1, d - 1)
    with pytest.raises(InputError) as info:
        check_reduced_word(d, list(word) + [i, i, d])
    assert str(info.value) == f"letter {d} out of range 1..{d - 1}"


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 7))
def test_classify_inverts_build_element(seed, d):
    desc, z = random_component_flag(random.Random(seed), d)
    assert classify(z, desc.word) == desc


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 7), st.booleans())
def test_classify_agrees_with_classify_graphical(seed, d, generic):
    rng = random.Random(seed)
    if generic:
        word = random_reduced_word(rng, random_perm(rng, d))
        z = random_unipotent(rng, d)
    else:
        desc, z = random_component_flag(rng, d)
        word = desc.word
    assert classify_graphical(z, word) == classify(z, word)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 8), st.sampled_from(["generic", "positive", "sparse"]))
def test_sweep_table_reads_minors_of_z(seed, d, kind):
    # Before each step the walk reads the minor on the step's index sets: a
    # probe, or a descent coordinate at a forced step; after it, the chamber
    # minor at level i.  Sparse z make many probes vanish and many steps move.
    rng = random.Random(seed)
    word = random_reduced_word(rng, random_perm(rng, d))
    if kind == "generic":
        z = random_unipotent(rng, d)
    elif kind == "sparse":
        z = random_sparse_unipotent(rng, d)
    else:
        v = classify(random_unipotent(rng, d), word).endpoint
        gw = random_positive_sample(v, word, rng.randrange(100)).group_word
        z = unipotent_representative(evaluate(gw))[0]
    desc, before, after = _sweep(z, word)
    values, w = desc.trace.values, desc.prefix_perms

    def minor(rows, cols):
        return det_cofactor([[z.rows[r - 1][c - 1] for c in cols] for r in rows])

    for k, i in enumerate(desc.word, start=1):
        assert Fraction(*before[k - 1]) == minor(*desc.step_minors[k - 1])
        assert Fraction(*after[k - 1]) == minor(values[k].prefix_set(i), w[k].prefix_set(i))


def _dense_product(group_word) -> RatMatrix:
    out = RatMatrix.identity(group_word.d)
    for f in group_word.factors:
        out = out * factor_matrix(group_word.d, f)
    return out


def _same_flag(a: RatMatrix, b: RatMatrix) -> bool:
    return (a.inverse() * b).is_upper_triangular()


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(2, 7))
def test_group_word_kernel_matches_dense_products(seed, d):
    # Every prefix of a component element's group word, multiplied out in
    # integer columns, equals the dense product of its factor matrices.
    desc, z = random_component_flag(random.Random(seed), d)
    gw = factorize(z, desc.word).group_word
    g = _Columns(d)
    dense = RatMatrix.identity(d)
    for f in gw.factors:
        g.apply(f)
        dense = dense * factor_matrix(d, f)
        assert g.matrix() == dense
    assert evaluate(gw) == dense


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(2, 5), st.booleans())
def test_coordinates_refuse_exactly_the_other_components(seed, d, sparse):
    # Over every distinguished trace of z's word, chamber_coordinates and
    # diagram_formulas return values on z's own component only.
    rng = random.Random(seed)
    if sparse:
        z = random_sparse_unipotent(rng, d)
        word = random_reduced_word(rng, random_perm(rng, d))
    else:
        desc, z = random_component_flag(rng, d)
        word = desc.word
    own = classify(z, word)
    for v in itertools.permutations(range(1, d + 1)):
        for trace in enumerate_distinguished(Permutation(v), word):
            desc = ComponentDescriptor(trace)
            for read in (lambda: chamber_coordinates(z, desc), lambda: diagram_formulas(desc, z)):
                if desc == own:
                    read()
                else:
                    with pytest.raises(NotInComponentError):
                        read()


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(2, 6))
def test_chamber_coordinates_round_trip(seed, d):
    desc, z = random_component_flag(random.Random(seed), d)
    coords = chamber_coordinates(z, desc)
    g = _dense_product(element_from_coordinates(desc, coords).group_word)
    assert _same_flag(g, z * perm_matrix(evaluate_word(d, desc.word)))
    assert chamber_coordinates(unipotent_representative(g)[0], desc) == coords


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(2, 6), st.booleans())
def test_factorize_re_evaluates_to_the_flag(seed, d, generic):
    rng = random.Random(seed)
    if generic:
        word = random_reduced_word(rng, random_perm(rng, d))
        z = random_unipotent(rng, d)
    else:
        desc, z = random_component_flag(rng, d)
        word = desc.word
    g = _dense_product(factorize(z, word).group_word)
    assert _same_flag(g, z * perm_matrix(evaluate_word(d, word)))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 5), st.booleans())
def test_positive_subexpression_is_the_only_descent_free_trace(seed, d, below):
    rng = random.Random(seed)
    w = random_perm(rng, d)
    word = random_reduced_word(rng, w)
    # An endpoint of a random trace is below w; a random v may not be.
    v = random_distinguished(rng, d, word).endpoint if below else random_perm(rng, d)
    descent_free = [
        t for t in enumerate_distinguished(v, word) if MARK_DOWN not in t.marks
    ]
    if bruhat_leq_subword(v, w, word):
        assert descent_free == [positive_subexpression(v, word)]
    else:
        assert descent_free == []
        with pytest.raises(DomainError):
            positive_subexpression(v, word)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 6), st.booleans())
def test_what_the_library_builds_meets_the_public_checks(seed, d, generic):
    # Traces and descriptors the library builds skip __post_init__; each
    # must equal its rebuild through the checking constructors.
    rng = random.Random(seed)
    if generic:
        word = random_reduced_word(rng, random_perm(rng, d))
        z = random_unipotent(rng, d)
    else:
        desc, z = random_component_flag(rng, d)
        word = desc.word
    descriptors = [
        classify(z, word),
        factorize(z, word).descriptor,
        is_totally_nonnegative(z, word).descriptor,
        classify_graphical(z, word),
    ]
    traces = []
    for v in (descriptors[0].endpoint, random_perm(rng, d)):
        try:
            traces.append(positive_subexpression(v, word))
            descriptors.append(random_positive_sample(v, word, seed).descriptor)
            args = argparse.Namespace(
                matrix=None, v=json.dumps(list(v.images)), word=json.dumps(list(word))
            )
            descriptors.append(_descriptor_from_args(args))
        except DomainError:
            pass
        if d <= 5:
            traces += enumerate_distinguished(v, word)
    for trace in traces + [desc.trace for desc in descriptors]:
        rebuilt = SubexpressionTrace(trace.word, trace.values, trace.marks)
        assert rebuilt == trace and hash(rebuilt) == hash(trace)
    for desc in descriptors:
        rebuilt = ComponentDescriptor(SubexpressionTrace(desc.word, desc.trace.values, desc.trace.marks))
        assert rebuilt == desc and rebuilt.prefix_perms == desc.prefix_perms
        assert rebuilt.step_minors == desc.step_minors


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 6))
def test_group_words_the_library_builds_meet_the_public_checks(seed, d):
    # Factors and words the library builds skip __post_init__; each word
    # must equal its rebuild through the checking constructors, and a
    # partial product must equal that of the checked prefix.
    rng = random.Random(seed)
    desc, z = random_component_flag(rng, d)
    v, word = desc.endpoint, desc.word
    gw = build_element(
        desc,
        {k: random_nonzero(rng) for k in desc.stay_positions},
        {k: random_rational(rng) for k in desc.descent_positions},
    )
    t_params = [random_positive(rng) for _ in range(len(word) - v.length())]
    words = [
        gw,
        sample_positive(v, word, t_params).group_word,
        random_positive_sample(v, word, seed).group_word,
        element_from_coordinates(desc, chamber_coordinates(z, desc)).group_word,
        factorize(z, word).group_word,
    ]
    for built in words:
        rebuilt = GroupWord(
            built.d, tuple(GroupFactor(f.kind, f.index, f.param) for f in built.factors)
        )
        assert rebuilt == built and hash(rebuilt) == hash(built)
    k = rng.randint(0, len(word))
    assert partial(gw, k) == evaluate(GroupWord(gw.d, gw.factors[:k]))


def _flag_with_coordinates(desc, coords):
    group_word = element_from_coordinates(desc, coords).group_word
    return unipotent_representative(evaluate(group_word))[0]


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.integers(2, 6))
def test_each_stay_inequality_is_needed(seed, d):
    # The stay inequalities are a minimal set: with every stay coordinate 1
    # the flag is nonnegative, and negating any one coordinate violates
    # exactly that inequality.
    rng = random.Random(seed)
    word = random_reduced_word(rng, random_perm(rng, d))
    v = random_distinguished(rng, d, word).endpoint
    desc = ComponentDescriptor(positive_subexpression(v, word))
    ones = {k: 1 for k in desc.stay_positions}
    assert is_totally_nonnegative(_flag_with_coordinates(desc, ones), word)
    for k in desc.stay_positions:
        z = _flag_with_coordinates(desc, {**ones, k: -1})
        assert is_totally_nonnegative(z, word).violated == (k,)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 6), st.booleans())
def test_random_positive_samples_are_nonnegative(seed, d, below):
    rng = random.Random(seed)
    w = random_perm(rng, d)
    word = random_reduced_word(rng, w)
    v = random_distinguished(rng, d, word).endpoint if below else random_perm(rng, d)
    if not bruhat_leq_subword(v, w, word):
        with pytest.raises(DomainError):
            random_positive_sample(v, word, seed)
        return
    sample = random_positive_sample(v, word, seed)
    z = unipotent_representative(evaluate(sample.group_word))[0]
    cert = is_totally_nonnegative(z, word)
    assert cert and cert.endpoint == v


def _json_trip(data):
    return json.loads(json.dumps(data))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 6))
def test_what_the_library_writes_it_reads_back(seed, d):
    rng = random.Random(seed)
    desc, z = random_component_flag(rng, d)
    trace = desc.trace
    assert trace_from_json(_json_trip(trace_to_json(trace))) == trace
    gw = build_element(
        desc,
        {k: random_nonzero(rng) for k in desc.stay_positions},
        {k: random_rational(rng) for k in desc.descent_positions},
    )
    assert group_word_from_json(d, _json_trip(group_word_to_json(gw))) == gw
    res = factorize(z, desc.word)
    data = _json_trip(res.to_json())
    for key, params in (("t", res.t_params), ("m", res.m_params)):
        assert all(isinstance(x, str) for x in data[key].values())
        assert {int(k): rational_from_json(x) for k, x in data[key].items()} == params


def _outcome(read):
    """A call's value, or the type and message of the error it raised."""
    try:
        return read()
    except DeodharError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 6))
def test_a_warm_sweep_changes_no_refusal(seed, d):
    # After a sweep of z along its word is stored, every malformed call on z
    # raises what it raises on a fresh copy of z.  The slot's key is the
    # checked word: 2.0 == 2 and hashes alike, yet a float letter is refused.
    import deodhar.components as components

    rng = random.Random(seed)
    desc, z = random_component_flag(rng, d)
    while not desc.word:
        desc, z = random_component_flag(rng, d)
    word = list(desc.word)
    floated = list(word)
    j = rng.randrange(len(word))
    floated[j] = float(floated[j])
    # An upper-triangular b with a 2 on its diagonal, so z·b is not unipotent.
    j = rng.randrange(d)
    b = RatMatrix(
        [[2 if r == c == j else int(r == c) if r >= c else random_rational(rng) for c in range(d)]
         for r in range(d)]
    )
    ends = (evaluate_word(d, ()), desc.endpoint, evaluate_word(d, word))
    traces = [positive_subexpression(v, word) for v in ends]
    traces += [random_distinguished(rng, d, desc.word) for _ in range(3)]

    def reads(z):
        out = []
        for bad in (floated, set(word), word + word[-1:]):
            out += [functools.partial(read, z, bad) for read in (classify, is_totally_nonnegative)]
        zb = z * b
        out += [functools.partial(classify, zb, word)]
        out += [functools.partial(chamber_coordinates, zb, desc)]
        out += [functools.partial(chamber_coordinates, z, ComponentDescriptor(t)) for t in traces]
        return [_outcome(read) for read in out]

    assert is_totally_nonnegative(z, word).descriptor is classify(z, word)
    warm = reads(z)
    assert components._last_sweep[0] is z
    assert warm == reads(RatMatrix(z.rows))
    assert all(isinstance(x, tuple) for x in warm[:8])
    assert any(x[0] is NotInComponentError for x in warm[8:] if isinstance(x, tuple))
