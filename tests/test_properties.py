"""Hypothesis properties of classification, factorization and positive subexpressions.

Each example draws a seed and builds its case with the generators in
``support``, so a failure shrinks to a seed that reproduces it.
"""

import argparse
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deodhar.cli import _descriptor_from_args
from deodhar.components import (
    ComponentDescriptor,
    build_element,
    chamber_coordinates,
    classify,
    element_from_coordinates,
    factorize,
)
from deodhar.diagrams import classify_graphical
from deodhar.errors import DomainError
from deodhar.linalg import RatMatrix, rational_from_json, unipotent_representative
from deodhar.pinning import (
    _Columns,
    evaluate,
    factor_matrix,
    group_word_from_json,
    group_word_to_json,
    perm_matrix,
)
from deodhar.positivity import is_totally_nonnegative, random_positive_sample
from deodhar.subexpr import (
    MARK_DOWN,
    SubexpressionTrace,
    enumerate_distinguished,
    positive_subexpression,
    trace_from_json,
    trace_to_json,
)
from deodhar.weyl import evaluate_word

from support import (
    bruhat_leq_subword,
    random_component_flag,
    random_distinguished,
    random_nonzero,
    random_perm,
    random_rational,
    random_reduced_word,
    random_unipotent,
)

SEEDS = st.integers(0, 2**32 - 1)


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
