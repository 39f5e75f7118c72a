"""Tests for component classification, conditions, and parameter recovery."""

import argparse
import json
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest

from deodhar import linalg, weyl
from deodhar.components import (
    ComponentDescriptor,
    build_element,
    chamber_coordinates,
    chamber_m,
    chamber_t,
    classify,
    classify_steps,
    component_conditions,
    element_from_coordinates,
    factorize,
    minor_polynomial,
)
from deodhar.errors import (
    DomainError,
    InputError,
    InternalCheckError,
    NotInComponentError,
)
from deodhar.linalg import RatMatrix, _ChamberTable, flag_equal, unipotent_representative
from deodhar.pinning import GroupFactor, GroupWord, evaluate, partial, perm_matrix, reduce_flag
from deodhar.cli import _descriptor_from_args
from deodhar.diagrams import classify_graphical, diagram_formulas
from deodhar.positivity import is_totally_nonnegative, random_positive_sample, sample_positive
from deodhar.subexpr import MARK_STAY, MARK_UP, SubexpressionTrace, enumerate_distinguished
from deodhar.weyl import Permutation, a_reduced_word, evaluate_word, longest_element

from support import (
    det_cofactor,
    random_component_flag,
    S102_WORD,
    random_distinguished,
    random_matrix,
    random_nonzero,
    random_perm,
    random_positive,
    random_rational,
    random_reduced_word,
    random_sparse_unipotent,
    random_unipotent,
    s102_matrix,
)


def test_classify_golden():
    desc = classify(s102_matrix(), S102_WORD)
    assert "".join(desc.trace.marks) == "+oo-+"
    assert desc.endpoint == Permutation((1, 3, 2, 4))
    assert desc.stay_positions == (2, 3)
    assert desc.ascent_positions == (1, 5)
    assert desc.descent_positions == (4,)
    assert desc.word == S102_WORD
    assert desc.d == 4


def test_classify_steps_golden():
    steps = classify_steps(s102_matrix(), S102_WORD)
    assert [s.case for s in steps] == ["ascend", "stay", "stay", "forced", "ascend"]
    assert [s.probe for s in steps] == [0, Fraction(2), Fraction(1), None, 0]
    assert steps[0].rows == (1, 2, 3) and steps[0].cols == (1, 2, 4)
    assert steps[1].rows == (1, 2) and steps[1].cols == (1, 4)
    assert steps[2].rows == (1,) and steps[2].cols == (4,)
    assert steps[3].rows is None and steps[3].cols is None
    assert steps[4].rows == (1, 2) and steps[4].cols == (3, 4)
    assert steps[-1].value_after == Permutation((1, 3, 2, 4))


def test_classify_validation():
    z = s102_matrix()
    with pytest.raises(InputError):
        classify(z, (3, 3))
    with pytest.raises(InputError):
        classify(z, (4,))
    bad = RatMatrix(
        tuple(
            tuple(Fraction(x) for x in row)
            for row in [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
    )
    with pytest.raises(InputError):
        classify(bad, S102_WORD)


def test_classify_and_factorize_refuse_boolean_letters():
    # At d = 2, [True] would otherwise be read as the word (1,).
    for call in (classify, factorize):
        with pytest.raises(InputError, match="letter must be an integer, got True"):
            call(RatMatrix.identity(2), [True])


def test_descriptor_refuses_a_non_distinguished_trace():
    # s1 . s2 . s1: the third step stays at a descent of s1.
    s1 = Permutation((2, 1, 3))
    trace = SubexpressionTrace((1, 2, 1), (Permutation((1, 2, 3)), s1, s1, s1), ("+", "o", "o"))
    with pytest.raises(InputError, match="needs a distinguished trace"):
        ComponentDescriptor(trace)


def test_descriptor_of_a_built_trace_equals_the_swept_one():
    # A trace built from lists stores tuples, so its descriptor equals and
    # hashes like the one the sweep builds; a descriptor needs a trace.
    e, s1 = Permutation((1, 2)), Permutation((2, 1))
    built = ComponentDescriptor(SubexpressionTrace([1], [e, s1], ["+"]))
    swept = classify(RatMatrix.identity(2), [1])
    assert built == swept and built.to_json() == swept.to_json()
    assert len({built.trace, swept.trace}) == 1
    for trace in (None, built.to_json()):
        with pytest.raises(InputError) as info:
            ComponentDescriptor(trace)
        assert str(info.value) == f"component descriptor needs a SubexpressionTrace, got {trace!r}"


def test_descriptor_refuses_a_non_reduced_word():
    # The trace is distinguished, but s1 s1 does not name a cell.
    e = Permutation((1, 2, 3))
    trace = SubexpressionTrace((1, 1), (e, e, e), ("o", "o"))
    with pytest.raises(InputError) as info:
        ComponentDescriptor(trace)
    assert str(info.value) == "word (1, 1) is not reduced"


def test_descriptor_json_round_trip():
    desc = classify(s102_matrix(), S102_WORD)
    data = desc.to_json()
    assert ComponentDescriptor.from_json(data) == desc


def test_component_conditions_golden():
    desc = classify(s102_matrix(), S102_WORD)
    cond = component_conditions(desc)
    assert cond.zero_minors == (
        (1, (1, 2, 3), (1, 2, 4)),
        (5, (1, 2), (3, 4)),
    )
    assert cond.nonzero_minors == (
        (2, (1, 2), (1, 4)),
        (3, (1,), (4,)),
    )
    data = cond.to_json(4)
    assert [rec["k"] for rec in data["zero"]] == [1, 5]
    assert [rec["k"] for rec in data["nonzero"]] == [2, 3]
    assert data["nonzero"][1]["poly"] == "a14"


def test_minor_polynomial_strings():
    assert minor_polynomial((1,), (2,), 4) == "a12"
    assert minor_polynomial((1,), (1,), 4) == "1"
    assert minor_polynomial((2,), (1,), 4) == "0"
    assert minor_polynomial((1, 2), (3, 4), 4) == "a13*a24 - a14*a23"
    with pytest.raises(InputError):
        minor_polynomial((1, 2), (3,), 4)
    with pytest.raises(DomainError):
        minor_polynomial(tuple(range(1, 8)), tuple(range(1, 8)), 9)
    with pytest.raises(DomainError):
        minor_polynomial((1,), (2,), 10)


def test_minor_polynomial_limits():
    # Size 6 and degree 9 pass; one above either raises the limit's message.
    six = tuple(range(1, 7))
    assert minor_polynomial(six, six, 9) == "1"
    assert minor_polynomial((1,), (9,), 9) == "a19"
    with pytest.raises(DomainError) as exc:
        minor_polynomial(six + (7,), six + (7,), 9)
    assert str(exc.value) == "symbolic expansion is limited to size 6"
    with pytest.raises(DomainError) as exc:
        minor_polynomial((1,), (2,), 10)
    assert str(exc.value) == "symbolic entry names need single-digit indices"


@pytest.mark.parametrize("d", [True, 2.5, "3"])
def test_minor_polynomial_reads_its_degree_as_an_integer(d):
    with pytest.raises(InputError) as exc:
        minor_polynomial((1,), (1,), d)
    assert str(exc.value) == f"degree must be an integer, got {d!r}"


@pytest.mark.parametrize("rows", [(2, 1), (1, 1)])
def test_minor_polynomial_reads_index_sets_as_minor_does(rows):
    # (2, 1) used to expand with its sign flipped, (1, 1) to a zero minor.
    for call in (
        lambda: minor_polynomial(rows, (3, 4), 4),
        lambda: minor_polynomial((3, 4), rows, 4),
        lambda: RatMatrix.identity(4).minor(rows, (3, 4)),
    ):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == f"index set must be strictly increasing: {rows!r}"


def test_minor_polynomial_matches_numeric_minor():
    rng = random.Random(5)
    for _ in range(10):
        d = rng.choice([3, 4])
        from support import random_unipotent

        z = random_unipotent(rng, d)
        size = rng.randrange(1, d)
        rows = tuple(sorted(rng.sample(range(1, d + 1), size)))
        cols = tuple(sorted(rng.sample(range(1, d + 1), size)))
        expr = minor_polynomial(rows, cols, d)
        env = {
            f"a{i}{j}": z.entry(i, j)
            for i in range(1, d + 1)
            for j in range(i + 1, d + 1)
        }
        assert eval(expr, {"__builtins__": {}}, env) == z.minor(rows, cols)


def test_factorize_golden():
    res = factorize(s102_matrix(), S102_WORD)
    assert res.t_params == {2: Fraction(1, 2), 3: Fraction(2)}
    assert res.m_params == {4: Fraction(2)}
    assert res.corrections == {4: Fraction(0)}
    kinds = [(f.kind, f.index) for f in res.group_word.factors]
    assert kinds == [("s", 3), ("y", 2), ("y", 1), ("xsinv", 3), ("s", 2)]
    w = evaluate_word(4, S102_WORD)
    assert flag_equal(evaluate(res.group_word), s102_matrix() * perm_matrix(w))


def test_factorize_json_shape():
    data = factorize(s102_matrix(), S102_WORD).to_json()
    assert data["t"] == {"2": "1/2", "3": "2"}
    assert data["m"] == {"4": "2"}
    assert data["verified"] is True
    assert data["trace"]["marks"] == ["+", "o", "o", "-", "+"]


def test_chamber_parameters_match_factorize():
    z = s102_matrix()
    desc = classify(z, S102_WORD)
    assert chamber_t(z, desc, 2) == Fraction(1, 2)
    assert chamber_t(z, desc, 3) == Fraction(2)
    res = factorize(z, S102_WORD)
    g3 = partial(res.group_word, 3)
    assert chamber_m(z, desc, 4, g3) == Fraction(2)
    with pytest.raises(InputError):
        chamber_t(z, desc, 4)
    with pytest.raises(InputError):
        chamber_m(z, desc, 2, g3)
    rng = random.Random(29)
    done = 0
    while done < 24:
        d = [3, 4, 5, 6, 8, 12][done % 6]
        word = random_reduced_word(rng, random_perm(rng, d))
        if not word:
            continue
        desc = ComponentDescriptor(random_distinguished(rng, d, word))
        gw = build_element(
            desc,
            {k: random_nonzero(rng) for k in desc.stay_positions},
            {k: random_rational(rng) for k in desc.descent_positions},
        )
        z, _ = unipotent_representative(evaluate(gw))
        res = factorize(z, word)
        for k in desc.stay_positions:
            assert chamber_t(z, desc, k) == res.t_params[k]
        for k in desc.descent_positions:
            assert chamber_m(z, desc, k, partial(res.group_word, k - 1)) == res.m_params[k]
        done += 1


def test_reported_parameters_and_products_are_fractions():
    # The walk runs on integer pairs, but every value it reports is a
    # Fraction, and the element's product is a matrix of Fractions equal to
    # the dense product of its factors: the JSON and the bit gauge read both.
    from deodhar.pinning import factor_matrix

    rng = random.Random(59)
    descents = 0
    for d in (3, 4, 5, 6, 8) * 3:
        desc, z = random_component_flag(rng, d)
        ref = factorize(z, desc.word)
        res = element_from_coordinates(desc, chamber_coordinates(z, desc))
        assert res.group_word == ref.group_word
        for r in (ref, res):
            for values in (r.t_params, r.m_params, r.corrections):
                assert all(type(x) is Fraction for x in values.values())
        descents += len(ref.m_params)
        dense = RatMatrix.identity(d)
        for f in ref.group_word.factors:
            dense = dense * factor_matrix(d, f)
        g = evaluate(ref.group_word)
        assert g == dense
        assert all(type(x) is Fraction for row in g.rows for x in row)
    assert descents > 0


def test_chamber_coordinates_golden():
    z = s102_matrix()
    desc = classify(z, S102_WORD)
    assert chamber_coordinates(z, desc) == {
        2: Fraction(2),
        3: Fraction(1),
        4: Fraction(4),
    }


def test_element_from_coordinates_round_trip():
    z = s102_matrix()
    desc = classify(z, S102_WORD)
    res = element_from_coordinates(desc, {2: 2, 3: 1, 4: 4})
    ref = factorize(z, S102_WORD)
    assert res.t_params == ref.t_params
    assert res.m_params == ref.m_params
    assert res.corrections == ref.corrections
    assert res.group_word == ref.group_word


def test_element_from_coordinates_validation():
    desc = classify(s102_matrix(), S102_WORD)
    with pytest.raises(InputError):
        element_from_coordinates(desc, {2: 2, 3: 1})
    with pytest.raises(DomainError):
        element_from_coordinates(desc, {2: 0, 3: 1, 4: 4})


@pytest.mark.parametrize(
    "coords, message",
    [
        ({2: 2, 3: 1, 4: 4.0}, "cannot interpret 4.0 as a rational number"),
        ({2: 2, 3: True, 4: 4}, "cannot interpret True as a rational number"),
        ({2.0: 2, 3: 1, 4: 4}, "coordinate key must be an integer, got 2.0"),
        ({2: 2, True: 1, 3: 1, 4: 4}, "coordinate key must be an integer, got True"),
    ],
)
def test_element_from_coordinates_reads_json_rationals(coords, message):
    desc = classify(s102_matrix(), S102_WORD)
    with pytest.raises(InputError) as exc:
        element_from_coordinates(desc, coords)
    assert str(exc.value) == message
    exact = element_from_coordinates(desc, {2: 2, 3: 1, 4: 4})
    assert element_from_coordinates(desc, {2: "2", 3: "1", 4: "8/2"}) == exact


def test_coordinates_round_trip_random():
    rng = random.Random(23)
    done = 0
    while done < 15:
        d = rng.choice([3, 4, 5, 6])
        word = random_reduced_word(rng, random_perm(rng, d))
        if not word:
            continue
        trace = random_distinguished(rng, d, word)
        desc = ComponentDescriptor(trace)
        t_params = {k: random_nonzero(rng) for k in desc.stay_positions}
        m_params = {k: random_rational(rng) for k in desc.descent_positions}
        gw = build_element(desc, t_params, m_params)
        z, _ = unipotent_representative(evaluate(gw))
        coords = chamber_coordinates(z, desc)
        rebuilt = element_from_coordinates(desc, coords)
        assert rebuilt.t_params == t_params
        assert rebuilt.m_params == m_params
        done += 1


def test_build_classify_factorize_round_trip():
    rng = random.Random(17)
    done = 0
    while done < 25:
        d = rng.choice([3, 4])
        word = random_reduced_word(rng, random_perm(rng, d))
        if not word:
            continue
        trace = random_distinguished(rng, d, word)
        desc = ComponentDescriptor(trace)
        t_params = {k: random_nonzero(rng) for k in desc.stay_positions}
        m_params = {k: random_rational(rng) for k in desc.descent_positions}
        gw = build_element(desc, t_params, m_params)
        z, w_pos = unipotent_representative(evaluate(gw))
        assert w_pos == evaluate_word(d, word)
        assert classify(z, word).trace == trace
        res = factorize(z, word)
        assert res.t_params == t_params
        assert res.m_params == m_params
        done += 1


def test_build_element_validation():
    desc = classify(s102_matrix(), S102_WORD)
    with pytest.raises(InputError):
        build_element(desc, {2: 1}, {4: 0})
    with pytest.raises(InputError):
        build_element(desc, {2: 1, 3: 1}, {})
    with pytest.raises(DomainError):
        build_element(desc, {2: 0, 3: 1}, {4: 0})


@pytest.mark.parametrize(
    "t_params, m_params, message",
    [
        ({2: 0.1, 3: 1}, {4: 0}, "cannot interpret 0.1 as a rational number"),
        ({2: True, 3: 1}, {4: 0}, "cannot interpret True as a rational number"),
        ({2: 1, 3: 1}, {4: False}, "cannot interpret False as a rational number"),
        ({2.0: 1, 3: 1}, {4: 0}, "t parameter key must be an integer, got 2.0"),
        ({2: 1, 3: 1}, {4.0: 0}, "m parameter key must be an integer, got 4.0"),
        ([1, 1], {4: 0}, "t parameters must be a mapping keyed by step"),
    ],
)
def test_build_element_reads_parameters_as_json_rationals(t_params, m_params, message):
    desc = classify(s102_matrix(), S102_WORD)
    with pytest.raises(InputError) as exc:
        build_element(desc, t_params, m_params)
    assert str(exc.value) == message
    exact = build_element(desc, {2: Fraction(1, 2), 3: 2}, {4: 2})
    assert build_element(desc, {2: "1/2", 3: "2"}, {4: "2"}) == exact


def test_prefix_flags_match_partial_products():
    z = s102_matrix()
    res = factorize(z, S102_WORD)
    for k in range(len(S102_WORD) + 1):
        assert flag_equal(partial(res.group_word, k), reduce_flag(z, S102_WORD, k))


def test_wrong_component_parameters_raise():
    desc = classify(s102_matrix(), S102_WORD)
    with pytest.raises(NotInComponentError):
        chamber_t(RatMatrix.identity(4), desc, 2)
    with pytest.raises(NotInComponentError, match="^standard chamber minor vanishes$"):
        chamber_coordinates(RatMatrix.identity(4), desc)
    with pytest.raises(
        NotInComponentError, match="^standard chamber minor with weight index 2 vanishes$"
    ):
        chamber_t(RatMatrix.identity(4), desc, 3)


def test_conditions_characterize_component():
    # A flag satisfies exactly the minor conditions of its own component.
    z = s102_matrix()
    desc = classify(z, S102_WORD)
    own = component_conditions(desc)
    for _, rows, cols in own.zero_minors:
        assert z.minor(rows, cols) == 0
    for _, rows, cols in own.nonzero_minors:
        assert z.minor(rows, cols) != 0
    w = evaluate_word(4, S102_WORD)
    for trace in enumerate_distinguished_all(w, S102_WORD):
        other = ComponentDescriptor(trace)
        if other == desc:
            continue
        cond = component_conditions(other)
        holds = all(z.minor(r, c) == 0 for _, r, c in cond.zero_minors) and all(
            z.minor(r, c) != 0 for _, r, c in cond.nonzero_minors
        )
        assert not holds


def enumerate_distinguished_all(w, word):
    from deodhar.weyl import all_permutations, bruhat_leq

    out = []
    for v in all_permutations(w.d):
        if bruhat_leq(v, w):
            out.extend(enumerate_distinguished(v, word))
    return out


def test_flag_check_catches_a_dropped_factor(monkeypatch):
    # A kernel that forgets the column update of y factors must make the
    # final flag check of factorize fail, not pass unnoticed.
    import deodhar.pinning as pinning

    real = pinning._Columns.apply

    def drop_y(g, factor):
        if factor.kind != "y":
            real(g, factor)

    monkeypatch.setattr(pinning._Columns, "apply", drop_y)
    with pytest.raises(InternalCheckError, match="does not match the input flag"):
        factorize(s102_matrix(), S102_WORD)


def test_a_stale_column_scale_is_caught(monkeypatch):
    # A kernel that updates the integer columns of a combined column but
    # keeps its old scale multiplies out a different product: evaluate no
    # longer matches the dense product, and factorize raises.
    import deodhar.pinning as pinning
    from deodhar.pinning import GroupFactor, GroupWord, factor_matrix

    real = pinning._combine

    def stale(u, su, v, sv):
        return real(u, su, v, sv)[0], su

    monkeypatch.setattr(pinning, "_combine", stale)
    gw = GroupWord(2, (GroupFactor("y", 1, Fraction(1, 2)),))
    assert evaluate(gw) != factor_matrix(2, gw.factors[0])
    with pytest.raises(
        InternalCheckError,
        match="descent parameter mismatch|does not match the input flag",
    ):
        factorize(s102_matrix(), S102_WORD)


def test_descent_cross_check_catches_a_wrong_stay_coordinate(monkeypatch):
    # The stay coordinate at step 2 feeds the running chamber minor that the
    # descent at step 4 reads, but not the independent ratio it is checked
    # against.  factorize takes its stay coordinates from the probes that
    # the classifying sweep reads off its running table.  The sweep's result
    # is shared through its memo, so the fault goes into a copy.
    import deodhar.components as components

    real = components._sweep

    def double_step_2(z, word):
        desc, before, after = real(z, word)
        before = list(before)
        num, den = before[1]
        before[1] = (2 * num, den)
        return desc, before, after

    monkeypatch.setattr(components, "_sweep", double_step_2)
    with pytest.raises(InternalCheckError, match="descent parameter mismatch at step 4"):
        factorize(s102_matrix(), S102_WORD)


@pytest.mark.parametrize("d", [12, 32])
def test_classify_steps_probes_are_minors_of_z_at_large_degree(d):
    # On a reduced word for w0, generic z stay at every step; sparse z
    # ascend and descend, so the table also moves its rows.
    # The column-reduced z of a component flag has one denominator per
    # column, so a probe whose scale came from the wrong columns is off.
    rng = random.Random(d)
    words = [a_reduced_word(longest_element(d)), random_reduced_word(rng, longest_element(d))]
    cases = Counter()
    desc, reduced = random_component_flag(rng, d)
    words.append(desc.word)
    for word, z in zip(words, (random_unipotent(rng, d), random_sparse_unipotent(rng, d), reduced)):
        for s in classify_steps(z, word):
            cases[s.case] += 1
            if s.case != "forced":
                assert s.probe == z.minor(s.rows, s.cols)
    assert cases["ascend"] > 0 and cases["forced"] > 0


def test_column_reduced_z_at_degree_24_is_fast():
    # unipotent_representative reduces g by columns, so z has one
    # denominator per column and the table, cleared by columns too, stays
    # small; cleared by rows, classify and factorize took seconds here.
    g = random_matrix(random.Random(24), 24)
    z, w = unipotent_representative(g)
    word = a_reduced_word(w)
    start = time.perf_counter()
    classify(z, word)
    result = factorize(z, word)
    elapsed = time.perf_counter() - start
    assert result.to_json()["verified"] is True
    assert flag_equal(evaluate(result.group_word), g)
    assert elapsed < 1.0, f"classify and factorize took {elapsed:.2f} s"


def test_chamber_table_refuses_a_vanishing_divisor():
    # A stay whose probe vanished leaves a zero leading minor, which the
    # next step at that letter must divide by.
    table = _ChamberTable(RatMatrix.identity(3))
    assert table.bordered(1) == (0, 1)
    table.step(1, 0)
    assert table.leading(1) == (0, 1)
    with pytest.raises(InternalCheckError, match="leading minor of size 1 vanished"):
        table.step(1, 1)


def test_conditions_are_the_classify_probes():
    rng = random.Random(53)
    for _ in range(30):
        desc, z = random_component_flag(rng, rng.choice([3, 4, 5]))
        steps = classify_steps(z, desc.word)
        cond = component_conditions(classify(z, desc.word))
        probes = {
            case: tuple((s.k, s.rows, s.cols) for s in steps if s.case == case)
            for case in ("ascend", "stay")
        }
        assert cond.zero_minors == probes["ascend"]
        assert cond.nonzero_minors == probes["stay"]
        coords = chamber_coordinates(z, desc)
        for s in steps:
            if s.case == "stay":
                assert coords[s.k] == s.probe


def test_chamber_coordinates_degree_mismatch():
    desc = classify(s102_matrix(), S102_WORD)
    for z in (RatMatrix.identity(3), random_unipotent(random.Random(2), 5)):
        with pytest.raises(InputError, match="degree mismatch"):
            chamber_coordinates(z, desc)


@pytest.mark.parametrize(
    "read",
    [chamber_coordinates, lambda z, desc: diagram_formulas(desc, z)],
    ids=["chamber_coordinates", "diagram_formulas"],
)
def test_coordinates_refuse_a_z_that_is_not_unipotent(read):
    # z b with b upper triangular but not unipotent is not the unipotent
    # representative of a flag; the degree check still comes first.
    desc = classify(s102_matrix(), S102_WORD)
    b = RatMatrix([[2, 1, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0], [0, 0, 0, "1/2"]])
    with pytest.raises(InputError, match="^flag representative must be upper unipotent$"):
        read(s102_matrix() * b, desc)
    with pytest.raises(InputError, match="^degree mismatch in generalized minor$"):
        read(RatMatrix([[2, 1, 0], [0, 1, 0], [0, 0, 1]]), desc)


@pytest.mark.parametrize(
    "read",
    [
        classify,
        classify_steps,
        is_totally_nonnegative,
        factorize,
        classify_graphical,
        lambda z, word: chamber_coordinates(z, classify(s102_matrix(), word)),
        lambda z, word: diagram_formulas(classify(s102_matrix(), word), z),
    ],
    ids=[
        "classify",
        "classify_steps",
        "is_totally_nonnegative",
        "factorize",
        "classify_graphical",
        "chamber_coordinates",
        "diagram_formulas",
    ],
)
@pytest.mark.parametrize(
    "z, name",
    [([[1, 1], [0, 1]], "list"), (((1, 1), (0, 1)), "tuple"), (None, "NoneType")],
    ids=["list", "tuple", "None"],
)
def test_entry_points_refuse_a_z_that_is_not_a_matrix(read, z, name):
    # The type is checked before the degree, the unipotence and the word.
    message = f"^flag representative must be a RatMatrix, got {name}$"
    with pytest.raises(InputError, match=message):
        read(z, S102_WORD)


def test_the_unipotent_test_is_cached_on_the_matrix(monkeypatch):
    # Each call still checks z, in its old place, but the rows of one
    # matrix are scanned once however many calls read it.
    z = s102_matrix()
    scans = []
    real = RatMatrix.is_upper_triangular
    monkeypatch.setattr(RatMatrix, "is_upper_triangular", lambda m: scans.append(m) or real(m))
    desc = classify(z, S102_WORD)
    is_totally_nonnegative(z, S102_WORD)
    chamber_coordinates(z, desc)
    assert scans == [z]
    upper = RatMatrix([[1, 0], [0, 2]])
    for _ in range(2):
        with pytest.raises(InputError, match="^flag representative must be upper unipotent$"):
            classify(upper, [1])
    assert scans == [z, upper]


def test_chamber_coordinates_are_the_step_minors_of_z():
    # Each coordinate, in step order, is the minor of z on the descriptor's
    # index sets for its step: the standard chamber minor at a stay and the
    # probe at a descent.
    rng = random.Random(67)
    descents = 0
    for _ in range(30):
        desc, z = random_component_flag(rng, rng.choice([3, 4, 5, 6]))
        coords = chamber_coordinates(z, desc)
        marks = desc.trace.marks
        assert list(coords) == [k for k, mark in enumerate(marks, start=1) if mark != MARK_UP]
        for k, value in coords.items():
            rows, cols = desc.step_minors[k - 1]
            assert value == det_cofactor([[z.rows[r - 1][c - 1] for c in cols] for r in rows])
        descents += len(desc.descent_positions)
    assert descents > 0


@pytest.fixture
def checks(monkeypatch):
    """Counts of check_reduced_word, the trace and descriptor checks, and prefix_set."""
    calls = Counter()
    real_check = weyl.check_reduced_word
    real_prefix_set = Permutation.prefix_set

    def counted_check(d, word):
        calls["check_reduced_word"] += 1
        return real_check(d, word)

    def counted_prefix_set(self, i):
        calls["prefix_set"] += 1
        return real_prefix_set(self, i)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "deodhar" and hasattr(module, "check_reduced_word"):
            monkeypatch.setattr(module, "check_reduced_word", counted_check)
    for cls in (SubexpressionTrace, ComponentDescriptor):

        def counted_init(self, real=cls.__post_init__, name=cls.__name__):
            calls[name] += 1
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted_init)
    monkeypatch.setattr(Permutation, "prefix_set", counted_prefix_set)
    return calls


def test_sweep_checks_the_word_once_and_trusts_what_it_builds(checks):
    # classify, factorize and tnn-check read the caller's word once; the
    # trace and descriptor the sweep builds from it skip __post_init__.
    rng = random.Random(17)
    for _ in range(10):
        desc, z = random_component_flag(rng, 6)
        # The public constructor still checks, through the patched names.
        checks.clear()
        assert ComponentDescriptor(desc.trace) == desc
        assert checks == {"check_reduced_word": 1, "ComponentDescriptor": 1}
        for entry in (classify, factorize, is_totally_nonnegative):
            checks.clear()
            entry(z, list(desc.word))
            del checks["prefix_set"]
            assert checks == {"check_reduced_word": 1}, entry.__name__


@pytest.mark.parametrize("d", [4, 5])
def test_coordinate_readers_refuse_exactly_the_flags_of_other_components(d):
    # z is a flag of a random component of desc's word, most often another
    # one.  Both readers refuse exactly when z's component is not desc, at
    # the first step where the two mark strings differ, and otherwise
    # chamber_coordinates reads the minors of desc's stay and descent steps.
    rng = random.Random(80 + d)
    refused = 0
    for _ in range(60):
        word = random_reduced_word(rng, random_perm(rng, d))
        desc, other = (ComponentDescriptor(random_distinguished(rng, d, word)) for _ in "ab")
        z = unipotent_representative(evaluate(build_element(
            other,
            {k: random_nonzero(rng) for k in other.stay_positions},
            {k: random_rational(rng) for k in other.descent_positions},
        )))[0]
        swept = classify(z, word)
        pairs = enumerate(zip(desc.trace.marks, swept.trace.marks), start=1)
        k = next((k for k, (a, b) in pairs if a != b), None)
        assert (k is None) == (swept == desc)
        if k is None:
            coords = chamber_coordinates(z, desc)
            steps = sorted(desc.stay_positions + desc.descent_positions)
            assert coords == {j: z.minor(*desc.step_minors[j - 1]) for j in steps}
            assert list(coords) == steps
            diagram_formulas(desc, z)
            continue
        refused += 1
        if desc.trace.marks[k - 1] == MARK_STAY:
            message = "standard chamber minor vanishes"
        else:
            message = f"probe minor at ascent step {k} does not vanish"
        with pytest.raises(NotInComponentError) as exc:
            chamber_coordinates(z, desc)
        assert str(exc.value) == message
        with pytest.raises(NotInComponentError) as exc:
            diagram_formulas(desc, z)
        assert str(exc.value) == f"z leaves the component at step {k}"
    assert 30 < refused < 60


def test_diagram_formulas_builds_one_elimination_table_per_call(monkeypatch):
    # The component gate is factorize's own sweep, so diagram_formulas runs
    # one running table of z, on desc's component and on a z it refuses.
    # Each target gets a fresh copy of z, so each call is cold; a repeat on
    # the same z and word reads the sweep's memo and builds none.
    tables = Counter()
    real_init = _ChamberTable.__init__

    def counted_init(self, z):
        tables["built"] += 1
        real_init(self, z)

    monkeypatch.setattr(_ChamberTable, "__init__", counted_init)
    rng = random.Random(29)
    seen = Counter()
    for _ in range(20):
        desc, z = random_component_flag(rng, rng.choice([4, 5, 6]))
        other = ComponentDescriptor(random_distinguished(rng, desc.d, desc.word))
        for target in (desc, other):
            fresh = RatMatrix(z.rows)
            tables.clear()
            try:
                first = diagram_formulas(target, fresh)
                seen["read"] += 1
            except NotInComponentError as exc:
                first = str(exc)
                seen["refused"] += 1
            assert tables == {"built": 1}
            tables.clear()
            try:
                again = diagram_formulas(target, fresh)
            except NotInComponentError as exc:
                again = str(exc)
            assert again == first
            assert not tables
    assert seen["read"] > 20 and seen["refused"] > 5


def test_one_sweep_serves_every_entry_point_on_the_same_z(monkeypatch):
    # The sweep keeps one slot, the last z it swept (by identity) and the
    # checked word: every entry point on that z and word reads it, and a
    # second word, or a second z, takes the slot over.
    import deodhar.components as components

    tables = Counter()
    real_init = _ChamberTable.__init__

    def counted_init(self, z):
        tables["built"] += 1
        real_init(self, z)

    entries = [
        lambda z, desc: classify(z, list(desc.word)),
        lambda z, desc: is_totally_nonnegative(z, list(desc.word)),
        chamber_coordinates,
        lambda z, desc: classify_steps(z, list(desc.word)),
        lambda z, desc: factorize(z, list(desc.word)),
        lambda z, desc: diagram_formulas(desc, z),
    ]

    rng = random.Random(43)
    descents = 0
    for _ in range(10):
        desc, z = random_component_flag(rng, rng.choice([4, 5, 6]))
        descents += len(desc.descent_positions)
        cold = [entry(RatMatrix(z.rows), desc) for entry in entries]
        monkeypatch.setattr(_ChamberTable, "__init__", counted_init)
        tables.clear()
        assert [entry(z, desc) for entry in entries] == cold
        assert tables == {"built": 1}
        swept, before, after = components._sweep(z, desc.word)
        assert swept == desc and type(before) is tuple and type(after) is tuple
        assert tables == {"built": 1}
        other = random_reduced_word(rng, longest_element(desc.d))
        for word in (other, desc.word):
            tables.clear()
            classify(z, word)
            assert tables == {"built": 1}
        monkeypatch.undo()
    assert descents > 0

    # Two threads alternate classify on two z's of one word, each expecting
    # its own matrix's cold component.
    rng = random.Random(47)
    desc, z = random_component_flag(rng, 6)
    while True:
        other = ComponentDescriptor(random_distinguished(rng, 6, desc.word))
        if other != desc:
            break
    t = {k: random_nonzero(rng) for k in other.stay_positions}
    m = {k: random_rational(rng) for k in other.descent_positions}
    z_other = unipotent_representative(evaluate(build_element(other, t, m)))[0]
    cases = [(z, desc), (z_other, classify(RatMatrix(z_other.rows), desc.word))]
    assert cases[1][1] == other
    barrier = threading.Barrier(2)
    wrong = Counter()

    def alternate(z, expected):
        for _ in range(200):
            barrier.wait()
            if classify(z, desc.word) != expected:
                wrong[expected] += 1

    threads = [threading.Thread(target=alternate, args=case) for case in cases]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not wrong


def test_chamber_coordinates_checks_no_word_and_reads_one_sweep_of_z(checks, monkeypatch):
    # The descriptor holds a checked word and its prefix products, so the
    # coordinates are read off z's own sweep along that word with no word
    # check, on desc's component and on a z it refuses.  A stored sweep of
    # z is read as it is, with no table built and no trace value rebuilt; a
    # fresh z is swept once, and that sweep then serves classify, tnn-check
    # and factorize on the same z and word.
    real_times_s = Permutation.times_s
    real_init = _ChamberTable.__init__

    def counted_times_s(self, i):
        checks["times_s"] += 1
        return real_times_s(self, i)

    def counted_init(self, z):
        checks["table"] += 1
        real_init(self, z)

    def read(z, desc):
        try:
            return chamber_coordinates(z, desc)
        except NotInComponentError as exc:
            return str(exc)

    rng = random.Random(31)
    cases = [random_component_flag(rng, rng.choice([4, 5, 6])) for _ in range(10)]
    monkeypatch.setattr(Permutation, "times_s", counted_times_s)
    monkeypatch.setattr(_ChamberTable, "__init__", counted_init)
    refused = 0
    for desc, z in cases:
        other = ComponentDescriptor(random_distinguished(rng, desc.d, desc.word))
        for target in (desc, other):
            classify(z, desc.word)
            checks.clear()
            warm = read(z, target)
            assert not checks
            refused += isinstance(warm, str)
            fresh = RatMatrix(z.rows)
            checks.clear()
            assert read(fresh, target) == warm
            assert checks.keys() <= {"table", "times_s"} and checks["table"] == 1
            checks.clear()
            classify(fresh, desc.word)
            is_totally_nonnegative(fresh, desc.word)
            factorize(fresh, desc.word)
            assert checks["table"] == 0
    assert refused > 0


def test_descriptor_builds_its_index_sets_on_first_read(checks):
    # The sweep reads its probes off a table and takes no prefix set; the
    # descriptor builds its step_minors, two prefix sets per step, forced
    # steps included, when they are first read, and only then.
    rng = random.Random(23)
    for _ in range(10):
        desc, z = random_component_flag(rng, 6)
        expected = desc.step_minors
        checks.clear()
        swept = classify(z, desc.word)
        assert checks["prefix_set"] == 0
        assert swept.step_minors == expected
        assert checks["prefix_set"] == 2 * len(desc.word)
        component_conditions(swept)
        assert checks["prefix_set"] == 2 * len(desc.word)


def test_classify_steps_takes_index_sets_at_free_steps_only(checks):
    # classify_steps reports index sets at its stays and ascents only, so
    # it takes two prefix sets per free step and none at a forced one.
    rng = random.Random(37)
    forced = 0
    for _ in range(20):
        desc, z = random_component_flag(rng, 6)
        checks.clear()
        steps = classify_steps(z, desc.word)
        free = sum(s.case != "forced" for s in steps)
        forced += len(steps) - free
        assert checks["prefix_set"] == 2 * free
    assert forced > 0


def test_positive_component_checks_the_word_once_and_trusts_what_it_builds(checks):
    # sample_positive and the CLI's --v build their descriptor from the
    # positive walk: one word check, and no trace or descriptor check.
    rng = random.Random(29)
    for _ in range(10):
        d = rng.choice([4, 5, 6])
        word = random_reduced_word(rng, random_perm(rng, d))
        v = random_distinguished(rng, d, word).endpoint
        checks.clear()
        desc = random_positive_sample(v, word, rng.randrange(100)).descriptor
        assert checks == {"check_reduced_word": 1}
        args = argparse.Namespace(
            matrix=None, v=json.dumps(list(v.images)), word=json.dumps(list(word))
        )
        checks.clear()
        assert _descriptor_from_args(args) == desc
        assert checks == {"check_reduced_word": 1}


def test_entry_points_read_each_parameter_once_and_trust_the_words_they_build(monkeypatch):
    # build_element, sample_positive and element_from_coordinates read each
    # caller parameter once, and an entry point that checks a word builds
    # every permutation it needs, the identity included, without a check.
    # None of them, partial included, runs the factor or word check on what
    # it builds.
    calls = Counter()
    for cls in (GroupFactor, GroupWord, Permutation):

        def counted_init(self, real=cls.__post_init__, name=cls.__name__):
            calls[name] += 1
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted_init)
    real_read = linalg.rational_from_json

    def counted_read(x):
        calls["rational_from_json"] += 1
        return real_read(x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "deodhar" and hasattr(module, "rational_from_json"):
            monkeypatch.setattr(module, "rational_from_json", counted_read)
    rng = random.Random(41)
    descents = 0
    for _ in range(20):
        desc, z = random_component_flag(rng, rng.choice([4, 5, 6]))
        v, word = desc.endpoint, desc.word
        descents += len(desc.descent_positions)
        t_params = {k: random_nonzero(rng) for k in desc.stay_positions}
        m_params = {k: random_rational(rng) for k in desc.descent_positions}
        positive = [random_positive(rng) for _ in range(len(word) - v.length())]
        coords = chamber_coordinates(z, desc)
        gw = build_element(desc, t_params, m_params)
        entries = [
            (lambda: build_element(desc, t_params, m_params), len(t_params) + len(m_params), 0),
            (lambda: sample_positive(v, word, positive), len(positive), 0),
            (lambda: random_positive_sample(v, word, 7), len(positive), 0),
            (lambda: element_from_coordinates(desc, coords), len(coords), 0),
            (lambda: factorize(z, word), 0, 0),
            (lambda: partial(gw, rng.randint(0, len(word))), 0, 0),
        ]
        for entry, reads, perms in entries:
            calls.clear()
            entry()
            assert calls == Counter(rational_from_json=reads, Permutation=perms)
    assert descents > 0


def test_factorize_evaluates_no_minor_of_z(monkeypatch):
    # Every chamber minor of z comes from the running table of the sweep,
    # and the parameters it yields are those the element was built from.
    rng = random.Random(61)
    w0 = Permutation((6, 5, 4, 3, 2, 1))
    real = RatMatrix.minor
    descents = 0
    for _ in range(20):
        desc = ComponentDescriptor(
            random_distinguished(rng, 6, random_reduced_word(rng, w0))
        )
        t = {k: random_nonzero(rng) for k in desc.stay_positions}
        m = {k: random_rational(rng) for k in desc.descent_positions}
        z = unipotent_representative(evaluate(build_element(desc, t, m)))[0]
        calls = Counter()

        def counting(self, rows, cols):
            if self is z:
                calls[tuple(rows), tuple(cols)] += 1
            return real(self, rows, cols)

        monkeypatch.setattr(RatMatrix, "minor", counting)
        result = factorize(z, desc.word)
        monkeypatch.undo()
        assert not calls
        assert result.descriptor == desc
        assert result.t_params == t and result.m_params == m
        descents += len(desc.descent_positions)
    assert descents > 0


def test_chamber_coordinates_evaluates_no_minor_of_z(monkeypatch):
    # Every coordinate comes from the running table of the sweep, and the
    # element they rebuild has the parameters z was built from.
    rng = random.Random(71)
    w0 = Permutation((6, 5, 4, 3, 2, 1))
    real = RatMatrix.minor
    descents = 0
    for _ in range(20):
        desc = ComponentDescriptor(
            random_distinguished(rng, 6, random_reduced_word(rng, w0))
        )
        t = {k: random_nonzero(rng) for k in desc.stay_positions}
        m = {k: random_rational(rng) for k in desc.descent_positions}
        z = unipotent_representative(evaluate(build_element(desc, t, m)))[0]
        calls = Counter()

        def counting(self, rows, cols):
            if self is z:
                calls[tuple(rows), tuple(cols)] += 1
            return real(self, rows, cols)

        monkeypatch.setattr(RatMatrix, "minor", counting)
        coords = chamber_coordinates(z, desc)
        monkeypatch.undo()
        assert not calls
        rebuilt = element_from_coordinates(desc, coords)
        assert rebuilt.t_params == t and rebuilt.m_params == m
        descents += len(desc.descent_positions)
    assert descents > 0
