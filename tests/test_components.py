"""Tests for component classification, conditions, and parameter recovery."""

import argparse
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from deodhar import weyl
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
from deodhar.linalg import RatMatrix, flag_equal, unipotent_representative
from deodhar.pinning import evaluate, partial, perm_matrix, reduce_flag
from deodhar.cli import _descriptor_from_args
from deodhar.positivity import is_totally_nonnegative, random_positive_sample
from deodhar.subexpr import SubexpressionTrace, enumerate_distinguished
from deodhar.weyl import Permutation, evaluate_word

from support import (
    random_component_flag,
    S102_WORD,
    random_distinguished,
    random_nonzero,
    random_perm,
    random_rational,
    random_reduced_word,
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
        d = [3, 4, 5, 6][done % 4]
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
    # against.  factorize takes its stay coordinates from the probes of the
    # classifying sweep.
    import deodhar.components as components

    real = components._sweep

    def double_step_2(z, word):
        desc, stays = real(z, word)
        stays[2] *= 2
        return desc, stays

    monkeypatch.setattr(components, "_sweep", double_step_2)
    with pytest.raises(InternalCheckError, match="descent parameter mismatch at step 4"):
        factorize(s102_matrix(), S102_WORD)


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


def test_sweep_hands_the_descriptor_its_index_sets(checks):
    # The sweep takes two prefix sets per step, forced steps included, and
    # the descriptor reads its step_minors from them.
    rng = random.Random(23)
    for _ in range(10):
        desc, z = random_component_flag(rng, 6)
        expected = desc.step_minors
        checks.clear()
        swept = classify(z, desc.word)
        assert checks["prefix_set"] == 2 * len(desc.word)
        assert swept.step_minors == expected
        component_conditions(swept)
        assert checks["prefix_set"] == 2 * len(desc.word)


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


def test_factorize_evaluates_each_minor_of_z_once(monkeypatch):
    # The classifying probes double as the stay coordinates, so what is left
    # is one probe per ascent, one coordinate per descent, and one chamber
    # minor after each ascent and descent.
    rng = random.Random(61)
    w0 = Permutation((6, 5, 4, 3, 2, 1))
    real = RatMatrix.minor
    descents = 0
    for _ in range(20):
        desc = ComponentDescriptor(
            random_distinguished(rng, 6, random_reduced_word(rng, w0))
        )
        gw = build_element(
            desc,
            {k: random_nonzero(rng) for k in desc.stay_positions},
            {k: random_rational(rng) for k in desc.descent_positions},
        )
        z = unipotent_representative(evaluate(gw))[0]
        calls = Counter()

        def counting(self, rows, cols):
            if self is z:
                calls[tuple(rows), tuple(cols)] += 1
            return real(self, rows, cols)

        monkeypatch.setattr(RatMatrix, "minor", counting)
        assert factorize(z, desc.word).descriptor == desc
        monkeypatch.undo()
        assert max(calls.values()) == 1
        moves = len(desc.ascent_positions) + len(desc.descent_positions)
        assert sum(calls.values()) == len(desc.stay_positions) + 2 * moves
        descents += len(desc.descent_positions)
    assert descents > 0
