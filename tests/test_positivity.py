"""Tests for positive sampling, the nonnegativity test, and its supporting identities."""

import random
from fractions import Fraction

import pytest

from deodhar.components import (
    ComponentDescriptor,
    build_element,
    classify,
    classify_steps,
    component_conditions,
    element_from_coordinates,
)
from deodhar.errors import DomainError, InputError
from deodhar.linalg import RatMatrix, flag_equal, rational_to_json, unipotent_representative
from deodhar.pinning import evaluate, gen_x, gmin, partial, reduce_flag
from deodhar.positivity import (
    braid_move_y,
    is_totally_nonnegative,
    random_positive_sample,
    sample_positive,
)
from deodhar.subexpr import positive_subexpression
from deodhar.weyl import (
    Permutation,
    all_permutations,
    bruhat_leq,
    evaluate_word,
    identity_perm,
    longest_element,
    reduced_words,
    simple_reflection,
)

from support import (
    S102_WORD,
    random_component_flag,
    random_distinguished,
    random_nonzero,
    random_perm,
    random_rational,
    random_reduced_word,
    random_unipotent,
    s102_matrix,
)

WORD633 = (3, 2, 1, 3, 2, 3)


def rep(group_word):
    return unipotent_representative(evaluate(group_word))[0]


def test_sample_positive_golden():
    s2 = simple_reflection(4, 2)
    sample = sample_positive(s2, WORD633, (1, 1, 1, 1, 1))
    assert "".join(sample.descriptor.trace.marks) == "oooo+o"
    assert sample.t_params == {k: Fraction(1) for k in (1, 2, 3, 4, 6)}
    z = rep(sample.group_word)
    cert = is_totally_nonnegative(z, WORD633)
    assert cert
    assert cert.endpoint == s2


def test_sample_positive_validation():
    s2 = simple_reflection(4, 2)
    with pytest.raises(InputError):
        sample_positive(s2, WORD633, (1, 1, 1))
    with pytest.raises(InputError):
        sample_positive(s2, WORD633, {1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
    with pytest.raises(DomainError):
        sample_positive(s2, WORD633, (1, 1, -1, 1, 1))
    with pytest.raises(DomainError):
        sample_positive(s2, WORD633, (1, 1, 0, 1, 1))
    with pytest.raises(DomainError):
        sample_positive(longest_element(4), (3, 2, 3), (1,))


@pytest.mark.parametrize(
    "t_params, message",
    [
        ((1, 1, 0.1, 1, 1), "cannot interpret 0.1 as a rational number"),
        ((1, True, 1, 1, 1), "cannot interpret True as a rational number"),
        ({1.9: 1, 2: 1, 3: 1, 4: 1, 6: 1}, "t parameter key must be an integer, got 1.9"),
        ({"x": 1, 2: 1, 3: 1, 4: 1, 6: 1}, "t parameter key must be an integer, got 'x'"),
        ({1: 0.5, 2: 1, 3: 1, 4: 1, 6: 1}, "cannot interpret 0.5 as a rational number"),
        ("12345", "t parameters must be a list, a tuple or a mapping, got '12345'"),
        (
            b"\x01\x02\x03\x04\x05",
            "t parameters must be a list, a tuple or a mapping, "
            "got b'\\x01\\x02\\x03\\x04\\x05'",
        ),
    ],
)
def test_sample_positive_reads_parameters_as_json_rationals(t_params, message):
    s2 = simple_reflection(4, 2)
    with pytest.raises(InputError) as exc:
        sample_positive(s2, WORD633, t_params)
    assert str(exc.value) == message
    exact = sample_positive(s2, WORD633, (Fraction(1, 2), 1, 1, 1, 1))
    keyed = {1: "1/2", 2: 1, 3: 1, 4: 1, 6: 1}
    assert sample_positive(s2, WORD633, keyed) == exact


def test_sample_positive_extremes():
    word = (1, 2, 1)
    w0 = longest_element(3)
    top = sample_positive(w0, word, ())
    assert [f.kind for f in top.group_word.factors] == ["s", "s", "s"]
    assert rep(top.group_word) == RatMatrix.identity(3)
    bottom = sample_positive(identity_perm(3), word, (1, 1, 1))
    assert [f.kind for f in bottom.group_word.factors] == ["y", "y", "y"]
    assert is_totally_nonnegative(rep(bottom.group_word), word)


def test_random_positive_sample_reproducible():
    s2 = simple_reflection(4, 2)
    a = random_positive_sample(s2, WORD633, 42)
    b = random_positive_sample(s2, WORD633, 42)
    assert a.t_params == b.t_params
    assert all(t > 0 for t in a.t_params.values())


def test_tnn_golden_failure():
    cert = is_totally_nonnegative(s102_matrix(), S102_WORD)
    assert not cert
    assert cert.descent_steps == (4,)
    assert "4" in cert.reason
    assert cert.endpoint == Permutation((1, 3, 2, 4))


def test_tnn_violated_inequality():
    neg = RatMatrix(((Fraction(1), Fraction(-2)), (Fraction(0), Fraction(1))))
    cert = is_totally_nonnegative(neg, (1,))
    assert not cert
    assert cert.violated == (1,)
    assert cert.descent_steps == ()
    pos = RatMatrix(((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))))
    assert is_totally_nonnegative(pos, (1,))


def test_tnn_certificate_json():
    cert = is_totally_nonnegative(s102_matrix(), S102_WORD)
    data = cert.to_json()
    assert data["totally_nonnegative"] is False
    assert data["descent_steps"] == [4]
    assert data["v"] == [1, 3, 2, 4]


def test_positive_samples_are_nonnegative():
    rng = random.Random(31)
    for _ in range(15):
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        v = random_perm(rng, d)
        if not bruhat_leq(v, w):
            continue
        sample = random_positive_sample(v, word, rng.randrange(10**6))
        z = rep(sample.group_word)
        cert = is_totally_nonnegative(z, word)
        assert cert
        assert cert.endpoint == v
        assert all(r.ok for r in cert.inequalities)
        assert cert.violated == ()


def test_all_chamber_minors_positive_on_samples():
    # Strict positivity holds at every step, not only the free ones.
    rng = random.Random(57)
    for _ in range(10):
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        v = random_perm(rng, d)
        if not bruhat_leq(v, w):
            continue
        sample = random_positive_sample(v, word, rng.randrange(10**6))
        z = rep(sample.group_word)
        tr = sample.descriptor.trace
        w_prefix = identity_perm(d)
        for k, i in enumerate(word, start=1):
            w_prefix = w_prefix.times_s(i)
            assert gmin(z, tr.values[k], w_prefix, i) > 0


def test_minors_nonnegative_over_all_row_sets():
    rng = random.Random(91)
    for _ in range(8):
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        v = random_perm(rng, d)
        if not bruhat_leq(v, w):
            continue
        sample = random_positive_sample(v, word, rng.randrange(10**6))
        z = rep(sample.group_word)
        for u in all_permutations(d):
            for i in range(1, d):
                assert gmin(z, u, w, i) >= 0


def test_prefix_flags_stay_nonnegative():
    rng = random.Random(73)
    for _ in range(10):
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        v = random_perm(rng, d)
        if not bruhat_leq(v, w):
            continue
        sample = random_positive_sample(v, word, rng.randrange(10**6))
        z = rep(sample.group_word)
        for k in range(len(word) + 1):
            zk, wk = unipotent_representative(reduce_flag(z, word, k))
            assert wk == evaluate_word(d, word[:k])
            assert is_totally_nonnegative(zk, word[:k])


def test_unipotent_stabilizer_fixes_component_flags():
    # When every u in the Bruhat interval keeps the simple root positive,
    # the corresponding one-parameter subgroup fixes all flags over it.
    rng = random.Random(19)
    done = 0
    while done < 12:
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        trace = random_distinguished(rng, d, word)
        desc = ComponentDescriptor(trace)
        v = desc.endpoint
        gw = build_element(
            desc,
            {k: random_nonzero(rng) for k in desc.stay_positions},
            {k: random_rational(rng) for k in desc.descent_positions},
        )
        g = evaluate(gw)
        interval = [
            u for u in all_permutations(d) if bruhat_leq(v, u) and bruhat_leq(u, w)
        ]
        for i0 in range(1, d):
            inv = {u: u.inverse() for u in interval}
            if all(inv[u](i0) < inv[u](i0 + 1) for u in interval):
                m = random_nonzero(rng)
                assert flag_equal(gen_x(d, i0, m) * g, g)
                done += 1


def test_each_inequality_is_needed():
    rng = random.Random(47)
    done = 0
    while done < 12:
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        v = random_perm(rng, d)
        if not bruhat_leq(v, w) or v == w:
            continue
        desc = ComponentDescriptor(positive_subexpression(v, word))
        stays = desc.stay_positions
        target = rng.choice(stays)
        coords = {k: Fraction(-1 if k == target else 1) for k in stays}
        res = element_from_coordinates(desc, coords)
        z = rep(res.group_word)
        cert = is_totally_nonnegative(z, word)
        assert not cert
        assert cert.violated == (target,)
        done += 1


def test_nonnegative_part_is_word_independent():
    rng = random.Random(83)
    for w in all_permutations(3):
        if w.length() < 2:
            continue
        words = reduced_words(w)
        for v in all_permutations(3):
            if not bruhat_leq(v, w):
                continue
            sample = random_positive_sample(v, words[0], rng.randrange(10**6))
            z = rep(sample.group_word)
            for word in words:
                cert = is_totally_nonnegative(z, word)
                assert cert
                assert cert.endpoint == v


def test_braid_move_golden():
    assert braid_move_y(1, 1, 1) == (Fraction(1, 2), Fraction(2), Fraction(1, 2))
    with pytest.raises(DomainError):
        braid_move_y(3, 1, -3)


def test_braid_move_reads_arguments_as_rationals():
    expected = braid_move_y(Fraction(1, 2), 3, Fraction(-2, 5))
    assert braid_move_y("1/2", "3", "-2/5") == expected
    for bad in (0.1, True):
        with pytest.raises(InputError):
            braid_move_y(bad, 1, 1)
        with pytest.raises(InputError):
            braid_move_y(1, 1, bad)
    with pytest.raises(InputError):
        braid_move_y("abc", 1, 1)


def test_braid_move_matrix_identity():
    from deodhar.pinning import gen_y

    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (random_nonzero(rng) for _ in range(3))
        if a + c == 0:
            continue
        bp, ap, cp = braid_move_y(a, b, c)
        for i, j in ((1, 2), (2, 1)):
            lhs = gen_y(3, i, a) * gen_y(3, j, b) * gen_y(3, i, c)
            rhs = gen_y(3, j, bp) * gen_y(3, i, ap) * gen_y(3, j, cp)
            assert lhs == rhs


def test_braid_move_preserves_positivity():
    rng = random.Random(29)
    for _ in range(25):
        triple = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
        out = braid_move_y(*triple)
        assert all(x > 0 for x in out)


def test_certificate_records_are_the_classify_probes():
    rng = random.Random(59)
    for n in range(30):
        d = rng.choice([3, 4, 5])
        word = random_reduced_word(rng, random_perm(rng, d))
        if n % 2:
            v = classify(random_unipotent(rng, d), word).endpoint
            z = rep(random_positive_sample(v, word, n).group_word)
        else:
            z = random_unipotent(rng, d)
        steps = classify_steps(z, word)
        cert = is_totally_nonnegative(z, word)
        assert [(r.k, r.rows, r.cols, r.value) for r in cert.inequalities] == [
            (s.k, s.rows, s.cols, s.probe) for s in steps if s.case == "stay"
        ]
        assert [(r.k, r.rows, r.cols, r.value) for r in cert.equalities] == [
            (s.k, s.rows, s.cols, s.probe) for s in steps if s.case == "ascend"
        ]


def test_tnn_check_evaluates_no_minor_of_z(monkeypatch):
    # The certificate's minors are the probes the sweep read off its table:
    # no minor of z is evaluated, and each recorded value is that minor.
    rng = random.Random(67)
    real = RatMatrix.minor
    for n in range(20):
        d = rng.choice([4, 5, 6])
        word = random_reduced_word(rng, random_perm(rng, d))
        if n % 2:
            v = classify(random_unipotent(rng, d), word).endpoint
            z = rep(random_positive_sample(v, word, n).group_word)
        else:
            z = random_unipotent(rng, d)
        free = [s for s in classify_steps(z, word) if s.case != "forced"]
        calls = []

        def recording(self, rows, cols):
            calls.append((self, tuple(rows), tuple(cols)))
            return real(self, rows, cols)

        monkeypatch.setattr(RatMatrix, "minor", recording)
        cert = is_totally_nonnegative(z, word)
        monkeypatch.undo()
        assert not calls
        records = sorted(cert.equalities + cert.inequalities, key=lambda r: r.k)
        assert [(r.k, r.rows, r.cols) for r in records] == [(s.k, s.rows, s.cols) for s in free]
        for r, s in zip(records, free):
            assert r.value == s.probe == z.minor(r.rows, r.cols)


def certificate_from_conditions(z, word):
    """The certificate's JSON, built from the component's conditions and probes."""
    desc = classify(z, word)
    cond = component_conditions(desc)
    probes = {s.k: s.probe for s in classify_steps(z, word) if s.case == "stay"}

    def record(k, rows, cols, value, relation):
        return {
            "k": k, "rows": list(rows), "cols": list(cols),
            "value": rational_to_json(value), "relation": relation,
        }

    descents = list(desc.descent_positions)
    violated = [k for k, _, _ in cond.nonzero_minors if probes[k] <= 0]
    if descents:
        reason = (
            f"trace has length-decreasing steps at {descents}, "
            "so it is not the positive trace of its endpoint"
        )
    elif violated:
        reason = f"chamber minors at steps {violated} are not positive"
    else:
        reason = "flag lies in the totally nonnegative part"
    return {
        "totally_nonnegative": not descents and not violated,
        "v": list(desc.endpoint.images),
        "reason": reason,
        "descent_steps": descents,
        "equalities": [record(k, r, c, Fraction(0), "=") for k, r, c in cond.zero_minors],
        "inequalities": [record(k, r, c, probes[k], ">") for k, r, c in cond.nonzero_minors],
        "violated": violated,
    }


def test_certificate_is_the_component_conditions_in_one_pass(monkeypatch):
    # The one-pass certificate prints what the component's conditions and
    # the classify probes give, and takes two index sets at each ascent or
    # stay step and none at a descent.
    rng = random.Random(73)
    real = Permutation.prefix_set
    calls = []

    def counted(self, i):
        calls.append(i)
        return real(self, i)

    kinds = set()
    for n in range(45):
        d = rng.choice([3, 4, 5, 6])
        word = random_reduced_word(rng, random_perm(rng, d))
        if n % 3 == 0:
            v = classify(random_unipotent(rng, d), word).endpoint
            z = rep(random_positive_sample(v, word, n).group_word)
        elif n % 3 == 1:
            z = random_unipotent(rng, d)
        else:
            desc, z = random_component_flag(rng, d)
            word = desc.word
        expected = certificate_from_conditions(z, word)
        monkeypatch.setattr(Permutation, "prefix_set", counted)
        calls.clear()
        cert = is_totally_nonnegative(z, word)
        monkeypatch.undo()
        assert cert.to_json() == expected
        assert len(calls) == 2 * (len(word) - len(cert.descent_steps))
        kinds.add((cert.nonnegative, bool(cert.descent_steps), bool(cert.violated)))
    assert kinds >= {(True, False, False), (False, True, False), (False, False, True)}
