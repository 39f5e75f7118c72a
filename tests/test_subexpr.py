import itertools
import math
import random

import pytest

from deodhar import (
    ComponentDescriptor,
    DomainError,
    InputError,
    InternalCheckError,
    Permutation,
    RPolynomial,
    SubexpressionTrace,
    enumerate_distinguished,
    evaluate_word,
    identity_perm,
    is_distinguished,
    positive_subexpression,
    r_polynomial,
    reduced_words,
    simple_reflection,
    trace_from_json,
    trace_to_json,
)
from deodhar import subexpr
from deodhar.weyl import a_reduced_word, all_permutations, check_reduced_word, longest_element

from support import (
    bruhat_leq_subword,
    kl_r_polynomial,
    random_distinguished,
    random_perm,
    random_reduced_word,
)

WORD633 = (3, 2, 1, 3, 2, 3)


def _marks(trace: SubexpressionTrace) -> str:
    return "".join(trace.marks)


def test_trace_validation():
    word = (1, 2)
    e = identity_perm(3)
    s1 = simple_reflection(3, 1)
    with pytest.raises(InputError):
        SubexpressionTrace(word, (e, s1), ("+", "+"))
    with pytest.raises(InputError):
        SubexpressionTrace(word, (s1, s1, s1), ("o", "o"))
    with pytest.raises(InputError):
        SubexpressionTrace(word, (e, s1, s1), ("+", "+"))


def test_trace_keeps_a_list_or_a_tuple():
    # Lists are stored as tuples, so the trace hashes and equals its tuple
    # twin; any other container, and a value that is not a permutation, is
    # refused by name.
    e, s1 = identity_perm(2), simple_reflection(2, 1)
    trace = SubexpressionTrace([1], [e, s1], ["+"])
    assert (trace.word, trace.values, trace.marks) == ((1,), (e, s1), ("+",))
    assert len({trace, SubexpressionTrace((1,), (e, s1), ("+",))}) == 1
    for name, bad in (
        ("word", iter([1])),
        ("word", range(1, 2)),
        ("values", {e: 0, s1: 1}),
        ("marks", "+"),
    ):
        fields = {"word": [1], "values": [e, s1], "marks": ["+"], name: bad}
        with pytest.raises(InputError) as info:
            SubexpressionTrace(**fields)
        assert str(info.value) == f"trace {name} must be a list or a tuple, got {bad!r}"
    with pytest.raises(InputError) as info:
        SubexpressionTrace([1], [(1, 2), (2, 1)], ["+"])
    assert str(info.value) == "trace value must be a Permutation, got tuple"


def test_trace_positions_and_counts():
    tr = positive_subexpression(simple_reflection(4, 2), WORD633)
    assert tr.positions("o") == tr.positions("o")
    assert tr.stay_count + len(tr.positions("+")) + tr.down_count == len(WORD633)


def test_distinguished_for_s2s3():
    # Two traces, not one: dropping "+oo-++" would break the point-count
    # identity, since R_{v,w} = (q-1)^4 + q(q-1)^2 here.
    v = evaluate_word(4, (2, 3))
    traces = enumerate_distinguished(v, WORD633)
    assert {_marks(t) for t in traces} == {"oooo++", "+oo-++"}
    positive = [t for t in traces if t.is_positive()]
    assert len(positive) == 1
    tr = positive[0]
    assert _marks(tr) == "oooo++"
    assert [p.images for p in tr.values] == [
        (1, 2, 3, 4),
        (1, 2, 3, 4),
        (1, 2, 3, 4),
        (1, 2, 3, 4),
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (1, 3, 4, 2),
    ]


def test_four_distinguished_for_s2():
    v = simple_reflection(4, 2)
    traces = enumerate_distinguished(v, WORD633)
    assert len(traces) == 4
    assert {_marks(t) for t in traces} == {"oooo+o", "+oo-+o", "o+o+o-", "++o+--"}
    positives = [t for t in traces if t.is_positive()]
    assert len(positives) == 1
    assert _marks(positives[0]) == "oooo+o"
    assert positive_subexpression(v, WORD633) == positives[0]


def test_enumeration_degree_limit():
    assert [_marks(t) for t in enumerate_distinguished(identity_perm(6), (1,))] == ["o"]
    with pytest.raises(DomainError) as exc:
        enumerate_distinguished(identity_perm(7), (1,))
    assert str(exc.value) == "distinguished enumeration is limited to degree 6"


def test_positive_subexpression_is_one_walk(monkeypatch):
    # One product per move of the backward walk: the word check swaps its
    # prefixes' images in place, and there is no forward rebuild and no
    # re-check of the trace.
    real = Permutation.times_s
    calls = []
    monkeypatch.setattr(
        Permutation, "times_s", lambda self, i: calls.append(i) or real(self, i)
    )
    rng = random.Random(41)
    for _ in range(20):
        word = random_reduced_word(rng, longest_element(6))
        v = random_perm(rng, 6)
        calls.clear()
        trace = positive_subexpression(v, word)
        assert len(calls) == len(trace.positions("+"))


def test_recovered_trace_values():
    v = simple_reflection(4, 2)
    by_marks = {_marks(t): t for t in enumerate_distinguished(v, WORD633)}
    s2 = simple_reflection(4, 2)
    s3 = simple_reflection(4, 3)
    e = identity_perm(4)
    assert by_marks["o+o+o-"].values == (e, e, s2, s2, s2 * s3, s2 * s3, s2)
    assert by_marks["+oo-+o"].values == (e, s3, s3, s3, e, s2, s2)


def test_positive_subexpression_properties():
    rng = random.Random(5)
    for _ in range(40):
        w = random_perm(rng, 4)
        word = random_reduced_word(rng, w)
        for v in all_permutations(4):
            if not _leq(v, w):
                with pytest.raises(DomainError):
                    positive_subexpression(v, word)
                continue
            tr = positive_subexpression(v, word)
            assert tr.endpoint == v
            assert tr.down_count == 0
            assert tr.stay_count == w.length() - v.length()
            assert is_distinguished(tr)
            assert tr.is_positive()


def _leq(v, w):
    from deodhar import bruhat_leq

    return bruhat_leq(v, w)


def test_enumerate_agrees_with_random_walks():
    rng = random.Random(6)
    for _ in range(25):
        w = random_perm(rng, 4)
        word = random_reduced_word(rng, w)
        tr = random_distinguished(rng, 4, word)
        assert is_distinguished(tr)
        found = enumerate_distinguished(tr.endpoint, word)
        assert tr in found


def _distinguished_by_brute_force(d: int, word: tuple[int, ...]) -> dict:
    """Mark strings of the distinguished subexpressions, keyed by endpoint.

    Tries all 2^n keep/move sequences with permutations as plain tuples.
    """
    out: dict[tuple[int, ...], list[str]] = {}
    for moves in itertools.product((False, True), repeat=len(word)):
        cur = tuple(range(1, d + 1))
        marks = ""
        for i, move in zip(word, moves):
            descent = cur[i - 1] > cur[i]
            if descent and not move:
                break
            if move:
                cur = cur[: i - 1] + (cur[i], cur[i - 1]) + cur[i + 1 :]
            marks += "-" if descent else ("+" if move else "o")
        else:
            out.setdefault(cur, []).append(marks)
    return out


def _words_for_oracle() -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random(11)
    w0 = longest_element(5)
    words = [(4, word) for word in reduced_words(longest_element(4))]
    words += [(5, random_reduced_word(rng, w0)) for _ in range(5)]
    words += [(5, random_reduced_word(rng, random_perm(rng, 5))) for _ in range(5)]
    return words


@pytest.mark.parametrize("d, word", _words_for_oracle())
def test_enumerate_matches_brute_force(d, word):
    expected = _distinguished_by_brute_force(d, word)
    for v in all_permutations(d):
        found = [_marks(t) for t in enumerate_distinguished(v, word)]
        assert found == sorted(expected.get(v.images, []))


def test_positive_subexpression_on_a_long_word():
    # 1,225 letters, more than the default recursion limit.
    d = 50
    word = a_reduced_word(longest_element(d))
    images = list(range(1, d + 1))
    random.Random(50).shuffle(images)
    v = Permutation(tuple(images))
    cur, moves = list(images), []
    for i in reversed(word):
        moves.append(cur[i - 1] > cur[i])
        if moves[-1]:
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
    assert cur == list(range(1, d + 1))
    tr = positive_subexpression(v, word)
    assert _marks(tr) == "".join("+" if m else "o" for m in reversed(moves))
    assert tr.endpoint == v
    assert tr.stay_count == len(word) - v.length()


def test_distinguished_rejects_skipped_descent():
    word = (1, 1)
    e = identity_perm(2)
    s1 = simple_reflection(2, 1)
    skipping = SubexpressionTrace(word, (e, s1, s1), ("+", "o"))
    assert not is_distinguished(skipping)
    taking = SubexpressionTrace(word, (e, s1, e), ("+", "-"))
    assert is_distinguished(taking)


def test_rpolynomial_arithmetic():
    q_minus_1 = RPolynomial.from_coeffs([-1, 1])
    sq = q_minus_1 * q_minus_1
    assert sq.coeffs == (1, -2, 1)
    assert sq.pretty() == "q^2 - 2q + 1"
    assert (sq + RPolynomial.one()).coeffs == (2, -2, 1)
    assert RPolynomial.zero().is_zero
    assert sq(3) == 4
    assert RPolynomial.from_coeffs([0, 1]).pretty() == "q"
    assert str(sq) == "q^2 - 2q + 1"
    assert RPolynomial.zero() * sq == sq * RPolynomial.zero() == RPolynomial.zero()
    with pytest.raises(InputError) as exc:
        RPolynomial((1, 0))
    assert str(exc.value) == "coefficient tuple has trailing zeros"


@pytest.mark.parametrize(
    ("build", "arg", "want"),
    [
        (RPolynomial, (1.5,), "got 1.5"),
        (RPolynomial, (True,), "got True"),
        (RPolynomial, ("1",), "got '1'"),
        (RPolynomial.from_coeffs, [0.0, 1.0], "got 0.0"),
        (RPolynomial.from_coeffs, [1, 0.0], "got 0.0"),
        (RPolynomial, [1, 2], (1, 2)),
    ],
    ids=["float", "bool", "string", "from_coeffs float", "from_coeffs trailing float", "list"],
)
def test_rpolynomial_takes_only_integer_coefficients(build, arg, want):
    # Each coefficient is read as an integer and the tuple is stored, so a
    # list of ints gives a hashable polynomial.
    if isinstance(want, tuple):
        p = build(arg)
        assert p.coeffs == want and p in {RPolynomial(want)}
        return
    with pytest.raises(InputError) as exc:
        build(arg)
    assert str(exc.value) == f"R-polynomial coefficient must be an integer, {want}"


@pytest.mark.parametrize("coeffs", [{1: 2}, 5, None], ids=["dict", "int", "None"])
def test_rpolynomial_refuses_a_non_sequence(coeffs):
    # A dict would give the polynomial of its keys, and an int or None would
    # escape as a bare TypeError.
    with pytest.raises(InputError) as exc:
        RPolynomial(coeffs)
    assert str(exc.value) == (
        f"R-polynomial coefficients must be a list or a tuple, got {coeffs!r}"
    )


@pytest.mark.parametrize(
    "coeffs", [{1: 2}, 5, None, (c for c in [1, 2])], ids=["dict", "int", "None", "generator"]
)
def test_from_coeffs_refuses_a_non_sequence(coeffs):
    # As the constructor does: a dict would give the polynomial of its keys,
    # and an int or None would escape as a bare TypeError.
    with pytest.raises(InputError) as exc:
        RPolynomial.from_coeffs(coeffs)
    assert str(exc.value) == (
        f"R-polynomial coefficients must be a list or a tuple, got {coeffs!r}"
    )


def test_rpolynomial_arithmetic_reads_no_coefficient_again(monkeypatch):
    # Sums and products of polynomials the library built are built from
    # integers already read.  Deodhar's count sum_v R_{v,w0} = q^l(w0)
    # checks the sums, values at q = 0..deg the products.
    w0 = longest_element(4)
    polys = [r_polynomial(v, w0, a_reduced_word(w0)) for v in all_permutations(4)]
    minus_one = RPolynomial((-1,))
    reads = []
    real = subexpr._int_from_json

    def counted(x, what):
        reads.append(x)
        return real(x, what)

    monkeypatch.setattr(subexpr, "_int_from_json", counted)
    total = RPolynomial.zero()
    for p in polys:
        total = total + p
    product = RPolynomial.one()
    for p in polys:
        product = product * p
    cancelled = polys[5] + polys[5] * minus_one
    monkeypatch.undo()
    assert reads == []
    assert total == RPolynomial((0, 0, 0, 0, 0, 0, 1))
    assert product.degree == sum(p.degree for p in polys)
    for q in range(product.degree + 1):
        assert product(q) == math.prod(p(q) for p in polys)
    assert cancelled == RPolynomial.zero() and cancelled.coeffs == ()


def _power(p: RPolynomial, n: int) -> RPolynomial:
    out = RPolynomial.one()
    for _ in range(n):
        out = out * p
    return out


def test_r_polynomial_golden_cell():
    w = evaluate_word(4, WORD633)
    v = simple_reflection(4, 2)
    r = r_polynomial(v, w, WORD633)
    q = RPolynomial.from_coeffs([0, 1])
    qm1 = RPolynomial.from_coeffs([-1, 1])
    expected = _power(qm1, 5) + q * _power(qm1, 3) + q * _power(qm1, 3) + q * q * qm1
    assert r == expected
    assert r.degree == w.length() - v.length()
    assert r.is_monic()


def test_r_polynomial_vs_oracle_spot():
    rng = random.Random(7)
    for _ in range(20):
        w = random_perm(rng, 4)
        word = random_reduced_word(rng, w)
        v = random_perm(rng, 4)
        assert r_polynomial(v, w, word).coeffs == tuple(kl_r_polynomial(v, w))


@pytest.mark.parametrize("d", [6, 7])
def test_r_polynomial_matches_oracle_on_random_words(d):
    # Random comparable pairs, each on a random reduced word of w.  A trace
    # with s stays has s = L (mod 2) and s <= L, L = l(w) - l(v), so every
    # other field of the tally at e is zero.
    rng = random.Random(d)
    for _ in range(25):
        w = random_perm(rng, d)
        word = random_reduced_word(rng, w)
        v = evaluate_word(d, [i for i in word if rng.random() < 0.5])
        assert r_polynomial(v, w, word).coeffs == tuple(kl_r_polynomial(v, w)), (v, w, word)
        b, length = len(word) + 1, w.length() - v.length()
        tally = subexpr._pass_back(v, word, check_reduced_word(d, word)[1], [b] * len(word))
        for stays in range(len(word) + 1):
            if (length - stays) % 2 or stays > length:
                assert tally >> stays * b & (1 << b) - 1 == 0, (v, w, word, stays)


def test_r_polynomial_edge_cases():
    e = identity_perm(3)
    w = evaluate_word(3, (1, 2))
    assert r_polynomial(w, w, (1, 2)) == RPolynomial.one()
    assert r_polynomial(evaluate_word(3, (2, 1)), w, (1, 2)).is_zero
    with pytest.raises(InputError):
        r_polynomial(e, w, (1, 2, 1))
    with pytest.raises(InputError):
        r_polynomial(e, w, (2, 1))


def test_r_polynomial_degree_mismatch_names_both_degrees():
    # Checked before the word, which could only report a wrong product or a
    # letter out of range for one of the two degrees.
    v, w = identity_perm(2), evaluate_word(3, (1, 2, 1))
    for a, b, word in ((v, w, (1, 2, 1)), (w, v, (1,)), (w, v, (1, 2, 1))):
        with pytest.raises(InputError, match=f"v has degree {a.d}, w has degree {b.d}"):
            r_polynomial(a, b, word)


def test_r_polynomial_word_independent_spot():
    w = evaluate_word(4, WORD633)
    for v in (identity_perm(4), simple_reflection(4, 2)):
        values = {r_polynomial(v, w, word).coeffs for word in reduced_words(w)}
        assert len(values) == 1


def test_r_polynomial_matches_oracle_on_every_pair_at_degree_five():
    # Every pair at d = 3, 4 and 5; and Deodhar's count for every w: the
    # components of the cell of w partition it, so sum_v R_{v,w} = q^{l(w)}.
    for d in (3, 4, 5):
        perms = list(all_permutations(d))
        for w in perms:
            word = a_reduced_word(w)
            total = RPolynomial.zero()
            for v in perms:
                r = r_polynomial(v, w, word)
                assert r.coeffs == tuple(kl_r_polynomial(v, w)), (v, w)
                total = total + r
            assert total.coeffs == (0,) * w.length() + (1,), w


def test_r_polynomials_of_w0_sum_to_its_cell():
    # The Deodhar components of the cell of w0 partition it: q^{l(w0)} points.
    w0 = longest_element(6)
    word = a_reduced_word(w0)
    total = RPolynomial.zero()
    for v in all_permutations(6):
        total = total + r_polynomial(v, w0, word)
    assert total.coeffs == (0,) * 15 + (1,)


def test_r_polynomial_matches_enumerated_traces_at_degree_six():
    rng = random.Random(11)
    e, w0 = identity_perm(6), longest_element(6)
    pairs = [(e, w0, random_reduced_word(rng, w0))]
    while len(pairs) < 12:
        w = random_perm(rng, 6)
        word = random_reduced_word(rng, w)
        v = evaluate_word(6, [i for i in word if rng.random() < 0.5])
        pairs.append((v, w, word))
    q, qm1 = RPolynomial.from_coeffs([0, 1]), RPolynomial.from_coeffs([-1, 1])
    for v, w, word in pairs:
        expected = RPolynomial.zero()
        for t in enumerate_distinguished(v, word):
            expected = expected + _power(qm1, t.stay_count) * _power(q, t.down_count)
        assert r_polynomial(v, w, word) == expected, (v, w, word)


@pytest.mark.parametrize("d", [7, 8, 11])
def test_r_polynomial_of_w0_above_enumeration_limit(d):
    # A reduced word reversed is one for w0^{-1} = w0, and R does not depend
    # on the word; d = 11 is the R-polynomial limit.
    w0 = longest_element(d)
    word = a_reduced_word(w0)
    r = r_polynomial(identity_perm(d), w0, word)
    assert r_polynomial(identity_perm(d), w0, tuple(reversed(word))) == r
    assert r.degree == w0.length()
    assert r.is_monic()
    assert r(1) == 0


def test_r_polynomial_degree_limit():
    w0 = longest_element(11)
    assert r_polynomial(identity_perm(11), w0, a_reduced_word(w0)).degree == 55
    w0 = longest_element(12)
    with pytest.raises(DomainError) as exc:
        r_polynomial(identity_perm(12), w0, a_reduced_word(w0))
    assert str(exc.value) == "R-polynomials are limited to degree 11"
    # Incomparable pairs are decided before the limit, so they stay zero.
    s1, s2 = simple_reflection(12, 1), simple_reflection(12, 2)
    assert r_polynomial(s1, s2, (2,)).is_zero


def test_r_polynomial_validates_the_word_once(monkeypatch):
    calls = []

    def counting(d, word):
        calls.append(word)
        return check_reduced_word(d, word)

    monkeypatch.setattr(subexpr, "check_reduced_word", counting)
    w0 = longest_element(4)
    r_polynomial(identity_perm(4), w0, a_reduced_word(w0))
    assert len(calls) == 1


def test_r_polynomial_pass_raises_when_it_misses_the_identity(monkeypatch):
    # A descent check that lets every value through leaves states other
    # than e at step 0; the pass must raise, never return a value.
    monkeypatch.setattr(subexpr, "_prefix_below", lambda x, i, bound: True)
    w0 = longest_element(4)
    with pytest.raises(InternalCheckError, match="did not end at the identity"):
        r_polynomial(identity_perm(4), w0, a_reduced_word(w0))


def test_enumeration_pass_raises_when_it_misses_the_identity(monkeypatch):
    # The same broken descent check under enumeration: listing fewer traces
    # than exist would be a silent wrong answer.
    monkeypatch.setattr(subexpr, "_prefix_below", lambda x, i, bound: True)
    w0 = longest_element(4)
    with pytest.raises(InternalCheckError, match="did not end at the identity"):
        enumerate_distinguished(identity_perm(4), a_reduced_word(w0))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_one_prefix_rule_matches_bruhat_leq(d):
    # If y <= w and i is not a right descent of y, then y s_i <= w is
    # decided by the i-th sorted prefix alone.
    perms = list(all_permutations(d))
    outcomes = set()
    for w in perms:
        for y in perms:
            if not _leq(y, w):
                continue
            for i in range(1, d):
                if y.right_descent(i):
                    continue
                x = y.times_s(i)
                bound = sorted(w.images[:i])
                below = subexpr._prefix_below(x.images, i, bound)
                assert below == _leq(x, w), (y, w, i)
                outcomes.add(below)
    assert outcomes == {True, False}


def test_backward_pass_makes_no_bruhat_check(monkeypatch):
    # r_polynomial compares v with w once; the pass itself compares nothing.
    calls = []
    original = subexpr.bruhat_leq

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(subexpr, "bruhat_leq", counting)
    w0 = longest_element(5)
    for word in (a_reduced_word(w0), tuple(reversed(a_reduced_word(w0)))):
        calls.clear()
        r_polynomial(identity_perm(5), w0, word)
        assert calls == [(identity_perm(5), w0)]


def test_positive_subexpression_makes_no_bruhat_check(monkeypatch):
    def refuse(a, b):
        raise AssertionError("positive_subexpression compared in Bruhat order")

    cases = [
        (v, a_reduced_word(w), bruhat_leq_subword(v, w, a_reduced_word(w)))
        for w in list(all_permutations(4))[::3]
        for v in all_permutations(4)
    ]
    monkeypatch.setattr(subexpr, "bruhat_leq", refuse)
    found = 0
    for v, word, below in cases:
        if not below:
            with pytest.raises(DomainError):
                positive_subexpression(v, word)
            continue
        tr = positive_subexpression(v, word)
        assert tr.endpoint == v and tr.is_positive()
        found += 1
    assert found == 59


def test_trace_json_round_trip():
    tr = positive_subexpression(simple_reflection(4, 2), WORD633)
    data = trace_to_json(tr)
    assert data["marks"] == list(tr.marks)
    assert trace_from_json(data) == tr
    with pytest.raises(InputError):
        trace_from_json({"word": [1]})


@pytest.mark.parametrize(
    "word, values",
    [
        ([1.7, True], [[1, 2, 3], [2, 1, 3], [2, 1, 3]]),
        (["1", "2"], [[1, 2, 3], [2, 1, 3], [2, 1, 3]]),
        ([1, 2], [[1, 2, 3], [2, 1, 3], [2, 1.0, 3]]),
        ([1, 2], [[1, 2, 3], [2, 1, 3], [True, 1, 3]]),
    ],
)
def test_trace_from_json_takes_only_integers(word, values):
    data = {"word": word, "values": values, "marks": ["+", "o"]}
    with pytest.raises(InputError, match="must be an integer"):
        trace_from_json(data)


def test_trace_from_json_rejects_unreduced_word():
    # A distinguished trace over (1, 1): its shape alone is consistent.
    data = {
        "word": [1, 1],
        "values": [[1, 2, 3], [2, 1, 3], [1, 2, 3]],
        "marks": ["+", "-"],
    }
    for load in (trace_from_json, ComponentDescriptor.from_json):
        with pytest.raises(InputError, match=r"word \(1, 1\) is not reduced"):
            load(data)


# A reduced word for w0 in S_4.  Step 1 starts at e, which has no descent,
# so a "+" at a right descent can only appear from the second step on.
WORD_W0 = (1, 2, 1, 3, 2, 1)


def _malformed(marks: str, flip: int = 0, word=WORD_W0) -> dict:
    """Trace JSON whose step k moves when its mark is not "o", except at ``flip``."""
    values = [(1, 2, 3, 4)]
    for k, (i, mark) in enumerate(zip(word, marks), start=1):
        v = Permutation(values[-1])
        moved = mark != "o" and 1 <= i <= 3
        values.append((v.times_s(i) if moved != (k == flip) else v).images)
    return {"word": list(word), "values": [list(v) for v in values], "marks": [*marks]}


@pytest.mark.parametrize(
    "data, message",
    [
        (_malformed("xooooo"), "unknown mark 'x'"),
        (_malformed("+o?ooo"), "unknown mark '?'"),
        (_malformed("+oooo*"), "unknown mark '*'"),
        (_malformed("+o+ooo"), "step 3 of trace is inconsistent with its mark"),
        (_malformed("+oooo+"), "step 6 of trace is inconsistent with its mark"),
        (_malformed("-ooooo"), "step 1 of trace is inconsistent with its mark"),
        (_malformed("+-oooo"), "step 2 of trace is inconsistent with its mark"),
        (_malformed("ooooo-"), "step 6 of trace is inconsistent with its mark"),
        (_malformed("oooooo", flip=1), "step 1 of trace is inconsistent with its mark"),
        (_malformed("oooooo", flip=3), "step 3 of trace is inconsistent with its mark"),
        (_malformed("oooooo", flip=6), "step 6 of trace is inconsistent with its mark"),
        (_malformed("+ooooo", flip=1), "step 1 of trace is inconsistent with its mark"),
        (_malformed("+o-ooo", flip=3), "step 3 of trace is inconsistent with its mark"),
        (_malformed("ooooo+", flip=6), "step 6 of trace is inconsistent with its mark"),
        (_malformed("+oooo-", flip=6), "step 6 of trace is inconsistent with its mark"),
        (_malformed("+-ooxo"), "step 2 of trace is inconsistent with its mark"),
        (
            _malformed("oooooo", flip=2, word=(1, 2, 1, 3, 2, 5)),
            "letter 5 out of range 1..3",
        ),
        (
            {"word": [1], "values": [[1, 2], [2, 1]], "marks": "+"},
            "trace marks must be a JSON array, got '+'",
        ),
    ],
)
def test_malformed_trace_messages(data, message):
    values = tuple(Permutation(tuple(v)) for v in data["values"])
    direct = (tuple(data["word"]), values, tuple(data["marks"]))
    # Marks given as a string are a JSON shape error; the tuple built from
    # one here would be a valid trace.
    if isinstance(data["marks"], list):
        with pytest.raises(InputError) as exc:
            SubexpressionTrace(*direct)
        assert str(exc.value) == message
    for load in (trace_from_json, ComponentDescriptor.from_json):
        with pytest.raises(InputError) as exc:
            load(data)
        assert str(exc.value) == message
