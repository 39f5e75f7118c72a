import random
from fractions import Fraction

import pytest

from deodhar import (
    DomainError,
    InputError,
    Permutation,
    a_reduced_word,
    act,
    bruhat_leq,
    evaluate_word,
    fundamental_weight,
    identity_perm,
    is_reduced,
    longest_element,
    pair,
    reduced_words,
    simple_reflection,
)
from deodhar.components import classify, classify_steps
from deodhar.diagrams import classical_arrangement, classify_graphical
from deodhar.errors import LIMITS
from deodhar.linalg import RatMatrix
from deodhar.pinning import GroupWord, evaluate, gen_sdot, gen_x, group_word_from_json
from deodhar.subexpr import (
    SubexpressionTrace,
    enumerate_distinguished,
    positive_subexpression,
    r_polynomial,
)
from deodhar.weyl import all_permutations, check_reduced_word

from support import bruhat_leq_subword, random_perm, random_reduced_word


def test_permutation_validation():
    with pytest.raises(InputError):
        Permutation((1, 1, 2))
    with pytest.raises(InputError):
        Permutation(())


def test_composition_convention():
    a = Permutation((2, 3, 1))
    b = Permutation((3, 2, 1))
    ab = a * b
    for j in range(1, 4):
        assert ab(j) == a(b(j))


def test_inverse_and_identity():
    rng = random.Random(1)
    for _ in range(20):
        w = random_perm(rng, 5)
        assert w * w.inverse() == identity_perm(5)
        assert w.inverse() * w == identity_perm(5)
    assert identity_perm(4).is_identity()


def test_permutation_keeps_a_list_or_a_tuple():
    # A list and a tuple give one hashable permutation; any other container
    # is refused by name, not left to fail later as a bare TypeError.
    p = Permutation([2, 1, 3])
    assert p == Permutation((2, 1, 3)) and p.images == (2, 1, 3)
    assert len({p, Permutation((2, 1, 3))}) == 1
    e, w0 = Permutation([1, 2, 3]), longest_element(3)
    e3 = identity_perm(3)
    assert e == e3
    assert r_polynomial(e, w0, (1, 2, 1)) == r_polynomial(e3, w0, (1, 2, 1))
    assert enumerate_distinguished(e, (1, 2, 1)) == enumerate_distinguished(e3, (1, 2, 1))
    for images in ({1, 2, 3}, "123", range(1, 4)):
        with pytest.raises(InputError) as exc:
            Permutation(images)
        assert str(exc.value) == f"permutation images must be a list or a tuple, got {images!r}"


def test_length_counts_inversions():
    assert identity_perm(4).length() == 0
    assert longest_element(4).length() == 6
    assert Permutation((1, 3, 2, 4)).length() == 1
    assert Permutation((4, 3, 1, 2)).length() == 5


def test_right_multiplication_swaps_positions():
    w = Permutation((2, 4, 1, 3))
    ws = w.times_s(2)
    assert ws.images == (2, 1, 4, 3)
    assert simple_reflection(4, 3).images == (1, 2, 4, 3)
    sw = simple_reflection(4, 2) * w
    assert sw.images == tuple(3 if x == 2 else 2 if x == 3 else x for x in w.images)


def test_descent_detects_length_drop():
    w = Permutation((3, 1, 4, 2))
    for i in range(1, 4):
        drop = w.times_s(i).length() < w.length()
        assert w.right_descent(i) == drop


def test_longest_element_reverses():
    assert longest_element(4).images == (4, 3, 2, 1)
    w0 = longest_element(5)
    for w in (identity_perm(5), Permutation((2, 1, 4, 3, 5))):
        assert bruhat_leq(w, w0)


def test_bruhat_matches_subword_criterion():
    for d in (3, 4):
        perms = all_permutations(d)
        for w in perms:
            word = a_reduced_word(w)
            for v in perms:
                assert bruhat_leq(v, w) == bruhat_leq_subword(v, w, word), (v, w)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: Permutation((1, 2)) * Permutation((1, 2, 3)),
            "degree mismatch in permutation product",
        ),
        (lambda: RatMatrix.identity(2) * RatMatrix.identity(3), "size mismatch in matrix product"),
        (
            lambda: act(Permutation((2, 1)), (1, 0, 0)),
            "weight length does not match permutation degree",
        ),
    ],
    ids=["Permutation.__mul__", "RatMatrix.__mul__", "act"],
)
def test_operands_of_two_degrees_are_refused(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_bruhat_rank_mismatch():
    with pytest.raises(InputError):
        bruhat_leq(identity_perm(3), identity_perm(4))


def test_evaluate_word_and_reduced():
    w = evaluate_word(4, (3, 2, 1, 3, 2))
    assert w.images == (4, 3, 1, 2)
    assert is_reduced(4, (3, 2, 1, 3, 2))
    assert not is_reduced(4, (1, 1))
    assert not is_reduced(4, (1, 2, 1, 2))


def test_evaluate_word_builds_one_permutation(monkeypatch):
    # One list of images is swapped letter by letter: no Permutation is
    # built or checked on the way.
    calls = []
    for name in ("times_s", "__post_init__"):
        method = getattr(Permutation, name)
        monkeypatch.setattr(
            Permutation, name, lambda *a, _m=method: calls.append(1) or _m(*a)
        )
    rng = random.Random(6)
    word = [rng.randint(1, 5) for _ in range(20)]
    w = evaluate_word(6, word)
    assert calls == []
    monkeypatch.undo()
    expected = identity_perm(6)
    for i in word:
        expected = expected * simple_reflection(6, i)
    assert w == expected


def test_a_reduced_word_round_trip():
    rng = random.Random(2)
    for _ in range(30):
        w = random_perm(rng, 5)
        word = a_reduced_word(w)
        assert len(word) == w.length()
        assert evaluate_word(5, word) == w


def test_random_reduced_word_generator():
    rng = random.Random(3)
    for _ in range(30):
        w = random_perm(rng, 5)
        word = random_reduced_word(rng, w)
        assert is_reduced(5, word)
        assert evaluate_word(5, word) == w


def test_reduced_words_known_counts():
    assert reduced_words(longest_element(3)) == [(1, 2, 1), (2, 1, 2)]
    assert len(reduced_words(longest_element(4))) == 16
    assert reduced_words(identity_perm(3)) == [()]


def test_reduced_words_degree_limit():
    assert reduced_words(simple_reflection(6, 5)) == [(5,)]
    with pytest.raises(DomainError) as exc:
        reduced_words(simple_reflection(7, 6))
    assert str(exc.value) == "reduced word enumeration is limited to degree 6"


DEGREE_LIMIT = LIMITS["degree"][0]

# Each site where a caller fixes the degree, called with a valid input of
# degree d.
DEGREE_SITES = {
    "identity_perm": identity_perm,
    "longest_element": longest_element,
    "all_permutations": lambda d: next(all_permutations(d)),
    "fundamental_weight": lambda d: fundamental_weight(d, 1),
    "RatMatrix.identity": RatMatrix.identity,
    "classical_arrangement": lambda d: classical_arrangement([1], d),
    "GroupWord": lambda d: GroupWord(d, ()),
    "group_word_from_json": lambda d: group_word_from_json(d, [{"s": [1]}]),
    "gen_x": lambda d: gen_x(d, 1, 2),
    "Permutation": lambda d: Permutation(tuple(range(d, 0, -1))),
    "RatMatrix": lambda d: RatMatrix(((Fraction(1),) * d,) * d),
}


@pytest.mark.parametrize("site", DEGREE_SITES)
def test_degree_limit_at_every_site(site):
    DEGREE_SITES[site](DEGREE_LIMIT)
    with pytest.raises(DomainError) as exc:
        DEGREE_SITES[site](DEGREE_LIMIT + 1)
    assert str(exc.value) == (
        f"degree {DEGREE_LIMIT + 1} is above the degree limit {DEGREE_LIMIT}"
    )


# Each site where a caller fixes the degree, as in DEGREE_SITES, with the
# name its degree is read under.
LOW_DEGREE_SITES = {
    "RatMatrix.identity": (RatMatrix.identity, "matrix size"),
    "check_reduced_word": (lambda d: check_reduced_word(d, []), "degree"),
    "classify": (lambda d: classify(RatMatrix.identity(d), []), "matrix size"),
    "GroupWord": (lambda d: evaluate(GroupWord(d, ())), "degree"),
    "group_word_from_json": (lambda d: group_word_from_json(d, []), "degree"),
    "fundamental_weight": (lambda d: fundamental_weight(d, 0), "degree"),
    "identity_perm": (identity_perm, "degree"),
    "evaluate_word": (lambda d: evaluate_word(d, []), "degree"),
    "is_reduced": (lambda d: is_reduced(d, []), "degree"),
    "gen_sdot": (lambda d: gen_sdot(d, 1), "degree"),
    "classical_arrangement": (lambda d: classical_arrangement([], d), "strand count"),
}


@pytest.mark.parametrize("d", [0, -3])
@pytest.mark.parametrize("site", LOW_DEGREE_SITES)
def test_degree_below_one_at_every_site(site, d):
    # No site builds an object of degree below 1, which the constructors
    # of Permutation and RatMatrix refuse.
    call, what = LOW_DEGREE_SITES[site]
    with pytest.raises(InputError) as exc:
        call(d)
    assert str(exc.value) == f"{what} must be at least 1, got {d}"


def test_degree_limit_comes_before_any_work_of_size_d():
    # A huge degree is refused before a tuple of that size is built, and a
    # caller's permutation or matrix before any entry is read.
    for build in (identity_perm, longest_element):
        with pytest.raises(DomainError, match="degree 1000000000000 is above"):
            build(10**12)
    with pytest.raises(DomainError, match="is above the degree limit"):
        Permutation((0.5,) * (DEGREE_LIMIT + 1))
    with pytest.raises(DomainError, match="is above the degree limit"):
        RatMatrix(((),) * (DEGREE_LIMIT + 1))


def test_reduced_words_are_reduced_and_evaluate():
    w = Permutation((3, 1, 4, 2))
    words = reduced_words(w)
    assert len(set(words)) == len(words)
    for word in words:
        assert is_reduced(4, word)
        assert evaluate_word(4, word) == w


def test_fundamental_weights_and_pairing():
    assert fundamental_weight(4, 2) == (1, 1, 0, 0)
    assert fundamental_weight(4, 0) == (0, 0, 0, 0)
    for i in range(1, 4):
        for j in range(1, 4):
            assert pair(fundamental_weight(4, i), j) == (1 if i == j else 0)


def test_weight_action():
    lam = (3, 1, 0, 0)
    w = Permutation((2, 3, 1, 4))
    moved = act(w, lam)
    assert sorted(moved) == sorted(lam)
    assert moved[w(1) - 1] == lam[0]
    rng = random.Random(4)
    for _ in range(20):
        u, v = random_perm(rng, 4), random_perm(rng, 4)
        assert act(u * v, lam) == act(u, act(v, lam))


def test_pair_after_reflection_flips():
    lam = (2, 1, 1, 0)
    for i in range(1, 4):
        s = simple_reflection(4, i)
        assert pair(act(s, lam), i) == -pair(lam, i)


def test_cartan_entries():
    # The j-th simple root paired with the i-th simple coroot: 2 on the
    # diagonal, -1 for neighbours, 0 otherwise.
    for i in range(1, 4):
        for j in range(1, 4):
            alpha_j = tuple(
                (1 if k == j else -1 if k == j + 1 else 0) for k in range(1, 5)
            )
            assert pair(alpha_j, i) == {0: 2, 1: -1}.get(abs(i - j), 0)


def test_check_reduced_word():
    word, prefixes = check_reduced_word(4, [3, 2, 1])
    assert word == (3, 2, 1)
    assert prefixes[-1] == Permutation((4, 1, 2, 3))
    assert prefixes == tuple(evaluate_word(4, word[:k]) for k in range(len(word) + 1))
    assert check_reduced_word(3, ()) == ((), (identity_perm(3),))


VALIDATOR_CALLERS = {
    "check_reduced_word": lambda word: check_reduced_word(3, word),
    "classify_steps": lambda word: classify_steps(RatMatrix.identity(3), word),
    "classify_graphical": lambda word: classify_graphical(RatMatrix.identity(3), word),
    "positive_subexpression": lambda word: positive_subexpression(identity_perm(3), word),
    "enumerate_distinguished": lambda word: enumerate_distinguished(identity_perm(3), word),
    "r_polynomial": lambda word: r_polynomial(
        identity_perm(3), longest_element(3), word
    ),
}


@pytest.mark.parametrize("caller", sorted(VALIDATOR_CALLERS))
@pytest.mark.parametrize(
    "word, message",
    [
        ((1, 1), "word (1, 1) is not reduced"),
        ((2, 3), "letter 3 out of range 1..2"),
        ((True, 2), "letter must be an integer, got True"),
        ((1, 2.0), "letter must be an integer, got 2.0"),
    ],
)
def test_word_validators_share_messages(caller, word, message):
    with pytest.raises(InputError) as info:
        VALIDATOR_CALLERS[caller](list(word))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: classical_arrangement([2, 3], 3),
        lambda: SubexpressionTrace((2, 3), (identity_perm(3),) * 3, ("o", "o")),
    ],
    ids=["classical_arrangement", "SubexpressionTrace"],
)
def test_letter_checks_share_the_message(build):
    # Callers that take words which need not be reduced check letters only.
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == "letter 3 out of range 1..2"


@pytest.mark.parametrize(
    "build",
    [
        lambda: classical_arrangement([True], 3),
        lambda: SubexpressionTrace(
            (True,), (identity_perm(3), Permutation((2, 1, 3))), ("+",)
        ),
    ],
    ids=["classical_arrangement", "SubexpressionTrace"],
)
def test_letter_checks_refuse_booleans(build):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == "letter must be an integer, got True"


_NOT_INTEGERS = {
    "identity_perm": (identity_perm, "degree"),
    "longest_element": (longest_element, "degree"),
    "fundamental_weight": (lambda x: fundamental_weight(x, 1), "degree"),
    "simple_reflection": (lambda x: simple_reflection(3, x), "reflection index"),
    "pair-first": (lambda x: pair((x, 0), 1), "weight entry"),
    "pair-unpaired": (lambda x: pair((1, 0, x), 1), "weight entry"),
    "act": (lambda x: act(identity_perm(2), (x, 0)), "weight entry"),
}


@pytest.mark.parametrize("value", [2.0, 1.5, True])
@pytest.mark.parametrize("caller", sorted(_NOT_INTEGERS))
def test_degrees_indices_and_weights_take_only_integers(caller, value):
    # A float or a bool is refused by name, never read as the integer it
    # compares equal to and never left to escape as a bare TypeError.
    call, what = _NOT_INTEGERS[caller]
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be an integer, got {value!r}"
