"""Tests for the pinned generators, group words, and generalized minors."""

from fractions import Fraction

import pytest

from deodhar.diagrams import classical_arrangement
from deodhar.errors import DomainError, InputError
from deodhar.linalg import RatMatrix, flag_equal
from deodhar.pinning import (
    FACTOR_S,
    FACTOR_XSINV,
    FACTOR_Y,
    GroupFactor,
    GroupWord,
    _Columns,
    apply_lift,
    evaluate,
    factor_matrix,
    gen_acheck,
    gen_sdot,
    gen_sdot_inv,
    gen_x,
    gen_y,
    gmin,
    group_word_from_json,
    group_word_to_json,
    partial,
    perm_matrix,
    reduce_flag,
)
from deodhar.weyl import (
    Permutation,
    all_permutations,
    evaluate_word,
    fundamental_weight,
    identity_perm,
    pair,
    reduced_words,
    simple_reflection,
)

from support import (
    S102_WORD,
    random_component_flag,
    random_matrix,
    random_nonzero,
    random_perm,
    random_rational,
    random_reduced_word,
    s102_matrix,
)


def mat(rows):
    return RatMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))


def test_generator_matrices():
    assert gen_x(3, 1, 5) == mat([[1, 5, 0], [0, 1, 0], [0, 0, 1]])
    assert gen_x(3, 2, -2) == mat([[1, 0, 0], [0, 1, -2], [0, 0, 1]])
    assert gen_y(3, 1, 5) == mat([[1, 0, 0], [5, 1, 0], [0, 0, 1]])
    assert gen_y(4, 3, Fraction(1, 2)) == mat(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, Fraction(1, 2), 1]]
    )
    assert gen_sdot(3, 1) == mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    assert gen_sdot_inv(3, 1) == mat([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    assert gen_acheck(3, 2, 3) == mat(
        [[1, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 3)]]
    )


def test_generator_index_validation():
    with pytest.raises(InputError):
        gen_x(3, 0, 1)
    with pytest.raises(InputError):
        gen_y(3, 3, 1)
    with pytest.raises(InputError):
        gen_sdot(2, 2)
    with pytest.raises(InputError):
        gen_acheck(4, 1, 0)


def test_generators_have_determinant_one():
    for d in (2, 3, 4):
        for i in range(1, d):
            assert gen_x(d, i, 7).det() == 1
            assert gen_y(d, i, -3).det() == 1
            assert gen_sdot(d, i).det() == 1
            assert gen_sdot_inv(d, i).det() == 1
            assert gen_acheck(d, i, Fraction(2, 5)).det() == 1


def test_sdot_inverse_relations():
    for d in (2, 3, 4):
        for i in range(1, d):
            s = gen_sdot(d, i)
            sinv = gen_sdot_inv(d, i)
            assert s * sinv == RatMatrix.identity(d)
            assert sinv * s == RatMatrix.identity(d)
            assert sinv == gen_acheck(d, i, -1) * s


def test_torus_cocharacter_is_multiplicative():
    a = gen_acheck(4, 2, Fraction(3, 7))
    b = gen_acheck(4, 2, Fraction(-2))
    assert a * b == gen_acheck(4, 2, Fraction(-6, 7))


def test_reflection_lift_identity():
    # alpha_i^vee(1/t) sdot_i  =  x_i(-1/t) y_i(t) x_i(-1/t)
    for d in (2, 3, 4):
        for i in range(1, d):
            for t in (Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(7)):
                lhs = gen_acheck(d, i, 1 / t) * gen_sdot(d, i)
                rhs = gen_x(d, i, -1 / t) * gen_y(d, i, t) * gen_x(d, i, -1 / t)
                assert lhs == rhs


def test_perm_matrix_matches_reduced_word_products():
    # The lift of w must not depend on the chosen reduced word.
    for w in all_permutations(4):
        expected = perm_matrix(w)
        for word in reduced_words(w):
            prod = RatMatrix.identity(4)
            for i in word:
                prod = prod * gen_sdot(4, i)
            assert prod == expected


def test_perm_matrix_multiplicative_when_lengths_add():
    for a in all_permutations(3):
        for b in all_permutations(3):
            if (a * b).length() == a.length() + b.length():
                assert perm_matrix(a) * perm_matrix(b) == perm_matrix(a * b)


def test_perm_matrix_identity_and_entries():
    assert perm_matrix(identity_perm(4)) == RatMatrix.identity(4)
    w = Permutation((3, 1, 2))
    m = perm_matrix(w)
    for j in range(1, 4):
        inv = sum(1 for k in range(1, j) if w(k) > w(j))
        assert m.entry(w(j), j) == (-1) ** inv


def test_group_factor_validation():
    with pytest.raises(InputError):
        GroupFactor("z", 1, Fraction(1))
    with pytest.raises(InputError):
        GroupFactor(FACTOR_S, 1, Fraction(1))
    with pytest.raises(InputError):
        GroupFactor(FACTOR_Y, 1, None)
    with pytest.raises(InputError):
        GroupWord(3, (GroupFactor(FACTOR_S, 3),))
    for kind in (FACTOR_Y, FACTOR_XSINV):
        for param in (0.1, True, "abc"):
            with pytest.raises(InputError):
                GroupFactor(kind, 1, param)


@pytest.mark.parametrize(
    "kind, index, param",
    [(FACTOR_Y, "x", 1), (FACTOR_Y, True, 1), (FACTOR_XSINV, [1], 2)],
    ids=["str", "bool", "list"],
)
def test_group_factor_reads_its_index_when_built(kind, index, param):
    # The factor reads its index as an integer; GroupWord, which knows d,
    # checks the range.
    with pytest.raises(InputError) as exc:
        GroupFactor(kind, index, param)
    assert str(exc.value) == f"generator index must be an integer, got {index!r}"


def test_group_word_keeps_a_list_or_a_tuple():
    # A list and a tuple give one hashable word.  A generator, which the
    # index check would use up, and any other container are refused by
    # name, as is an item that is not a GroupFactor.
    s1 = GroupFactor(FACTOR_S, 1)
    gw = GroupWord(2, [s1])
    assert gw == GroupWord(2, (s1,)) and gw.factors == (s1,)
    assert len({gw, GroupWord(2, (s1,))}) == 1
    assert evaluate(gw) == gen_sdot(2, 1)
    assert group_word_to_json(gw) == [{FACTOR_S: [1]}]
    for factors in ((f for f in [s1]), {s1}, {s1: 1}, range(1)):
        with pytest.raises(InputError) as exc:
            GroupWord(2, factors)
        assert str(exc.value) == f"group word factors must be a list or a tuple, got {factors!r}"
    for item, name in (({FACTOR_S: [1]}, "dict"), ((FACTOR_S, 1), "tuple"), (None, "NoneType")):
        with pytest.raises(InputError) as exc:
            GroupWord(2, [item])
        assert str(exc.value) == f"group word factor must be a GroupFactor, got {name}"


def test_group_factor_parameter_is_a_fraction():
    for param in (3, Fraction(3), "3", "6/2"):
        factor = GroupFactor(FACTOR_Y, 1, param)
        assert type(factor.param) is Fraction
        assert factor == GroupFactor(FACTOR_Y, 1, Fraction(3))
    assert GroupFactor(FACTOR_S, 1).param is None


@pytest.mark.parametrize(
    "build",
    [lambda: gen_x(3, 1, 0.1), lambda: gen_y(3, True, 2), lambda: gen_acheck(3, 1, 0.5)],
    ids=["gen_x-float", "gen_y-bool-index", "gen_acheck-float"],
)
def test_generators_refuse_floats_and_booleans(build):
    with pytest.raises(InputError):
        build()


def test_generators_read_ints_fractions_and_strings_alike():
    for gen in (gen_x, gen_y, gen_acheck):
        assert gen(3, 2, 2) == gen(3, 2, Fraction(2)) == gen(3, 2, "4/2")
        assert gen(3, 1, Fraction(-1, 3)) == gen(3, 1, "-1/3")


@pytest.mark.parametrize("gen", [gen_x, gen_y, gen_sdot, gen_sdot_inv, gen_acheck])
def test_generators_read_the_degree_before_the_index(gen):
    # The index range depends on d, so d is read first: a degree that is no
    # integer is refused by name, not as a failed d - 1 or an empty range.
    args = (1,) if gen in (gen_sdot, gen_sdot_inv) else (1, 1)
    for d in ("3", None, True, 2.0):
        with pytest.raises(InputError) as exc:
            gen(d, *args)
        assert str(exc.value) == f"degree must be an integer, got {d!r}"
    with pytest.raises(DomainError) as exc:
        gen(65, *args)
    assert str(exc.value) == "degree 65 is above the degree limit 64"
    # Then the index, before any parameter: a bad index beside a bad
    # parameter is refused as the index.
    bad = (0,) if gen in (gen_sdot, gen_sdot_inv) else (0, 0.5)
    with pytest.raises(InputError) as exc:
        gen(3, *bad)
    assert str(exc.value) == "generator index 0 out of range 1..2"


def test_factor_matrix_kinds():
    import random

    assert factor_matrix(3, GroupFactor(FACTOR_Y, 2, Fraction(4))) == gen_y(3, 2, 4)
    assert factor_matrix(3, GroupFactor(FACTOR_S, 1)) == gen_sdot(3, 1)
    # The product x_i(m) alpha_i^vee(-1) sdot_i is the oracle for an xsinv
    # factor, which is built as one block.
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(2, 8)
        i = rng.randrange(1, d)
        m = random_rational(rng)
        sinv = gen_acheck(d, i, -1) * gen_sdot(d, i)
        assert factor_matrix(d, GroupFactor(FACTOR_XSINV, i, m)) == gen_x(d, i, m) * sinv
        assert gen_sdot_inv(d, i) == sinv
        assert gen_sdot_inv(d, i) * gen_sdot(d, i) == RatMatrix.identity(d)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_pinned_matrices_are_blocks_of_fractions(monkeypatch, d):
    # Each generator and factor is one 2x2 block written into the identity,
    # with no matrix product, and every entry is a Fraction: Fraction(1) ==
    # 1, so an int entry would pass every equality test.
    calls = []
    product = RatMatrix.__mul__
    monkeypatch.setattr(RatMatrix, "__mul__", lambda a, b: calls.append(1) or product(a, b))
    for i in range(1, d):
        for m in (2, Fraction(-1, 3), "5"):
            for g in (
                gen_x(d, i, m),
                gen_y(d, i, m),
                gen_sdot(d, i),
                gen_sdot_inv(d, i),
                gen_acheck(d, i, m),
                factor_matrix(d, GroupFactor(FACTOR_Y, i, m)),
                factor_matrix(d, GroupFactor(FACTOR_S, i)),
                factor_matrix(d, GroupFactor(FACTOR_XSINV, i, m)),
            ):
                assert g.d == d
                assert all(type(x) is Fraction for row in g.rows for x in row)
    assert calls == []


def test_partial_products():
    gw = GroupWord(
        4,
        (
            GroupFactor(FACTOR_Y, 1, Fraction(2)),
            GroupFactor(FACTOR_S, 3),
            GroupFactor(FACTOR_XSINV, 2, Fraction(-1, 3)),
        ),
    )
    assert partial(gw, 0) == RatMatrix.identity(4)
    assert partial(gw, len(gw)) == evaluate(gw)
    for k in range(1, len(gw) + 1):
        assert partial(gw, k) == partial(gw, k - 1) * factor_matrix(
            4, gw.factors[k - 1]
        )
    with pytest.raises(InputError):
        partial(gw, 4)
    with pytest.raises(InputError):
        partial(gw, -1)


def test_partial_prefix_of_recovered_word():
    from deodhar.components import factorize

    gw = factorize(s102_matrix(), S102_WORD).group_word
    # sdot_3 y_2(1/2) y_1(2), written out.
    assert partial(gw, 3) == mat(
        [
            [1, 0, 0, 0],
            [2, 1, 0, 0],
            [0, 0, 0, -1],
            [1, Fraction(1, 2), 1, 0],
        ]
    )


def test_gmin_on_identity_detects_equal_prefixes():
    ident = RatMatrix.identity(3)
    for v in all_permutations(3):
        for w in all_permutations(3):
            for i in range(0, 4):
                expected = 1 if v.prefix_set(i) == w.prefix_set(i) else 0
                assert gmin(ident, v, w, i) == expected


def test_gmin_validation():
    z = RatMatrix.identity(3)
    with pytest.raises(InputError):
        gmin(z, identity_perm(4), identity_perm(3), 1)
    with pytest.raises(InputError):
        gmin(z, identity_perm(3), identity_perm(3), 4)


_GW2 = GroupWord(2, (GroupFactor(FACTOR_Y, 1, Fraction(2)), GroupFactor(FACTOR_S, 1)))
_E3 = identity_perm(3)
_NOT_INTEGERS = [
    (lambda x: partial(_GW2, x), 0.5, "partial index"),
    (lambda x: partial(_GW2, x), True, "partial index"),
    (lambda x: reduce_flag(RatMatrix.identity(3), [1, 2], x), 0.5, "prefix length"),
    (lambda x: reduce_flag(RatMatrix.identity(3), [1, 2], x), False, "prefix length"),
    (lambda x: gmin(RatMatrix.identity(3), _E3, _E3, x), 1.5, "minor size"),
    (lambda x: gmin(RatMatrix.identity(3), _E3, _E3, x), True, "minor size"),
    (RatMatrix.identity, 2.0, "matrix size"),
    (RatMatrix.identity, True, "matrix size"),
    (lambda x: classical_arrangement([1], x), 2.0, "strand count"),
    (lambda x: classical_arrangement([1], x), True, "strand count"),
    (lambda x: fundamental_weight(3, x), 1.0, "fundamental weight index"),
    (lambda x: fundamental_weight(3, x), True, "fundamental weight index"),
    (lambda x: pair((1, 0, 0), x), True, "coroot index"),
    (lambda x: pair((1, 0, 0), x), 2.0, "coroot index"),
]


@pytest.mark.parametrize(
    "call, value, what", _NOT_INTEGERS, ids=[f"{w}-{v!r}" for _, v, w in _NOT_INTEGERS]
)
def test_size_and_index_arguments_take_only_integers(call, value, what):
    # A float or a bool is refused by name, never read as the integer it
    # compares equal to and never left to escape as a bare TypeError.
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be an integer, got {value!r}"


def test_gmin_principal_minors_of_unipotent():
    z = s102_matrix()
    e = identity_perm(4)
    for i in range(0, 5):
        assert gmin(z, e, e, i) == 1


def test_gmin_probe_vanishes_at_ascent():
    # At the first step of the recovery the probed minor must vanish.
    z = s102_matrix()
    assert gmin(z, identity_perm(4), simple_reflection(4, 3), 3) == 0


def test_descent_parameter_sign():
    # y_1(a) y_2(b) y_3(c) sdot_1 y_2(e) has -a as its 2,2 minor of size 1.
    import random

    rng = random.Random(7)
    s1 = simple_reflection(4, 1)
    for _ in range(20):
        a = random_nonzero(rng)
        gw = GroupWord(
            4,
            (
                GroupFactor(FACTOR_Y, 1, a),
                GroupFactor(FACTOR_Y, 2, random_nonzero(rng)),
                GroupFactor(FACTOR_Y, 3, random_nonzero(rng)),
                GroupFactor(FACTOR_S, 1),
                GroupFactor(FACTOR_Y, 2, random_nonzero(rng)),
            ),
        )
        assert gmin(evaluate(gw), s1, s1, 1) == -a


def test_reduce_flag_endpoints():
    z = s102_matrix()
    word = S102_WORD
    assert reduce_flag(z, word, 0) == z
    w = evaluate_word(4, word)
    assert reduce_flag(z, word, len(word)) == z * perm_matrix(w)
    with pytest.raises(InputError):
        reduce_flag(z, word, 6)


def test_reduce_flag_prefixes_are_flags_of_partial_products():
    import random

    rng = random.Random(11)
    for _ in range(10):
        word = random_reduced_word(rng, random_perm(rng, 4))
        n = len(word)
        marks = []
        v = identity_perm(4)
        factors = []
        for i in word:
            vs = v.times_s(i)
            if vs.length() < v.length() or rng.random() < 0.5:
                v = vs
                factors.append(GroupFactor(FACTOR_S, i))
            else:
                factors.append(GroupFactor(FACTOR_Y, i, random_nonzero(rng)))
            marks.append(None)
        gw = GroupWord(4, tuple(factors))
        g = evaluate(gw)
        from deodhar.linalg import unipotent_representative

        z, _ = unipotent_representative(g)
        for k in range(n + 1):
            assert flag_equal(partial(gw, k), reduce_flag(z, word, k))


def test_group_word_json_round_trip():
    gw = GroupWord(
        4,
        (
            GroupFactor(FACTOR_S, 3),
            GroupFactor(FACTOR_Y, 2, Fraction(1, 2)),
            GroupFactor(FACTOR_XSINV, 3, Fraction(-5, 3)),
        ),
    )
    data = group_word_to_json(gw)
    assert data == [{"s": [3]}, {"y": [2, "1/2"]}, {"xsinv": [3, "-5/3"]}]
    assert group_word_from_json(4, data) == gw


def test_group_word_json_validation():
    with pytest.raises(InputError):
        group_word_from_json(3, {"s": [1]})
    with pytest.raises(InputError):
        group_word_from_json(3, [{"s": [1], "y": [1, "2"]}])
    with pytest.raises(InputError):
        group_word_from_json(3, [{"q": [1, "2"]}])
    with pytest.raises(InputError):
        group_word_from_json(3, [{"y": [1]}])
    with pytest.raises(InputError):
        group_word_from_json(3, [{"s": [1, "2"]}])


@pytest.mark.parametrize(
    ("payload", "message"),
    [
        ([1, None], "cannot interpret None as a rational number"),
        ([1, 1.5], "cannot interpret 1.5 as a rational number"),
        ([1, True], "cannot interpret True as a rational number"),
        ([1, "x"], "not a rational literal: 'x'"),
        ([1, "2", 3], "malformed parametrized factor: {'y': [1, '2', 3]}"),
    ],
    ids=["None", "float", "bool", "not a literal", "wrong length"],
)
def test_group_word_json_refuses_a_malformed_parameter(payload, message):
    with pytest.raises(InputError) as exc:
        group_word_from_json(3, [{"y": payload}])
    assert str(exc.value) == message


def test_group_word_json_reads_each_parameter_once(monkeypatch):
    import deodhar.pinning as pinning

    reads = []
    real = pinning.rational_from_json

    def counted(x):
        reads.append(x)
        return real(x)

    monkeypatch.setattr(pinning, "rational_from_json", counted)
    data = [{"y": [2, "1/2"]}, {"s": [1]}, {"xsinv": [1, "-5/3"]}]
    gw = group_word_from_json(3, data)
    assert reads == ["1/2", "-5/3"]
    assert gw == GroupWord(
        3,
        (
            GroupFactor(FACTOR_Y, 2, Fraction(1, 2)),
            GroupFactor(FACTOR_S, 1),
            GroupFactor(FACTOR_XSINV, 1, Fraction(-5, 3)),
        ),
    )


def test_evaluate_commutes_with_random_samples():
    import random

    rng = random.Random(3)
    for d, length in ((4, 6), (8, 20)):
        for _ in range(10):
            factors = []
            for _ in range(length):
                kind = rng.choice([FACTOR_Y, FACTOR_S, FACTOR_XSINV])
                i = rng.randrange(1, d)
                if kind == FACTOR_S:
                    factors.append(GroupFactor(kind, i))
                else:
                    factors.append(GroupFactor(kind, i, random_rational(rng)))
            gw = GroupWord(d, tuple(factors))
            prod = RatMatrix.identity(d)
            for f in gw.factors:
                prod = prod * factor_matrix(d, f)
            assert evaluate(gw) == prod
            assert evaluate(gw).det() == 1


def random_invertible(rng, d):
    while True:
        g = random_matrix(rng, d)
        if g.det() != 0 and g != RatMatrix.identity(d):
            return g


def random_factor(rng, d, i=None):
    kind = rng.choice([FACTOR_Y, FACTOR_S, FACTOR_XSINV])
    i = rng.randrange(1, d) if i is None else i
    if kind == FACTOR_S:
        return GroupFactor(kind, i)
    return GroupFactor(kind, i, random_rational(rng))


def kernel_of(d, factors):
    g = _Columns(d)
    for f in factors:
        g.apply(f)
    return g


def assert_canonical(g):
    # Each scale is an integer pair (n, d) in lowest terms with d > 0, and
    # each integer column is primitive.
    import math

    for (n, d), col in zip(g.scales, g.cols):
        assert type(n) is int and type(d) is int
        assert d > 0 and math.gcd(n, d) == 1
        assert math.gcd(*col) == 1


def test_apply_factor_matches_dense_product():
    # The group-word kernel multiplies each factor onto a random product so
    # far exactly as the dense product with factor_matrix does.
    import random

    rng = random.Random(29)
    for d in (2, 3, 6, 8, 12):
        prefix = [random_factor(rng, d) for _ in range(2 * d)]
        dense = RatMatrix.identity(d)
        g = _Columns(d)
        for f in prefix:
            dense = dense * factor_matrix(d, f)
            g.apply(f)
            assert_canonical(g)
        for i in sorted({1, d // 2, d - 1}):
            for param in (rng.randint(-9, 9), random_rational(rng)):
                for f in (
                    GroupFactor(FACTOR_Y, i, param),
                    GroupFactor(FACTOR_S, i),
                    GroupFactor(FACTOR_XSINV, i, param),
                ):
                    g = kernel_of(d, prefix + [f])
                    assert_canonical(g)
                    out = g.matrix()
                    assert out == dense * factor_matrix(d, f)
                    assert all(type(x) is Fraction for row in out.rows for x in row)
    with pytest.raises(InputError):
        evaluate(GroupWord(3, (GroupFactor(FACTOR_S, 3),)))


def test_kernel_columns_stay_primitive():
    import math
    import random

    rng = random.Random(31)
    for d in (2, 4, 7):
        g = kernel_of(d, [random_factor(rng, d) for _ in range(30)])
        assert all(math.gcd(*col) == 1 for col in g.cols)


def test_kernel_minors_match_minors_of_the_product():
    import itertools
    import random

    rng = random.Random(41)
    for d in (1, 2, 3, 4, 5):
        for _ in range(3):
            factors = [random_factor(rng, d) for _ in range(3 * d)] if d > 1 else []
            g = kernel_of(d, factors)
            dense = g.matrix()
            for size in range(d + 1):
                for rows in itertools.combinations(range(1, d + 1), size):
                    for cols in itertools.combinations(range(1, d + 1), size):
                        assert g.minor(rows, cols) == dense.minor(rows, cols)


def test_kernel_flag_check_agrees_with_flag_equal():
    # True cases are factorizations of random component flags; one entry of
    # the integer columns perturbed breaks the flag unless the column's
    # change stays inside the span of the columns before it.
    import random

    from deodhar.components import factorize

    rng = random.Random(43)
    outcomes = set()
    for d in (2, 2, 3, 4, 5, 6) * 4:
        desc, z = random_component_flag(rng, d)
        w = evaluate_word(d, desc.word)
        g = kernel_of(d, factorize(z, desc.word).group_word.factors)
        target = apply_lift(z, w)
        assert g.spans(z, w)
        assert flag_equal(g.matrix(), target)
        for _ in range(4):
            j, r = rng.randrange(d), rng.randrange(d)
            delta = rng.choice([-2, -1, 1, 3])
            g.cols[j][r] += delta
            if g.matrix().det() == 0:
                assert not g.spans(z, w)
            else:
                outcomes.add(g.spans(z, w))
                assert g.spans(z, w) == flag_equal(g.matrix(), target)
            g.cols[j][r] -= delta
    assert outcomes == {True, False}


def test_apply_lift_matches_reduced_word_product():
    import random

    rng = random.Random(37)
    for d in (2, 4, 6):
        g = random_invertible(rng, d)
        for _ in range(4):
            w = random_perm(rng, d)
            prod = g
            for i in random_reduced_word(rng, w):
                prod = prod * gen_sdot(d, i)
            assert apply_lift(g, w) == prod
    with pytest.raises(InputError):
        apply_lift(RatMatrix.identity(3), identity_perm(4))


def test_group_word_json_rejects_non_integer_indices():
    for index in (True, 1.7, "2", 2.0, None):
        with pytest.raises(InputError):
            group_word_from_json(3, [{"s": [index]}])
        with pytest.raises(InputError):
            group_word_from_json(3, [{"y": [index, "1"]}])
    with pytest.raises(InputError):
        group_word_from_json(3, [{"s": 1}])
