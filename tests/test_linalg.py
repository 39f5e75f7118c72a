import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deodhar import (
    DomainError,
    InputError,
    RatMatrix,
    bruhat_position,
    flag_equal,
    identity_perm,
    matrix_from_json,
    matrix_to_json,
    opposite_position,
    perm_matrix,
    unipotent_representative,
)
from deodhar import linalg, pinning
from deodhar.errors import InternalCheckError
from deodhar.linalg import rational_from_json, rational_to_json
from deodhar.pinning import FACTOR_S, FACTOR_Y, GroupFactor, GroupWord
from deodhar.pinning import evaluate, gen_sdot, gen_y
from deodhar.weyl import Permutation

from support import (
    det_cofactor,
    random_matrix,
    random_nonzero,
    random_perm,
    random_rational,
    random_unipotent,
)


def test_matrix_validation():
    with pytest.raises(InputError):
        RatMatrix([[1, 2], [3]])
    with pytest.raises(InputError):
        RatMatrix([])


def test_from_rows_refuses_a_row_that_is_not_a_list_or_a_tuple():
    # A string row would otherwise be read as its characters.
    for rows, bad in ((["12", "34"], "'12'"), ([[1, 2], {3, 4}], "{3, 4}"), ([[1, 2], 3], "3")):
        with pytest.raises(InputError) as exc:
            RatMatrix(rows)
        assert str(exc.value) == f"matrix row must be a list or a tuple, got {bad}"
    assert RatMatrix(([1, 2], (3, 4))) == RatMatrix([[1, 2], [3, 4]])


@pytest.mark.parametrize("entry, message", [
    (0.5, "cannot interpret 0.5 as a rational number"),
    (True, "cannot interpret True as a rational number"),
    ("x", "not a rational literal: 'x'"),
])
def test_constructor_reads_every_entry(entry, message):
    with pytest.raises(InputError) as exc:
        RatMatrix([[1, 0], [0, entry]])
    assert str(exc.value) == message


def test_constructor_stores_tuples_of_fractions():
    m = RatMatrix([[Fraction(1)]])
    assert m == RatMatrix.identity(1) == RatMatrix([[1]]) == RatMatrix((("1",),))
    assert hash(m) == hash(RatMatrix.identity(1))
    assert type(m.rows) is tuple and type(m.rows[0]) is tuple
    assert type(RatMatrix([[2]]).entry(1, 1)) is Fraction


def _count_reads(monkeypatch):
    """A list that grows by one for each ``rational_from_json`` call."""
    reads = []

    def counting(x):
        reads.append(x)
        return rational_from_json(x)

    monkeypatch.setattr(linalg, "rational_from_json", counting)
    monkeypatch.setattr(pinning, "rational_from_json", counting)
    return reads


def test_degree_limit_comes_before_any_entry(monkeypatch):
    reads = _count_reads(monkeypatch)
    with pytest.raises(DomainError) as exc:
        RatMatrix([["x"]] * 65)
    assert str(exc.value) == "degree 65 is above the degree limit 64"
    assert reads == []
    matrix_from_json([[1, "1/2"], [0, 1]])
    assert reads == [1, "1/2", 0, 1]


def test_library_built_matrices_read_no_entry(monkeypatch):
    g = RatMatrix([[0, 1, 0], [1, 2, 0], ["1/2", 0, 1]])
    gw = GroupWord(3, (GroupFactor(FACTOR_Y, 1, 2), GroupFactor(FACTOR_S, 2)))
    product = gen_y(3, 1, 2) * gen_sdot(3, 2)
    reads = _count_reads(monkeypatch)
    e = RatMatrix.identity(3)
    assert g * g.inverse() == e
    z, w = unipotent_representative(g)
    assert flag_equal(z * perm_matrix(w), g)
    assert evaluate(gw) == product
    opposite_position(g)
    assert reads == []


def test_entry_indexing_and_product():
    m = RatMatrix([[1, 2], [3, 4]])
    assert m.entry(1, 2) == 2
    assert m.entry(2, 1) == 3
    p = m * RatMatrix.identity(2)
    assert p == m
    q = m * m
    assert q.entry(1, 1) == 7 and q.entry(2, 2) == 22


def test_det_matches_cofactor_oracle():
    rng = random.Random(10)
    for d in (1, 2, 3, 4, 5):
        for _ in range(12):
            m = random_matrix(rng, d)
            assert m.det() == det_cofactor([list(r) for r in m.rows])


def test_det_singular():
    m = RatMatrix([[1, 2], [2, 4]])
    assert m.det() == 0


def test_minor_conventions():
    m = RatMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert m.minor((), ()) == 1
    assert m.minor((1,), (3,)) == 3
    assert m.minor((1, 2), (2, 3)) == 2 * 6 - 3 * 5
    assert m.minor((1, 2, 3), (1, 2, 3)) == m.det()
    with pytest.raises(InputError):
        m.minor((2, 1), (1, 2))
    with pytest.raises(InputError):
        m.minor((1,), (1, 2))


def test_minor_matches_oracle():
    rng = random.Random(11)
    for _ in range(15):
        m = random_matrix(rng, 4)
        rows = tuple(sorted(rng.sample(range(1, 5), 2)))
        cols = tuple(sorted(rng.sample(range(1, 5), 2)))
        sub = [[m.entry(i, j) for j in cols] for i in rows]
        assert m.minor(rows, cols) == det_cofactor(sub)


# Entries with denominators of several primes, so that each column's cleared
# scale differs from the scale a single minor would need.
_entries = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 4, 5, 6, 7, 9, 12])
)


@st.composite
def _matrices(draw, max_d: int):
    """Square rational matrices, some of whose rows are zero."""
    d = draw(st.integers(1, max_d))
    zero_rows = draw(st.sets(st.integers(0, d - 1), max_size=2))
    return [
        [Fraction(0)] * d
        if r in zero_rows
        else draw(st.lists(_entries, min_size=d, max_size=d))
        for r in range(d)
    ]


@st.composite
def _index_sets(draw, d: int):
    k = draw(st.integers(0, d))
    rows = tuple(sorted(draw(st.sets(st.integers(1, d), min_size=k, max_size=k))))
    cols = tuple(sorted(draw(st.sets(st.integers(1, d), min_size=k, max_size=k))))
    return rows, cols


def _oracle_minor(rows, row_set, col_set) -> Fraction:
    if not row_set:
        return Fraction(1)
    return det_cofactor([[rows[r - 1][c - 1] for c in col_set] for r in row_set])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_minor_matches_cofactor_property(data):
    rows = data.draw(_matrices(8))
    m = RatMatrix(rows)
    for _ in range(3):
        row_set, col_set = data.draw(_index_sets(len(rows)))
        assert m.minor(row_set, col_set) == _oracle_minor(rows, row_set, col_set)


@settings(max_examples=40, deadline=None)
@given(_matrices(8))
def test_det_matches_cofactor_property(rows):
    assert RatMatrix(rows).det() == det_cofactor(rows)


def _berkowitz(rows) -> Fraction:
    # det_cofactor is practical up to d = 8; sympy's Berkowitz determinant
    # is an independent oracle for larger matrices.
    sympy = pytest.importorskip("sympy")
    exact = [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
    value = sympy.Matrix(exact).det(method="berkowitz")
    return Fraction(int(value.p), int(value.q))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(9, 12), st.booleans())
def test_det_and_minor_match_sympy_beyond_cofactor_reach(seed, d, repeat_row):
    rng = random.Random(seed)
    rows = [[random_rational(rng) for _ in range(d)] for _ in range(d)]
    if repeat_row:
        a, b = rng.sample(range(d), 2)
        rows[a] = list(rows[b])
    m = RatMatrix(rows)
    det = m.det()
    assert det == _berkowitz(rows)
    if repeat_row:
        assert det == 0
    k = rng.randint(9, d)
    row_set = tuple(sorted(rng.sample(range(1, d + 1), k)))
    col_set = tuple(sorted(rng.sample(range(1, d + 1), k)))
    sub = [[rows[r - 1][c - 1] for c in col_set] for r in row_set]
    assert m.minor(row_set, col_set) == _berkowitz(sub)


@st.composite
def _triangular_matrices(draw, max_d: int):
    """Upper-triangular matrices: unipotent, or with any diagonal, zeros included."""
    d = draw(st.integers(1, max_d))
    unipotent = draw(st.booleans())
    return [
        [
            Fraction(0) if c < r
            else Fraction(1) if c == r and unipotent
            else draw(_entries)
            for c in range(d)
        ]
        for r in range(d)
    ]


def _gale_pairs(row_set, col_set):
    """The drawn pair, its entrywise lower and upper sets, and those swapped.

    The entrywise min and max of two increasing tuples are increasing, and
    min <= max entry by entry; unless the two coincide, (max, min) has a row
    beyond its paired column, so its minor on an upper-triangular matrix is 0.
    """
    lo = tuple(map(min, row_set, col_set))
    hi = tuple(map(max, row_set, col_set))
    return [(row_set, col_set), (lo, hi), (hi, lo)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_triangular_minor_matches_cofactor_property(data):
    rows = data.draw(_triangular_matrices(8))
    m = RatMatrix(rows)
    assert m.is_upper_triangular()
    for _ in range(2):
        for row_set, col_set in _gale_pairs(*data.draw(_index_sets(len(rows)))):
            assert m.minor(row_set, col_set) == _oracle_minor(rows, row_set, col_set)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(9, 12), st.booleans())
def test_triangular_minor_matches_sympy_beyond_cofactor_reach(seed, d, unipotent):
    rng = random.Random(seed)
    rows = [
        [
            Fraction(0) if c < r
            else Fraction(1) if c == r and unipotent
            else random_rational(rng)
            for c in range(d)
        ]
        for r in range(d)
    ]
    m = RatMatrix(rows)
    k = rng.randint(9, d)
    drawn = (
        tuple(sorted(rng.sample(range(1, d + 1), k))),
        tuple(sorted(rng.sample(range(1, d + 1), k))),
    )
    for row_set, col_set in _gale_pairs(*drawn):
        sub = [[rows[r - 1][c - 1] for c in col_set] for r in row_set]
        assert m.minor(row_set, col_set) == _berkowitz(sub)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_minor_and_det_repeat_in_either_order(data):
    # Bareiss elimination overwrites its input; a cached integer row that
    # reached it uncopied would change every later minor of the matrix.
    rows = data.draw(_matrices(6))
    d = len(rows)
    sets = [data.draw(_index_sets(d)) for _ in range(3)]
    expected = [_oracle_minor(rows, r, c) for r, c in sets]
    full = det_cofactor(rows)
    det_first = RatMatrix(rows)
    assert det_first.det() == full
    assert [det_first.minor(r, c) for r, c in sets * 2] == expected * 2
    assert det_first.det() == full
    minors_first = RatMatrix(rows)
    assert [minors_first.minor(r, c) for r, c in sets * 2] == expected * 2
    assert minors_first.det() == full
    assert [minors_first.minor(r, c) for r, c in sets] == expected


def test_minor_cache_leaves_equality_and_hash_alone():
    # The cleared columns are cached on the matrix; they may not take part
    # in == or hash.
    rng = random.Random(12)
    for d in (1, 3, 5):
        for m in (random_matrix(rng, d), random_unipotent(rng, d)):
            twin = RatMatrix(m.rows)
            other = RatMatrix([[x + 1 for x in r] for r in m.rows])
            h = hash(m)
            m.det()
            m.minor((1,), (d,))
            m.minor(tuple(range(1, d + 1)), tuple(range(1, d + 1)))
            m.is_upper_unipotent()
            assert hash(m) == h == hash(twin)
            assert m == twin and twin == m
            assert m != other
            assert len({m, twin}) == 1


def test_minor_and_det_divide_by_column_scales():
    # A z from column reduction has one denominator per column and rows
    # that mix them, its transpose the other way round, so a minor divided
    # by its rows' scales is wrong on one of the two.
    rng = random.Random(24)
    for d in (4, 6, 8):
        z = unipotent_representative(random_matrix(rng, d))[0]
        for m in (z, RatMatrix(tuple(zip(*z.rows)))):
            rows = [list(r) for r in m.rows]
            lcms = [math.lcm(*(x.denominator for x in r)) for r in rows]
            assert lcms != [math.lcm(*(x.denominator for x in c)) for c in zip(*rows)]
            assert m.det() == det_cofactor(rows)
            for _ in range(4):
                k = rng.randint(1, d)
                drawn = (
                    tuple(sorted(rng.sample(range(1, d + 1), k))),
                    tuple(sorted(rng.sample(range(1, d + 1), k))),
                )
                for row_set, col_set in _gale_pairs(*drawn):
                    assert m.minor(row_set, col_set) == _oracle_minor(rows, row_set, col_set)


def test_inverse():
    rng = random.Random(12)
    seen = 0
    while seen < 10:
        m = random_matrix(rng, 3)
        if m.det() == 0:
            continue
        seen += 1
        assert m * m.inverse() == RatMatrix.identity(3)
    with pytest.raises(DomainError):
        RatMatrix([[1, 2], [2, 4]]).inverse()


def test_triangularity_predicates():
    up = RatMatrix([[1, 5], [0, 1]])
    assert up.is_upper_triangular() and up.is_upper_unipotent()
    scaled = RatMatrix([[2, 5], [0, 1]])
    assert scaled.is_upper_triangular() and not scaled.is_upper_unipotent()
    low = RatMatrix([[1, 0], [5, 1]])
    assert not low.is_upper_triangular()


def test_flag_equal():
    rng = random.Random(13)
    g = random_matrix(rng, 4)
    while g.det() == 0:
        g = random_matrix(rng, 4)
    b = RatMatrix(
        [
            [2, 1, 0, 3],
            [0, 1, 4, 1],
            [0, 0, 5, 2],
            [0, 0, 0, 7],
        ]
    )
    assert flag_equal(g, g * b)
    w = perm_matrix(random_perm(rng, 4))
    assert not flag_equal(perm_matrix(identity_perm(4)), w) or w == perm_matrix(
        identity_perm(4)
    )
    # y_1(1) is lower triangular, so it moves the flag of g.
    assert not flag_equal(g, g * gen_y(4, 1, 1))
    singular = RatMatrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(DomainError, match="matrix is singular"):
        flag_equal(RatMatrix.identity(3), singular)
    with pytest.raises(DomainError, match="matrix is singular"):
        flag_equal(singular, RatMatrix.identity(3))
    # Same flag exactly when a^{-1} b is upper triangular.
    for _ in range(60):
        d = rng.choice([2, 3, 4, 5])
        a = random_matrix(rng, d)
        if a.det() == 0:
            continue
        if rng.random() < 0.5:
            upper = RatMatrix(
                [
                    [
                        random_nonzero(rng) if r == c
                        else random_rational(rng) if c > r else 0
                        for c in range(d)
                    ]
                    for r in range(d)
                ]
            )
            b = a * upper
        else:
            b = random_matrix(rng, d)
        if b.det() == 0:
            continue
        assert flag_equal(a, b) == (a.inverse() * b).is_upper_triangular()


def test_bruhat_position_of_cell_representatives():
    rng = random.Random(14)
    for _ in range(25):
        d = rng.choice([3, 4, 5])
        w = random_perm(rng, d)
        z = random_unipotent(rng, d)
        g = z * perm_matrix(w)
        assert bruhat_position(g) == w


def test_bruhat_position_invariant_under_right_upper():
    rng = random.Random(15)
    for _ in range(15):
        d = 4
        g = random_matrix(rng, d)
        while g.det() == 0:
            g = random_matrix(rng, d)
        rows = [
            [
                random_rational(rng) if j > i else Fraction(0)
                for j in range(d)
            ]
            for i in range(d)
        ]
        for i in range(d):
            rows[i][i] = Fraction(rng.randint(1, 5))
        b = RatMatrix(rows)
        assert bruhat_position(g * b) == bruhat_position(g)


def test_opposite_position():
    rng = random.Random(16)
    for _ in range(40):
        d = rng.randint(2, 6)
        w = random_perm(rng, d)
        assert opposite_position(perm_matrix(w)) == w
        lower = RatMatrix(
            [
                [
                    random_nonzero(rng)
                    if i == j
                    else (random_rational(rng) if j < i else Fraction(0))
                    for j in range(d)
                ]
                for i in range(d)
            ]
        )
        upper = RatMatrix(
            [
                [
                    random_nonzero(rng)
                    if i == j
                    else (random_rational(rng) if j > i else Fraction(0))
                    for j in range(d)
                ]
                for i in range(d)
            ]
        )
        assert opposite_position(lower * perm_matrix(w)) == w
        assert opposite_position(lower * perm_matrix(w) * upper) == w
    singular = RatMatrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(DomainError, match="matrix is singular"):
        opposite_position(singular)


def test_unipotent_representative_round_trip():
    rng = random.Random(17)
    for _ in range(25):
        d = rng.choice([3, 4])
        g = random_matrix(rng, d)
        while g.det() == 0:
            g = random_matrix(rng, d)
        z, w = unipotent_representative(g)
        assert z.is_upper_unipotent()
        assert w == bruhat_position(g)
        assert flag_equal(z * perm_matrix(w), g)


def test_unipotent_representative_check_is_internal(monkeypatch):
    # Column reduction of an invertible matrix always regroups into an
    # upper-unipotent z; a reduction that does not is a fault of the library.
    monkeypatch.setattr(
        linalg,
        "_column_reduce",
        lambda g: ([list(row) for row in g.rows], Permutation((2, 1))),
    )
    with pytest.raises(InternalCheckError):
        unipotent_representative(RatMatrix.identity(2))


def test_flag_equal_refuses_a_size_mismatch():
    with pytest.raises(InputError, match="size mismatch in flag comparison"):
        flag_equal(RatMatrix.identity(2), RatMatrix.identity(3))


def test_singular_rejected():
    with pytest.raises(DomainError):
        bruhat_position(RatMatrix([[1, 1], [1, 1]]))


def test_json_round_trips():
    assert rational_to_json(Fraction(-3, 7)) == "-3/7"
    assert rational_to_json(Fraction(5)) == "5"
    assert rational_from_json("5/10") == Fraction(1, 2)
    assert rational_from_json(4) == 4
    with pytest.raises(InputError):
        rational_from_json("x/y")
    m = RatMatrix([[Fraction(1, 2), 0], [1, 1]])
    data = matrix_to_json(m)
    assert data == [["1/2", "0"], ["1", "1"]]
    assert matrix_from_json(data) == m
    with pytest.raises(InputError):
        matrix_from_json({"rows": []})


def test_booleans_are_not_rationals():
    for bad in (True, False):
        with pytest.raises(InputError):
            rational_from_json(bad)
    with pytest.raises(InputError):
        matrix_from_json([[True, 0], [0, 1]])
