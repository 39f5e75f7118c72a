"""The standard pinning of SL_d and words in its one-parameter factors.

Generators, all size d:

* ``gen_x(d, i, m)``: identity plus ``m`` in entry (i, i+1);
* ``gen_y(d, i, t)``: identity plus ``t`` in entry (i+1, i);
* ``gen_sdot(d, i)``: identity with the 2x2 block ((0, -1), (1, 0)) in rows
  and columns i, i+1, the fixed lift of the simple reflection s_i;
* ``gen_acheck(d, i, t)``: the coweight torus element diag(..., t, 1/t, ...)
  with t in slot i.

Products of lifts over different reduced words of the same permutation
agree, so every permutation has a well-defined lift, computed here from a
closed-form sign rule.

A ``GroupWord`` is a sequence of factors of three kinds: ``y`` with a
parameter, bare ``s``, and ``xsinv`` which abbreviates x_i(m) followed by
the inverse lift of s_i.  One factor per step keeps positions aligned with
the steps of a subexpression trace.

Every factor differs from the identity only in rows and columns i, i+1, so
a product of factors is kept as integer columns, each with one `Fraction`
scale, and a factor multiplies onto it from the right as an operation on
columns i and i+1: the lift of s_i swaps them and negates one scale, while
y_i(t) and x_i(m) s_i^{-1} fold the parameter and both scales into one ratio
P/Q, combine the two integer columns with it and divide the new column by
its gcd.  A minor of the product is a Bareiss determinant of integer
entries times the scales of its columns, and its flag, which the scales do
not change, is read off the integer columns alone.  ``evaluate`` folds a
word this way and builds one matrix at the end; ``apply_lift`` multiplies
a matrix by the lift of a permutation as a signed column permutation.
``factor_matrix`` and ``perm_matrix`` build the same factors as dense
matrices, for products where a matrix is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .linalg import RatMatrix, _bareiss_det, rational_from_json, rational_to_json
from .weyl import Permutation, _degree, _int_from_json, _int_in_range, evaluate_word

__all__ = [
    "FACTOR_Y",
    "FACTOR_S",
    "FACTOR_XSINV",
    "GroupFactor",
    "GroupWord",
    "gen_x",
    "gen_y",
    "gen_sdot",
    "gen_sdot_inv",
    "gen_acheck",
    "factor_matrix",
    "evaluate",
    "partial",
    "perm_matrix",
    "apply_lift",
    "gmin",
    "reduce_flag",
    "group_word_to_json",
    "group_word_from_json",
]

FACTOR_Y = "y"
FACTOR_S = "s"
FACTOR_XSINV = "xsinv"


def _identity_rows(d: int) -> list[list[Fraction]]:
    d = _degree(d)
    return [[Fraction(1 if a == b else 0) for b in range(d)] for a in range(d)]


def _elementary(d: int, r: int, c: int, value: Fraction) -> RatMatrix:
    rows = _identity_rows(d)
    rows[r - 1][c - 1] = value
    return RatMatrix(tuple(tuple(row) for row in rows))


def gen_x(d: int, i: int, m) -> RatMatrix:
    i = _int_in_range(i, 1, d - 1, "generator index")
    return _elementary(d, i, i + 1, rational_from_json(m))


def gen_y(d: int, i: int, t) -> RatMatrix:
    i = _int_in_range(i, 1, d - 1, "generator index")
    return _elementary(d, i + 1, i, rational_from_json(t))


def gen_sdot(d: int, i: int) -> RatMatrix:
    i = _int_in_range(i, 1, d - 1, "generator index")
    rows = _identity_rows(d)
    rows[i - 1][i - 1] = Fraction(0)
    rows[i][i] = Fraction(0)
    rows[i - 1][i] = Fraction(-1)
    rows[i][i - 1] = Fraction(1)
    return RatMatrix(tuple(tuple(row) for row in rows))


def gen_sdot_inv(d: int, i: int) -> RatMatrix:
    """The inverse lift of s_i."""
    return gen_acheck(d, i, -1) * gen_sdot(d, i)


def gen_acheck(d: int, i: int, t) -> RatMatrix:
    i = _int_in_range(i, 1, d - 1, "generator index")
    t = rational_from_json(t)
    if t == 0:
        raise InputError("torus parameter must be nonzero")
    rows = _identity_rows(d)
    rows[i - 1][i - 1] = t
    rows[i][i] = 1 / t
    return RatMatrix(tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class GroupFactor:
    """One factor of a group word: y_i(t), the lift of s_i, or x_i(m) s_i^{-1}."""

    kind: str
    index: int
    param: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in (FACTOR_Y, FACTOR_S, FACTOR_XSINV):
            raise InputError(f"unknown factor kind {self.kind!r}")
        if self.kind == FACTOR_S:
            if self.param is not None:
                raise InputError("a bare reflection factor carries no parameter")
        elif self.param is None:
            raise InputError(f"factor kind {self.kind!r} needs a parameter")
        else:
            object.__setattr__(self, "param", rational_from_json(self.param))


@dataclass(frozen=True)
class GroupWord:
    """A product of pinned factors inside SL_d, one factor per trace step."""

    d: int
    factors: tuple[GroupFactor, ...]

    def __post_init__(self) -> None:
        _degree(self.d)
        for f in self.factors:
            _int_in_range(f.index, 1, self.d - 1, "generator index")

    def __len__(self) -> int:
        return len(self.factors)


def factor_matrix(d: int, factor: GroupFactor) -> RatMatrix:
    if factor.kind == FACTOR_Y:
        return gen_y(d, factor.index, factor.param)
    if factor.kind == FACTOR_S:
        return gen_sdot(d, factor.index)
    return gen_x(d, factor.index, factor.param) * gen_sdot_inv(d, factor.index)


def _combine(
    u: list[int], su: Fraction, v: list[int], sv: Fraction
) -> tuple[list[int], Fraction]:
    """A primitive integer column c and its scale s with s c = su u + sv v."""
    ratio = sv / su
    p, q = ratio.numerator, ratio.denominator
    col = [q * x + p * y for x, y in zip(u, v)]
    g = math.gcd(*col)
    if g != 1:
        col = [x // g for x in col]
    return col, su * g / q


class _Columns:
    """A product of pinned factors, held as integer columns with scales.

    Column j of the product is ``scales[j]`` times ``cols[j]``, a list of d
    integers whose gcd is 1.  Starts at the identity.
    """

    __slots__ = ("cols", "scales")

    def __init__(self, d: int):
        self.cols = [[int(r == c) for r in range(d)] for c in range(d)]
        self.scales = [Fraction(1)] * d

    def apply(self, factor: GroupFactor) -> None:
        """Multiply ``factor_matrix(d, factor)`` onto the product from the right.

        y_i(t) adds t times column i+1 to column i; the lift of s_i sends
        (col_i, col_i+1) to (col_i+1, -col_i); x_i(m) s_i^{-1} sends them to
        (-(col_i+1 + m col_i), col_i).
        """
        a = factor.index - 1
        b = a + 1
        cols, scales = self.cols, self.scales
        if factor.kind == FACTOR_S:
            cols[a], cols[b] = cols[b], cols[a]
            scales[a], scales[b] = scales[b], -scales[a]
        elif factor.kind == FACTOR_Y:
            cols[a], scales[a] = _combine(
                cols[a], scales[a], cols[b], factor.param * scales[b]
            )
        else:
            col, scale = _combine(
                cols[b], -scales[b], cols[a], -factor.param * scales[a]
            )
            cols[a], cols[b] = col, cols[a]
            scales[a], scales[b] = scale, scales[a]

    def minor(self, row_set: Sequence[int], col_set: Sequence[int]) -> Fraction:
        """``RatMatrix.minor`` of the product, on valid 1-based index sets."""
        # One row per chosen column: the transpose has the same determinant.
        sub = [[self.cols[c - 1][r - 1] for r in row_set] for c in col_set]
        det = Fraction(_bareiss_det(sub))
        return math.prod((self.scales[c - 1] for c in col_set), start=det)

    def matrix(self) -> RatMatrix:
        return RatMatrix(
            tuple(
                tuple(s * col[r] for col, s in zip(self.cols, self.scales))
                for r in range(len(self.cols))
            )
        )

    def spans(self, z: RatMatrix, w: Permutation) -> bool:
        """Whether the product spans the flag z w B+, for upper-unipotent z.

        Scales do not change a flag, so only the integer columns G enter.
        X = z^{-1} G comes from back substitution, with row r of X multiplied
        by the row denominators s_r, ..., s_d of z so that it stays integral;
        z is unipotent, so no pivot is divided by.  The flags agree exactly
        when w^{-1} X is upper triangular, that is when column j of X is
        nonzero at row w(j) and zero at the rows w(j'), j' > j.
        """
        z_rows, s = z._integer_rows
        g_rows = list(zip(*self.cols))
        d = len(g_rows)
        x: list[list[int]] = [[]] * d
        mult = 1
        for r in reversed(range(d)):
            # Row r of z X = G, times s_r ... s_d; row c > r of x carries
            # s_c ... s_d, so its coefficient is z_rows[r][c] s_(r+1) ... s_(c-1).
            mult *= s[r]
            acc = [mult * e for e in g_rows[r]]
            carry = 1
            for c in range(r + 1, d):
                coef = z_rows[r][c] * carry
                if coef:
                    acc = [e - coef * f for e, f in zip(acc, x[c])]
                carry *= s[c]
            x[r] = acc
        pivots = [x[im - 1] for im in w.images]
        return all(
            pivots[j][j] != 0 and not any(row[j] for row in pivots[j + 1 :])
            for j in range(d)
        )


def evaluate(gw: GroupWord) -> RatMatrix:
    g = _Columns(gw.d)
    for f in gw.factors:
        g.apply(f)
    return g.matrix()


def partial(gw: GroupWord, k: int) -> RatMatrix:
    """The product of the first k factors."""
    k = _int_in_range(k, 0, len(gw.factors), "partial index")
    return evaluate(GroupWord(gw.d, gw.factors[:k]))


def perm_matrix(w: Permutation) -> RatMatrix:
    """The pinned lift of w: entry (w(j), j) is -1 to the inversions above j.

    Agrees with the product of gen_sdot factors over any reduced word.
    """
    return apply_lift(RatMatrix.identity(w.d), w)


def apply_lift(g: RatMatrix, w: Permutation) -> RatMatrix:
    """g times ``perm_matrix(w)``, as a signed permutation of the columns.

    Column j of the product is column w(j) of g, negated when an odd number
    of k < j have w(k) > w(j).
    """
    if w.d != g.d:
        raise InputError("degree mismatch in permutation lift")
    images = w.images
    columns = [
        (images[j] - 1, sum(1 for k in range(j) if images[k] > images[j]) % 2)
        for j in range(w.d)
    ]
    return RatMatrix(
        tuple(
            tuple(-row[c] if odd else row[c] for c, odd in columns)
            for row in g.rows
        )
    )


def gmin(g: RatMatrix, v: Permutation, w: Permutation, i: int) -> Fraction:
    """Generalized minor: rows v{1..i} and columns w{1..i}, both sorted.

    No sign adjustment is applied; for the pinning above this is the plain
    minor on those index sets.
    """
    if v.d != g.d or w.d != g.d:
        raise InputError("degree mismatch in generalized minor")
    i = _int_in_range(i, 0, g.d, "minor size")
    return g.minor(v.prefix_set(i), w.prefix_set(i))


def reduce_flag(z: RatMatrix, word: Sequence[int], k: int) -> RatMatrix:
    """Representative of the flag z times the lift of the k-letter prefix."""
    k = _int_in_range(k, 0, len(word), "prefix length")
    return apply_lift(z, evaluate_word(z.d, tuple(word[:k])))


def group_word_to_json(gw: GroupWord) -> list[dict]:
    out: list[dict] = []
    for f in gw.factors:
        if f.kind == FACTOR_S:
            out.append({FACTOR_S: [f.index]})
        else:
            out.append({f.kind: [f.index, rational_to_json(f.param)]})
    return out


def group_word_from_json(d: int, data: list) -> GroupWord:
    factors: list[GroupFactor] = []
    if not isinstance(data, list):
        raise InputError("group word JSON must be a list")
    for item in data:
        if not isinstance(item, dict) or len(item) != 1:
            raise InputError(f"malformed group word factor: {item!r}")
        kind, payload = next(iter(item.items()))
        if not isinstance(payload, list):
            raise InputError(f"malformed group word factor: {item!r}")
        if kind == FACTOR_S:
            if len(payload) != 1:
                raise InputError(f"malformed reflection factor: {item!r}")
            index = _int_from_json(payload[0], "factor index")
            factors.append(GroupFactor(FACTOR_S, index))
        elif kind in (FACTOR_Y, FACTOR_XSINV):
            if len(payload) != 2:
                raise InputError(f"malformed parametrized factor: {item!r}")
            index = _int_from_json(payload[0], "factor index")
            factors.append(GroupFactor(kind, index, rational_from_json(payload[1])))
        else:
            raise InputError(f"unknown factor kind {kind!r}")
    return GroupWord(d, tuple(factors))
