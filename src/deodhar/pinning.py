"""The standard pinning of SL_d and words in its one-parameter factors.

Each generator, and each factor that ``factor_matrix`` builds, is the
identity of size d with one 2x2 block in rows and columns i, i+1, the
block's image under the i-th embedding of SL_2; no matrix product builds
one:

* ``gen_x(d, i, m)``: ((1, m), (0, 1)); ``gen_y(d, i, t)``: ((1, 0), (t, 1));
* ``gen_sdot(d, i)``: ((0, -1), (1, 0)), the fixed lift of the simple
  reflection s_i, and ``gen_sdot_inv(d, i)``: ((0, 1), (-1, 0));
* ``gen_acheck(d, i, t)``: ((t, 0), (0, 1/t)), the coweight torus element;
* an ``xsinv`` factor, x_i(m) s_i^{-1}: ((-m, 1), (-1, 0)).

Products of lifts over different reduced words of the same permutation
agree, so every permutation has a well-defined lift, computed here from a
closed-form sign rule.

A ``GroupWord`` is a sequence of factors of three kinds: ``y`` with a
parameter, bare ``s``, and ``xsinv`` which abbreviates x_i(m) followed by
the inverse lift of s_i.  One factor per step keeps positions aligned with
the steps of a subexpression trace.

Every factor differs from the identity only in rows and columns i, i+1, so
a product of factors is kept as integer columns, each with one scale held
as an integer pair (n, d), d > 0 and gcd(n, d) = 1, and a factor
multiplies onto it from the right as an operation on columns i and i+1:
the lift of s_i swaps them and negates one scale, while y_i(t) and
x_i(m) s_i^{-1} fold the numerator and denominator of the parameter and
both scales into one ratio P/Q, combine the two integer columns with it,
divide the new column by its gcd and reduce its new scale once: that is
``linalg._combine``, which the column reduction uses too.  A minor of the
product is one `Fraction`: a Bareiss determinant of integer entries times
the numerators of its columns' scales, over their denominators.  Its flag,
which the scales do not change, is read off the integer columns alone.
``evaluate`` folds a word this way and builds one matrix at the end;
``apply_lift`` multiplies a matrix by the lift of a permutation as a signed
column permutation.  ``factor_matrix`` and ``perm_matrix`` build the same
factors as dense matrices, for products where a matrix is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .linalg import RatMatrix, _bareiss_det, _combine, rational_from_json, rational_to_json
from .weyl import Permutation, _built, _check_letters, _degree, _int_from_json, _int_in_range
from .weyl import _obj_from_caller, _seq_from_json, evaluate_word

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


def _embed(d: int, i: int, block) -> RatMatrix:
    """The i-th embedding of SL_2: the identity with the 2x2 block in rows
    and columns i, i+1, at a degree and an index already read."""
    rows = list(RatMatrix.identity(d).rows)
    for r, (p, q) in zip((i - 1, i), block):
        row = list(rows[r])
        row[i - 1], row[i] = Fraction(p), Fraction(q)
        rows[r] = tuple(row)
    return _built(RatMatrix, rows=tuple(rows))


def _pinned(d, i) -> tuple[int, int]:
    """A caller's degree, then a generator index in 1..d-1."""
    d = _degree(d)
    return d, _int_in_range(i, 1, d - 1, "generator index")


def gen_x(d: int, i: int, m) -> RatMatrix:
    d, i = _pinned(d, i)
    return _embed(d, i, ((1, rational_from_json(m)), (0, 1)))


def gen_y(d: int, i: int, t) -> RatMatrix:
    d, i = _pinned(d, i)
    return _embed(d, i, ((1, 0), (rational_from_json(t), 1)))


def gen_sdot(d: int, i: int) -> RatMatrix:
    d, i = _pinned(d, i)
    return _embed(d, i, ((0, -1), (1, 0)))


def gen_sdot_inv(d: int, i: int) -> RatMatrix:
    """The inverse lift of s_i."""
    d, i = _pinned(d, i)
    return _embed(d, i, ((0, 1), (-1, 0)))


def gen_acheck(d: int, i: int, t) -> RatMatrix:
    d, i = _pinned(d, i)
    t = rational_from_json(t)
    if t == 0:
        raise InputError("torus parameter must be nonzero")
    return _embed(d, i, ((t, 0), (0, 1 / t)))


@dataclass(frozen=True)
class GroupFactor:
    """One factor of a group word: y_i(t), the lift of s_i, or x_i(m) s_i^{-1}."""

    kind: str
    index: int
    param: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in (FACTOR_Y, FACTOR_S, FACTOR_XSINV):
            raise InputError(f"unknown factor kind {self.kind!r}")
        # GroupWord, which knows d, checks the range.
        _int_from_json(self.index, "generator index")
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
        object.__setattr__(self, "factors", _seq_from_json(self.factors, "group word factors"))
        for f in self.factors:
            _obj_from_caller(f, GroupFactor, "group word factor")
            _int_in_range(f.index, 1, self.d - 1, "generator index")

    def __len__(self) -> int:
        return len(self.factors)


def factor_matrix(d: int, factor: GroupFactor) -> RatMatrix:
    if _obj_from_caller(factor, GroupFactor, "factor").kind == FACTOR_Y:
        return gen_y(d, factor.index, factor.param)
    if factor.kind == FACTOR_S:
        return gen_sdot(d, factor.index)
    d, i = _pinned(d, factor.index)
    return _embed(d, i, ((-factor.param, 1), (-1, 0)))


class _Columns:
    """A product of pinned factors, held as integer columns with scales.

    Column j of the product is n / d times ``cols[j]``, a list of d integers
    whose gcd is 1, where ``scales[j]`` is the integer pair (n, d), d > 0
    and gcd(n, d) = 1.  Starts at the identity.
    """

    __slots__ = ("cols", "scales")

    def __init__(self, d: int):
        self.cols = [[int(r == c) for r in range(d)] for c in range(d)]
        self.scales = [(1, 1)] * d

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
            n, d = scales[a]
            cols[a], cols[b] = cols[b], cols[a]
            scales[a], scales[b] = scales[b], (-n, d)
            return
        pn, pd = factor.param.numerator, factor.param.denominator
        if factor.kind == FACTOR_Y:
            n, d = scales[b]
            cols[a], scales[a] = _combine(cols[a], scales[a], cols[b], (pn * n, pd * d))
        else:
            (an, ad), (bn, bd) = scales[a], scales[b]
            col, scale = _combine(cols[b], (-bn, bd), cols[a], (-pn * an, pd * ad))
            cols[a], cols[b] = col, cols[a]
            scales[a], scales[b] = scale, scales[a]

    def minor(self, row_set: Sequence[int], col_set: Sequence[int]) -> Fraction:
        """``RatMatrix.minor`` of the product, on valid 1-based index sets."""
        # One row per chosen column: the transpose has the same determinant.
        sub = [[self.cols[c - 1][r - 1] for r in row_set] for c in col_set]
        chosen = [self.scales[c - 1] for c in col_set]
        num = math.prod((n for n, _ in chosen), start=_bareiss_det(sub))
        return Fraction(num, math.prod(d for _, d in chosen))

    def matrix(self) -> RatMatrix:
        rows = (
            tuple(Fraction(n * col[r], d) for col, (n, d) in zip(self.cols, self.scales))
            for r in range(len(self.cols))
        )
        return _built(RatMatrix, rows=tuple(rows))

    def spans(self, z: RatMatrix, w: Permutation) -> bool:
        """Whether the product spans the flag z w B+, for upper-unipotent z.

        Scales do not change a flag, so only the integer columns G enter.
        Z = z diag(c), the cleared z, is upper triangular with pivots c_r;
        Y = Z^{-1} G comes from back substitution, with row r multiplied by
        c_r, ..., c_d so that it stays integral and no pivot is divided by.
        Y has the zero pattern of X = z^{-1} G = diag(c) Y, and the flags
        agree exactly when w^{-1} X is upper triangular, that is when column
        j of X is nonzero at row w(j) and zero at the rows w(j'), j' > j.
        """
        z_rows, s = z._cleared
        g_rows = list(zip(*self.cols))
        d = len(g_rows)
        x: list[list[int]] = [[]] * d
        mult = 1
        for r in reversed(range(d)):
            # Row r of Z Y = G, times c_(r+1) ... c_d; row c > r of x carries
            # c_c ... c_d, so its coefficient is z_rows[r][c] c_(r+1) ... c_(c-1).
            acc = [mult * e for e in g_rows[r]]
            carry = 1
            for c in range(r + 1, d):
                coef = z_rows[r][c] * carry
                if coef:
                    acc = [e - coef * f for e, f in zip(acc, x[c])]
                carry *= s[c]
            x[r] = acc
            mult *= s[r]
        pivots = [x[im - 1] for im in w.images]
        return all(
            pivots[j][j] != 0 and not any(row[j] for row in pivots[j + 1 :])
            for j in range(d)
        )


def evaluate(gw: GroupWord) -> RatMatrix:
    g = _Columns(_obj_from_caller(gw, GroupWord, "group word").d)
    for f in gw.factors:
        g.apply(f)
    return g.matrix()


def partial(gw: GroupWord, k: int) -> RatMatrix:
    """The product of the first k factors, a slice of a checked word."""
    _obj_from_caller(gw, GroupWord, "group word")
    k = _int_in_range(k, 0, len(gw.factors), "partial index")
    return evaluate(_built(GroupWord, d=gw.d, factors=gw.factors[:k]))


def perm_matrix(w: Permutation) -> RatMatrix:
    """The pinned lift of w: entry (w(j), j) is -1 to the inversions above j.

    Agrees with the product of gen_sdot factors over any reduced word.
    """
    return apply_lift(RatMatrix.identity(_obj_from_caller(w, Permutation, "w").d), w)


def apply_lift(g: RatMatrix, w: Permutation) -> RatMatrix:
    """g times ``perm_matrix(w)``, as a signed permutation of the columns.

    Column j of the product is column w(j) of g, negated when an odd number
    of k < j have w(k) > w(j).
    """
    _obj_from_caller(g, RatMatrix, "matrix")
    if _obj_from_caller(w, Permutation, "w").d != g.d:
        raise InputError("degree mismatch in permutation lift")
    images = w.images
    columns = [
        (images[j] - 1, sum(1 for k in range(j) if images[k] > images[j]) % 2)
        for j in range(w.d)
    ]
    rows = (tuple(-row[c] if odd else row[c] for c, odd in columns) for row in g.rows)
    return _built(RatMatrix, rows=tuple(rows))


def gmin(g: RatMatrix, v: Permutation, w: Permutation, i: int) -> Fraction:
    """Generalized minor: rows v{1..i} and columns w{1..i}, both sorted.

    No sign adjustment is applied; for the pinning above this is the plain
    minor on those index sets.
    """
    _obj_from_caller(g, RatMatrix, "matrix")
    _obj_from_caller(v, Permutation, "v")
    _obj_from_caller(w, Permutation, "w")
    if v.d != g.d or w.d != g.d:
        raise InputError("degree mismatch in generalized minor")
    i = _int_in_range(i, 0, g.d, "minor size")
    return g.minor(v.prefix_set(i), w.prefix_set(i))


def reduce_flag(z: RatMatrix, word: Sequence[int], k: int) -> RatMatrix:
    """Representative of the flag z times the lift of the k-letter prefix."""
    word = _check_letters(_obj_from_caller(z, RatMatrix, "flag representative").d, word)
    k = _int_in_range(k, 0, len(word), "prefix length")
    return apply_lift(z, evaluate_word(z.d, word[:k]))


def group_word_to_json(gw: GroupWord) -> list[dict]:
    out: list[dict] = []
    for f in _obj_from_caller(gw, GroupWord, "group word").factors:
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
        elif kind in (FACTOR_Y, FACTOR_XSINV):
            if len(payload) != 2:
                raise InputError(f"malformed parametrized factor: {item!r}")
        else:
            raise InputError(f"unknown factor kind {kind!r}")
        index = _int_from_json(payload[0], "factor index")
        param = None if kind == FACTOR_S else rational_from_json(payload[1])
        # Each field is read once here; GroupWord checks the index range.
        factors.append(_built(GroupFactor, kind=kind, index=index, param=param))
    return GroupWord(d, tuple(factors))
