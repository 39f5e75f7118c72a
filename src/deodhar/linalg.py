"""Exact linear algebra over the rationals for flag computations.

Matrices are immutable, square, and store ``fractions.Fraction`` entries.
A matrix clears the denominators of its rows once and keeps the integer
rows; a minor runs fraction-free Bareiss elimination on a copy of the
chosen integer entries, which keeps intermediate values small.  On an
upper-triangular matrix, such as the unipotent representative of a flag,
the zero pattern splits a minor into diagonal blocks first: a minor with a
row index beyond its paired column index is 0, a 1×1 block is its entry,
and only larger blocks reach Bareiss.  Every other routine is direct
Gaussian arithmetic on `Fraction`.

Index sets for minors are 1-based, strictly increasing tuples.  Two
invertible matrices represent the same complete flag when they differ by an
invertible upper-triangular factor on the right.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, InputError, InternalCheckError, check_limit
from .weyl import Permutation, _degree, _int_in_range, longest_element

__all__ = [
    "RatMatrix",
    "rational_from_json",
    "rational_to_json",
    "matrix_from_json",
    "matrix_to_json",
    "flag_equal",
    "bruhat_position",
    "opposite_position",
    "unipotent_representative",
]


def rational_from_json(x) -> Fraction:
    """Read a rational number given by a caller or a JSON document.

    Accepts a `Fraction`, an `int`, or a string that `Fraction` parses
    exactly: "n", "p/q" or a decimal such as "0.5".  A float, a bool, any
    other type and a string that is not a rational literal (including
    "1/0") raise InputError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational literal: {x!r}") from exc
    raise InputError(f"cannot interpret {x!r} as a rational number")


def rational_to_json(x: Fraction) -> str:
    """Formats as "p/q", or "n" when the denominator is 1."""
    return str(x)


def _check_index_set(ix: Sequence[int], d: int) -> tuple[int, ...]:
    ix = tuple(ix)
    for a in ix:
        if not (type(a) is int and 0 < a <= d):
            _int_in_range(a, 1, d, "index")
    if any(ix[k] >= ix[k + 1] for k in range(len(ix) - 1)):
        raise InputError(f"index set must be strictly increasing: {ix!r}")
    return ix


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix; overwrites ``m``."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class RatMatrix:
    """An immutable square matrix of rationals.  Entry access is 1-based."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if d == 0:
            raise InputError("matrix must have at least one row")
        check_limit("degree", d)
        if any(len(r) != d for r in self.rows):
            raise InputError("matrix must be square")

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "RatMatrix":
        return RatMatrix(tuple(tuple(rational_from_json(x) for x in r) for r in rows))

    @staticmethod
    def identity(d: int) -> "RatMatrix":
        d = _degree(d, "matrix size")
        return RatMatrix(
            tuple(
                tuple(Fraction(1 if r == c else 0) for c in range(d))
                for r in range(d)
            )
        )

    @property
    def d(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        i = _int_in_range(i, 1, self.d, "row index")
        j = _int_in_range(j, 1, self.d, "column index")
        return self.rows[i - 1][j - 1]

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.d != other.d:
            raise InputError("size mismatch in matrix product")
        cols = list(zip(*other.rows))
        return RatMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    @functools.cached_property
    def _integer_rows(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Each row times the lcm of its denominators, and those lcms.

        Tuples, so that the in-place elimination only ever gets a copy.
        """
        rows: list[tuple[int, ...]] = []
        scales: list[int] = []
        for row in self.rows:
            lcm = math.lcm(*(x.denominator for x in row))
            scales.append(lcm)
            rows.append(tuple(x.numerator * (lcm // x.denominator) for x in row))
        return tuple(rows), tuple(scales)

    def det(self) -> Fraction:
        """Determinant via the cleared integer rows and Bareiss steps."""
        rows, scales = self._integer_rows
        return Fraction(_bareiss_det([list(r) for r in rows]), math.prod(scales))

    @functools.cached_property
    def _upper_triangular(self) -> bool:
        return not any(x for r, row in enumerate(self.rows) for x in row[:r])

    def minor(self, row_set: Sequence[int], col_set: Sequence[int]) -> Fraction:
        """Determinant of the submatrix on the given 1-based index sets.

        Both sets must be strictly increasing and of equal size; the empty
        minor is 1.  On an upper-triangular matrix, with rows r_1 < … < r_n
        and columns c_1 < … < c_n, the minor is 0 when some r_k > c_k (the
        first k columns then live on k − 1 rows), and the submatrix is block
        upper triangular with a cut wherever c_k < r_(k+1), so the minor is
        the product of its diagonal blocks.  Any other matrix is one block.
        """
        rows = _check_index_set(row_set, self.d)
        cols = _check_index_set(col_set, self.d)
        n = len(rows)
        if n != len(cols):
            raise InputError("minor needs equally many rows and columns")
        if not n:
            return Fraction(1)
        if not self._upper_triangular:
            cuts = [n]
        elif any(map(operator.gt, rows, cols)):
            return Fraction(0)
        else:
            cuts = [k for k in range(1, n) if cols[k - 1] < rows[k]]
            cuts.append(n)
        int_rows, scales = self._integer_rows
        det = 1
        start = 0
        for stop in cuts:
            if stop - start == 1:
                det *= int_rows[rows[start] - 1][cols[start] - 1]
            else:
                block_cols = cols[start:stop]
                det *= _bareiss_det(
                    [[int_rows[r - 1][c - 1] for c in block_cols] for r in rows[start:stop]]
                )
            start = stop
        return Fraction(det, math.prod(scales[r - 1] for r in rows))

    def inverse(self) -> "RatMatrix":
        d = self.d
        work = [list(r) + [Fraction(int(k == r_ix)) for k in range(d)]
                for r_ix, r in enumerate(self.rows)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if work[r][col] != 0), None)
            if pivot is None:
                raise DomainError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            pv = work[col][col]
            work[col] = [x / pv for x in work[col]]
            for r in range(d):
                if r != col and work[r][col] != 0:
                    f = work[r][col]
                    work[r] = [a - f * b for a, b in zip(work[r], work[col])]
        return RatMatrix(tuple(tuple(row[d:]) for row in work))

    def is_upper_triangular(self) -> bool:
        return self._upper_triangular

    def is_upper_unipotent(self) -> bool:
        return self._upper_triangular and all(
            self.rows[k][k] == 1 for k in range(self.d)
        )

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"RatMatrix[{body}]"


def matrix_from_json(data) -> RatMatrix:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InputError("matrix JSON must be a list of lists")
    return RatMatrix.from_rows(data)


def matrix_to_json(m: RatMatrix) -> list[list[str]]:
    return [[rational_to_json(x) for x in row] for row in m.rows]


def flag_equal(a: RatMatrix, b: RatMatrix) -> bool:
    """Whether two invertible matrices span the same complete flag.

    Compares their column echelon forms from ``_column_reduce``, which are
    unique for each flag; a singular matrix raises ``DomainError``.
    """
    if a.d != b.d:
        raise InputError("size mismatch in flag comparison")
    return _column_reduce(a)[0] == _column_reduce(b)[0]


def _column_reduce(g: RatMatrix) -> tuple[list[list[Fraction]], Permutation]:
    """Greedy pivot sweep by columns, clearing each pivot row to the right.

    The pivot is the lowest nonzero entry of the running column, whose row
    is invariant under upper-triangular factors on either side.
    """
    d = g.d
    m = [list(row) for row in g.rows]
    images = [0] * d
    for j in range(d):
        p = max((r for r in range(d) if m[r][j] != 0), default=None)
        if p is None:
            raise DomainError("matrix is singular")
        images[j] = p + 1
        pivot = m[p][j]
        for r in range(d):
            m[r][j] /= pivot
        for j2 in range(j + 1, d):
            f = m[p][j2]
            if f != 0:
                for r in range(d):
                    m[r][j2] -= f * m[r][j]
    return m, Permutation(tuple(images))


def bruhat_position(g: RatMatrix) -> Permutation:
    """The permutation w with g in B+ w B+ (B+ the upper-triangular group)."""
    return _column_reduce(g)[1]


def opposite_position(g: RatMatrix) -> Permutation:
    """The permutation v with g in B- v B+ (B- the lower-triangular group).

    Reversing the rows multiplies g on the left by the longest element w0,
    and w0 B- w0 = B+, so w0 g lies in B+ (w0 v) B+.
    """
    return longest_element(g.d) * bruhat_position(RatMatrix(g.rows[::-1]))


def unipotent_representative(g: RatMatrix) -> tuple[RatMatrix, Permutation]:
    """An upper-unipotent z and w = bruhat_position(g) with z w B+ = g B+.

    Column j of the reduced matrix has its lowest nonzero entry, pinned to
    1, in row w(j); regrouping those columns as columns w(j) of z yields the
    unipotent witness.
    """
    m, w = _column_reduce(g)
    d = g.d
    z = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d):
        target = w(j + 1) - 1
        for r in range(d):
            z[r][target] = m[r][j]
    out = RatMatrix(tuple(tuple(row) for row in z))
    if not out.is_upper_unipotent():
        raise InternalCheckError("column reduction did not give an upper-unipotent z")
    return out, w
