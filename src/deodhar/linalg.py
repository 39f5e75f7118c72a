"""Exact linear algebra over the rationals for flag computations.

Matrices are immutable, square, and store ``fractions.Fraction`` entries.
A matrix clears the denominators of its columns once and keeps z·diag(c),
c_j the lcm of column j's denominators; a minor runs fraction-free Bareiss
elimination on a copy of the chosen integer entries, which keeps
intermediate values small, and divides by its columns' scales.  The
classifying sweep, and everything that reads minors of z off it, uses
``_ChamberTable`` instead: one Bareiss table of a unipotent matrix, kept
up to date while the rows and columns move by one adjacent transposition
at a time.  ``_column_reduce`` clears the same integer matrix by columns
with ``_combine``, the group-word kernel's column operation.  Only the
product and ``inverse``, oracles for the tests, work in `Fraction`.

A caller's matrix is read by the constructor alone: rows and each row by
``weyl._seq_from_json``, the size against the degree limit and for squareness
before any entry is read, then each entry by ``rational_from_json``.  Every
matrix the library builds from values it holds skips that through ``weyl._built``.

Index sets for minors are 1-based, strictly increasing tuples.  Two
invertible matrices represent the same complete flag when they differ by an
invertible upper-triangular factor on the right.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InputError, InternalCheckError, check_limit
from .weyl import Permutation, _built, _degree, _int_in_range, _obj_from_caller, _seq_from_json
from .weyl import longest_element

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
    ix = _seq_from_json(ix, "index set")
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


class _ChamberTable:
    """A running fraction-free elimination of M = v̄⁻¹ z w̄, for upper-unipotent z.

    v̄ and w̄ are the pinned lifts of two permutations, both starting at the
    identity.  Column j of M is column w(j) of z, signed, read from the
    cleared Z = z·diag(c): it carries the scale ``scales[j-1]`` = c_w(j).
    So the leading principal minor of size i is the minor of z on rows
    v{1..i} and columns w{1..i} times ``leads[i]`` = c_w(1)⋯c_w(i).  Entry
    (r, c), 1-based, is the minor of M on the leading positions 1..m−1
    bordered by row r and column c, m = min(r, c): the entries of every
    step of Bareiss elimination at once.  It starts as c_1⋯c_(r−1)·Z[r][c]
    on and above the diagonal and 0 below.

    ``step(i, turn)`` moves columns i, i+1, scales included, by the lift
    of s_i and, for turn 1 or −1, rows i, i+1 by its inverse or by the lift
    itself.  A minor whose leading positions hold both i and i+1, or
    neither, keeps its value up to the move of its border, so only the
    entries bordered at i or i+1, or led by 1..i, change.  Sylvester's
    identity rewrites those, O(d) of them, each with one exact division by
    the leading minor of size i, which must be nonzero.
    """

    __slots__ = ("entries", "scales", "leads")

    def __init__(self, z: RatMatrix):
        rows, scales = z._cleared
        self.entries: list[list[int]] = []
        self.scales = list(scales)
        self.leads = [1]
        for r, row in enumerate(rows):
            self.entries.append([0] * r + [self.leads[r] * x for x in row[r:]])
            self.leads.append(self.leads[r] * scales[r])

    def bordered(self, i: int) -> tuple[int, int]:
        """Entry (i, i+1) and its scale: the minor on rows 1..i and columns 1..i-1, i+1."""
        return self.entries[i - 1][i], self.leads[i - 1] * self.scales[i]

    def leading(self, i: int) -> tuple[int, int]:
        """Entry (i, i) and its scale: the leading principal minor of size i."""
        return self.entries[i - 1][i - 1], self.leads[i]

    def step(self, i: int, turn: int) -> None:
        """Move columns i, i+1 by the lift of s_i, and rows i, i+1 by turn.

        turn 0 leaves the rows, 1 moves them by the inverse lift and -1 by
        the lift.  Raises InternalCheckError when the leading minor of size
        i, the one divisor, vanishes.
        """
        t = self.entries
        a, b = i - 1, i
        ta, tb = t[a], t[b]
        # Entries (i, i), (i, i+1) and (i+1, i) are led by 1..i-1, entry
        # (i+1, i+1) by 1..i, so neither move changes it.
        p, q, x, w = ta[a], ta[b], tb[a], tb[b]
        if not p:
            raise InternalCheckError(f"leading minor of size {i} vanished")
        prev = t[a - 1][a - 1] if a else 1
        s = self.scales
        s[a], s[b] = s[b], s[a]
        self.leads[i] = self.leads[a] * s[a]
        # Entry (i+1, i+1) led by 1..i-1 only: elimination step i undone.
        y = (w * prev + x * q) // p
        for r in t[:a]:
            r[a], r[b] = r[b], -r[a]
        tails = list(zip(ta[b + 1 :], tb[b + 1 :]))
        row_b = [(q * v - w * u) // p for u, v in tails]
        below = t[b + 1 :]
        if not turn:
            ta[a], ta[b] = q, -p
            tb[a] = y
            tb[b + 1 :] = row_b
            for r in below:
                r[a] = (r[b] * prev + r[a] * q) // p
            return
        t[a] = [turn * u for u in tb[:a]] + [turn * y, -turn * x]
        t[a].extend([turn * ((v * prev + x * u) // p) for u, v in tails])
        t[b] = [-turn * u for u in ta[:a]] + [-turn * q, w] + row_b
        for r in below:
            u, v = r[a], r[b]
            r[a] = (v * prev + u * q) // p
            r[b] = turn * (x * v - w * u) // p


@dataclass(frozen=True)
class RatMatrix:
    """An immutable square matrix of rationals.  Entry access is 1-based.

    The constructor reads a caller's rows into tuples of ``Fraction``; ``_built`` skips it.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = _seq_from_json(self.rows, "matrix rows")
        d = len(rows)
        if d == 0:
            raise InputError("matrix must have at least one row")
        check_limit("degree", d)
        rows = [_seq_from_json(r, "matrix row") for r in rows]
        if any(len(r) != d for r in rows):
            raise InputError("matrix must be square")
        rows = tuple(tuple(rational_from_json(x) for x in r) for r in rows)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def identity(d: int) -> "RatMatrix":
        d = _degree(d, "matrix size")
        return _built(
            RatMatrix,
            rows=tuple(tuple(Fraction(1 if r == c else 0) for c in range(d)) for r in range(d)),
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
        rows = (tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        return _built(RatMatrix, rows=tuple(rows))

    @functools.cached_property
    def _cleared(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The rows of self·diag(c), c_j the lcm of column j's denominators, and c.

        Tuples, so that the in-place elimination only ever gets a copy.
        """
        scales = tuple(math.lcm(*(x.denominator for x in col)) for col in zip(*self.rows))
        rows = tuple(
            tuple(x.numerator * (c // x.denominator) for x, c in zip(row, scales))
            for row in self.rows
        )
        return rows, scales

    def det(self) -> Fraction:
        """Determinant via the cleared integer columns and Bareiss steps."""
        rows, scales = self._cleared
        return Fraction(_bareiss_det([list(r) for r in rows]), math.prod(scales))

    def minor(self, row_set: Sequence[int], col_set: Sequence[int]) -> Fraction:
        """Determinant of the submatrix on the given 1-based index sets.

        Both sets must be strictly increasing and of equal size; the empty
        minor is 1.  Bareiss elimination runs on a copy of the chosen
        cleared entries, divided by the chosen columns' scales.
        """
        rows = _check_index_set(row_set, self.d)
        cols = _check_index_set(col_set, self.d)
        if len(rows) != len(cols):
            raise InputError("minor needs equally many rows and columns")
        int_rows, scales = self._cleared
        det = _bareiss_det([[int_rows[r - 1][c - 1] for c in cols] for r in rows])
        return Fraction(det, math.prod(scales[c - 1] for c in cols))

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
        return _built(RatMatrix, rows=tuple(tuple(row[d:]) for row in work))

    def is_upper_triangular(self) -> bool:
        return not any(x for r, row in enumerate(self.rows) for x in row[:r])

    def is_upper_unipotent(self) -> bool:
        return self._unipotent

    @functools.cached_property
    def _unipotent(self) -> bool:
        """Whether self is upper unipotent, tested once per matrix, as ``_cleared`` is cleared once."""
        return self.is_upper_triangular() and all(self.rows[k][k] == 1 for k in range(self.d))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"RatMatrix[{body}]"


def matrix_from_json(data) -> RatMatrix:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InputError("matrix JSON must be a list of lists")
    return RatMatrix(data)


def matrix_to_json(m: RatMatrix) -> list[list[str]]:
    rows = _obj_from_caller(m, RatMatrix, "matrix").rows
    return [[rational_to_json(x) for x in row] for row in rows]


def flag_equal(a: RatMatrix, b: RatMatrix) -> bool:
    """Whether two invertible matrices span the same complete flag.

    Compares the pairs (z, w) of ``_column_reduce``, which are unique for
    each flag; a singular matrix raises ``DomainError``, and a is reduced
    first.
    """
    _obj_from_caller(a, RatMatrix, "flag representative")
    _obj_from_caller(b, RatMatrix, "flag representative")
    if a.d != b.d:
        raise InputError("size mismatch in flag comparison")
    return _column_reduce(a._cleared[0]) == _column_reduce(b._cleared[0])


def _combine(
    u: list[int], su: tuple[int, int], v: list[int], sv: tuple[int, int]
) -> tuple[list[int], tuple[int, int]]:
    """A primitive integer column c and its scale s with s c = su u + sv v.

    Scales are integer pairs (n, d) for n / d.  su and sv need not be
    reduced, but both denominators must be positive; s comes back reduced
    with a positive denominator; a zero column's is (0, 1).
    """
    (a, b), (c, e) = su, sv
    # The ratio sv / su = p / q in lowest terms, q > 0.
    p, q = c * b, e * a
    if q < 0:
        p, q = -p, -q
    h = math.gcd(p, q)
    p, q = p // h, q // h
    col = [q * x + p * y for x, y in zip(u, v)]
    g = math.gcd(*col)
    if g > 1:
        col = [x // g for x in col]
    n, den = a * g, b * q
    h = math.gcd(n, den)
    return col, (n // h, den // h)


def _column_reduce(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[Fraction, ...], ...], Permutation]:
    """The rows of z and w with z w B+ = g B+, from the integer rows of g·diag(c).

    A greedy sweep by columns.  The pivot of column j is the lowest nonzero
    entry of the running column, in row w(j), which upper-triangular
    factors on either side leave in place; ``_combine`` clears that row
    from every later column.  Column w(j) of z is the reduced column j over
    its pivot, the only `Fraction`s formed.  A zero column raises
    ``DomainError``: g is singular.
    """
    cols = [list(c) for c in zip(*rows)]
    d = len(cols)
    z_cols, images = [()] * d, [0] * d
    for j in range(d):
        col = cols[j]
        p = next((r for r in reversed(range(d)) if col[r]), None)
        if p is None:
            raise DomainError("matrix is singular")
        piv = col[p]
        for j2 in range(j + 1, d):
            f = cols[j2][p]
            if f:
                cols[j2] = _combine(cols[j2], (piv, 1), col, (-f, 1))[0]
        images[j] = p + 1
        z_cols[p] = tuple(Fraction(x, piv) for x in col)
    return tuple(zip(*z_cols)), Permutation(tuple(images))


def bruhat_position(g: RatMatrix) -> Permutation:
    """The permutation w with g in B+ w B+ (B+ the upper-triangular group)."""
    return _column_reduce(_obj_from_caller(g, RatMatrix, "matrix")._cleared[0])[1]


def opposite_position(g: RatMatrix) -> Permutation:
    """The permutation v with g in B- v B+ (B- the lower-triangular group).

    Reversing the rows multiplies g on the left by the longest element w0,
    and w0 B- w0 = B+, so w0 g lies in B+ (w0 v) B+.
    """
    rows = _obj_from_caller(g, RatMatrix, "matrix")._cleared[0]
    return longest_element(g.d) * _column_reduce(rows[::-1])[1]


def unipotent_representative(g: RatMatrix) -> tuple[RatMatrix, Permutation]:
    """An upper-unipotent z and w = bruhat_position(g) with z w B+ = g B+.

    Both come from ``_column_reduce``; z's upper unipotence is checked as an
    internal fault.
    """
    rows, w = _column_reduce(_obj_from_caller(g, RatMatrix, "matrix")._cleared[0])
    z = _built(RatMatrix, rows=rows)
    if not z.is_upper_unipotent():
        raise InternalCheckError("column reduction did not give an upper-unipotent z")
    return z, w
