"""Subexpressions of a reduced word, distinguished traces, and R-polynomials.

Fix a reduced word (i_1, ..., i_n).  A subexpression is recorded as its trace:
the partial products v_(0) = e, v_(1), ..., v_(n).  Step k either keeps
v_(k-1), marked "o", or multiplies it by s_{i_k} on the right, marked "-" when
i_k is a right descent of v_(k-1) and "+" otherwise.  ``_step`` states this
rule once; traces are built and checked through it.

A trace is distinguished when every forced descent is taken: whenever
v_(k-1) s_{i_k} is shorter than v_(k-1), the step must move down.  It is
positive when it is distinguished and never moves down.  ``_walk_back``
finds those ending at v right to left from v_(n) = v; it reads w_(k), the
product of the first k letters, from the tuple ``check_reduced_word``
returned.  Step k is a forced ascent from y s_{i_k} when i_k is a right
descent of y = v_(k); otherwise it is a stay, tried first, or a descent
from y s_{i_k}.  By the lifting property, y <= w_(k) gives
v_(k-1) <= w_(k-1) after an ascent or a stay.  So the first, positive path
reaches e exactly when v <= w_(n), and then only descents need a check.

The R-polynomial of a pair v <= w counts, weighted by marks, the
distinguished traces ending at v: each trace contributes
(q - 1)^{#stays} * q^{#descents}.  ``r_polynomial`` does not list them.  It
applies the same backward rule to (step, value) states, from {v} at step n
down to {e} at step 0, and counts the traces through each state by their
stays; traces that meet in a state are merged.  Going back, an ascent
shortens the value by one, a descent lengthens it by one and a stay keeps
it, so a trace with s stays of a word of length n has
(n - s - l(v)) / 2 descents, and the stay counts at e give R.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InputError, InternalCheckError
from .weyl import (
    Permutation,
    Word,
    _check_letters,
    _int_from_json,
    bruhat_leq,
    check_reduced_word,
    identity_perm,
)

__all__ = [
    "MARK_UP",
    "MARK_STAY",
    "MARK_DOWN",
    "SubexpressionTrace",
    "RPolynomial",
    "positive_subexpression",
    "is_distinguished",
    "enumerate_distinguished",
    "r_polynomial",
    "trace_to_json",
    "trace_from_json",
]

MARK_UP = "+"
MARK_STAY = "o"
MARK_DOWN = "-"

ENUMERATION_GUARD = 6
R_POLYNOMIAL_GUARD = 9


@dataclass(frozen=True)
class SubexpressionTrace:
    """Partial products and marks of a subexpression of a fixed word."""

    word: Word
    values: tuple[Permutation, ...]
    marks: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.word)
        if len(self.values) != n + 1 or len(self.marks) != n:
            raise InputError("trace shape does not match its word")
        if not self.values[0].is_identity():
            raise InputError("trace must start at the identity")
        _check_letters(self.values[0].d, self.word)
        for k, (i, mark) in enumerate(zip(self.word, self.marks), start=1):
            if mark not in (MARK_UP, MARK_STAY, MARK_DOWN):
                raise InputError(f"unknown mark {mark!r}")
            step = _step(self.values[k - 1], i, mark != MARK_STAY)
            if step != (mark, self.values[k]):
                raise InputError(f"step {k} of trace is inconsistent with its mark")

    @property
    def d(self) -> int:
        return self.values[0].d

    @property
    def endpoint(self) -> Permutation:
        return self.values[-1]

    def positions(self, mark: str) -> tuple[int, ...]:
        """1-based step indices carrying the given mark."""
        return tuple(k for k, m in enumerate(self.marks, start=1) if m == mark)

    @property
    def stay_count(self) -> int:
        return self.marks.count(MARK_STAY)

    @property
    def down_count(self) -> int:
        return self.marks.count(MARK_DOWN)

    def is_positive(self) -> bool:
        return MARK_DOWN not in self.marks and is_distinguished(self)


def _step(v: Permutation, i: int, move: bool) -> tuple[str, Permutation]:
    """The mark and value of a step from v with letter i: keep v, or move by s_i."""
    if not move:
        return MARK_STAY, v
    return (MARK_DOWN if v.right_descent(i) else MARK_UP), v.times_s(i)


def _trace_from_moves(word: Word, d: int, moves: Sequence[bool]) -> SubexpressionTrace:
    """Build a trace from a word and a keep/multiply decision per step."""
    values = [identity_perm(d)]
    marks: list[str] = []
    for i, move in zip(word, moves):
        mark, value = _step(values[-1], i, move)
        marks.append(mark)
        values.append(value)
    return SubexpressionTrace(word, tuple(values), tuple(marks))


def _walk_back(
    v: Permutation, word: Word, w: tuple[Permutation, ...]
) -> Iterator[list[bool]]:
    """The moves of each distinguished trace ending at v, in a reused list.

    w holds the word's prefix products; a pending (k, y) is the descent into
    y at step k+1.
    """
    moves = [False] * len(word)
    pending = [(len(word), v)]
    while pending:
        k, y = pending.pop()
        if k < len(word):
            y = y.times_s(word[k])
            moves[k] = True
            if not bruhat_leq(y, w[k]):
                continue
        while k:
            k -= 1
            moves[k] = y.right_descent(word[k])
            if moves[k]:
                y = y.times_s(word[k])
            else:
                pending.append((k, y))
        if y != w[0]:
            return
        yield moves


def positive_subexpression(v: Permutation, word: Sequence[int]) -> SubexpressionTrace:
    """The unique distinguished trace for v with no descents.

    The first trace of ``_walk_back``.  Raises ``DomainError`` exactly when
    v is not below the word's product in Bruhat order.

    >>> from .weyl import Permutation
    >>> t = positive_subexpression(Permutation((1, 3, 2, 4)), (3, 2, 1, 3, 2, 3))
    >>> t.marks
    ('o', 'o', 'o', 'o', '+', 'o')
    """
    word, w = check_reduced_word(v.d, word)
    for moves in _walk_back(v, word, w):
        return _trace_from_moves(word, v.d, moves)
    raise DomainError("no subexpression: endpoint is not below the word's product")


def is_distinguished(trace: SubexpressionTrace) -> bool:
    """Every forced descent is taken: v_(k) <= v_(k-1) s_{i_k} at each step."""
    for k, i in enumerate(trace.word):
        prev = trace.values[k]
        if prev.right_descent(i) and trace.marks[k] != MARK_DOWN:
            return False
    return True


def enumerate_distinguished(
    v: Permutation, word: Sequence[int]
) -> list[SubexpressionTrace]:
    """All distinguished traces of the word ending at v, sorted by marks.

    Degree is guarded because the search is exhaustive.
    """
    if v.d > ENUMERATION_GUARD:
        raise DomainError(
            f"distinguished enumeration is limited to degree {ENUMERATION_GUARD}"
        )
    word, w = check_reduced_word(v.d, word)
    traces = (_trace_from_moves(word, v.d, m) for m in _walk_back(v, word, w))
    return sorted(traces, key=lambda t: "".join(t.marks))


@dataclass(frozen=True)
class RPolynomial:
    """A polynomial in q with integer coefficients, stored low degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise InputError("coefficient tuple has trailing zeros")

    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> "RPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return RPolynomial(tuple(cs))

    @staticmethod
    def zero() -> "RPolynomial":
        return RPolynomial(())

    @staticmethod
    def one() -> "RPolynomial":
        return RPolynomial((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "RPolynomial") -> "RPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RPolynomial.from_coeffs(
            (self.coeffs[k] if k < len(self.coeffs) else 0)
            + (other.coeffs[k] if k < len(other.coeffs) else 0)
            for k in range(n)
        )

    def __mul__(self, other: "RPolynomial") -> "RPolynomial":
        if self.is_zero or other.is_zero:
            return RPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, ca in enumerate(self.coeffs):
            for b, cb in enumerate(other.coeffs):
                out[a + b] += ca * cb
        return RPolynomial.from_coeffs(out)

    def __call__(self, q) -> object:
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def pretty(self) -> str:
        """Human-readable form, highest power first.

        >>> RPolynomial((1, -2, 1)).pretty()
        'q^2 - 2q + 1'
        """
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.pretty()


def _merge(
    level: dict[Permutation, dict[int, int]], y: Permutation, tally: dict[int, int], shift: int
) -> None:
    """Add the trace counts of tally, with stays raised by shift, to level[y]."""
    into = level.setdefault(y, {})
    for stays, count in tally.items():
        into[stays + shift] = into.get(stays + shift, 0) + count


def r_polynomial(v: Permutation, w: Permutation, word: Sequence[int]) -> RPolynomial:
    """Sum of (q-1)^{#stays} q^{#descents} over distinguished traces ending at v.

    The word must be a reduced word for w; the value does not depend on
    which one is chosen.  Pairs with v not below w give the zero polynomial;
    comparable pairs above degree ``R_POLYNOMIAL_GUARD`` raise ``DomainError``.

    >>> from .weyl import longest_element
    >>> r_polynomial(identity_perm(3), longest_element(3), (1, 2, 1)).pretty()
    'q^3 - 2q^2 + 2q - 1'
    """
    if v.d != w.d:
        raise InputError(f"degree mismatch: v has degree {v.d}, w has degree {w.d}")
    word, prefixes = check_reduced_word(v.d, word)
    if prefixes[-1] != w:
        raise InputError("word does not multiply out to w")
    if not bruhat_leq(v, w):
        return RPolynomial.zero()
    if v.d > R_POLYNOMIAL_GUARD:
        raise DomainError(f"R-polynomials are limited to degree {R_POLYNOMIAL_GUARD}")
    # level[y] counts the traces from v_(k) = y to v_(n) = v by their stays;
    # top is w_(k-1) while level k is read.
    level: dict[Permutation, dict[int, int]] = {v: {0: 1}}
    for i, top in zip(reversed(word), reversed(prefixes[:-1])):
        below: dict[Permutation, dict[int, int]] = {}
        for y, tally in level.items():
            x = y.times_s(i)
            if y.right_descent(i):
                _merge(below, x, tally, 0)
            else:
                _merge(below, y, tally, 1)
                if bruhat_leq(x, top):
                    _merge(below, x, tally, 0)
        level = below
    e = identity_perm(v.d)
    if list(level) != [e]:
        raise InternalCheckError("R-polynomial pass did not end at the identity")
    # (q-1)^s q^{(L-s)/2} by the binomial theorem, with L = l(w) - l(v); then
    # the Kazhdan-Lusztig identity q^L R(1/q) = (-1)^L R(q) as a cross-check.
    length = len(word) - v.length()
    coeffs = [0] * (length + 1)
    for stays, count in level[e].items():
        descents = (length - stays) // 2
        for j in range(stays + 1):
            coeffs[descents + j] += count * comb(stays, j) * (-1) ** (stays - j)
    if coeffs[-1] != 1 or coeffs[::-1] != [(-1) ** length * c for c in coeffs]:
        raise InternalCheckError("R-polynomial fails its monic or q^L R(1/q) check")
    return RPolynomial(tuple(coeffs))


def trace_to_json(trace: SubexpressionTrace) -> dict:
    return {
        "word": list(trace.word),
        "values": [list(p.images) for p in trace.values],
        "marks": list(trace.marks),
    }


def trace_from_json(data: dict) -> SubexpressionTrace:
    """The trace of a JSON object; its word must be reduced."""
    try:
        word = tuple(_int_from_json(i, "trace entry") for i in data["word"])
        values = tuple(
            Permutation(tuple(_int_from_json(x, "trace entry") for x in im))
            for im in data["values"]
        )
        if not isinstance(data["marks"], list):
            raise InputError(f"trace marks must be a JSON array, got {data['marks']!r}")
        marks = tuple(str(m) for m in data["marks"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed trace object: {exc}") from exc
    trace = SubexpressionTrace(word, values, marks)
    check_reduced_word(trace.d, trace.word)
    return trace


if __name__ == "__main__":
    import doctest

    doctest.testmod()
