"""Subexpressions of a reduced word, distinguished traces, and R-polynomials.

Fix a reduced word (i_1, ..., i_n).  A subexpression is recorded as its trace:
the partial products v_(0) = e, v_(1), ..., v_(n).  Step k either keeps
v_(k-1), marked "o", or multiplies it by s_{i_k} on the right, marked "-" when
i_k is a right descent of v_(k-1) and "+" otherwise.  ``_step`` states this
rule once; traces are checked, and all but the positive one built, through
it.  A trace from a caller always meets the check of every step in
``__post_init__``; one the library builds on a checked word skips it.

A trace is distinguished when every forced descent is taken: whenever
v_(k-1) s_{i_k} is shorter than v_(k-1), the step must move down.  It is
positive when it is distinguished and never moves down.  Both are found
right to left from v_(n) = v, reading w_(k), the product of the first k
letters, from the tuple ``check_reduced_word`` returned.  Step k is a
forced ascent from y s_{i_k} when i_k is a right descent of y = v_(k);
otherwise it is a stay or a descent from y s_{i_k}.  Since i_k is a right
descent of w_(k), the lifting property turns y <= w_(k) into v_(k-1) <=
w_(k-1) after an ascent or a stay, so only a descent needs a check,
x = y s_{i_k} <= w_(k-1).  That check is one prefix comparison.  Here i_k is
not a right descent of y, so lifting gives y <= w_(k-1) as well.  Bruhat
order compares the sorted first j images for every j, and right
multiplication by s_i moves only the i-th of those prefix sets.  So x <=
w_(k-1) exactly when the sorted first i_k images of x are entrywise at most
those of w_(k-1) (``_prefix_below``).  The positive trace is the greedy path
that never descends: it checks nothing and reaches e exactly when v <= w_(n).

``_pass_back`` applies the rule to (step, value) states, from {v} at step n
down to {e} at step 0.  A value is held as its image tuple, so a step by s_i
swaps two entries and a descent test compares them.  The pass tallies the
traces through each state by a key, the sum of a weight per step over the
steps that stay, and merges traces that meet in a state with equal keys.
``enumerate_distinguished`` weighs step k by 2^(k-1), so a key is the set of
steps that stay; that set fixes the trace, so no two merge.  ``r_polynomial``
weighs every step by 1, so a key is a stay count.  Each distinguished trace
ending at v contributes (q - 1)^{#stays} * q^{#descents} to R.  Going back, an
ascent shortens the value by one, a descent lengthens it by one and a stay
keeps it, so a trace with s stays of a word of length n has (n - s - l(v)) / 2
descents, and the stay counts at e give R.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import le
from typing import Iterable, Sequence

from .errors import DomainError, InputError, InternalCheckError, check_limit
from .weyl import (
    Permutation,
    Word,
    _built,
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

Images = tuple[int, ...]


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
    """Build a trace from a checked reduced word and a keep/move decision per step."""
    values = [identity_perm(d)]
    marks: list[str] = []
    for i, move in zip(word, moves):
        mark, value = _step(values[-1], i, move)
        marks.append(mark)
        values.append(value)
    return _built(SubexpressionTrace, word=word, values=tuple(values), marks=tuple(marks))


def _merge(
    level: dict[Images, dict[int, int]], y: Images, tally: dict[int, int], shift: int
) -> None:
    """Add the trace counts of tally, with keys raised by shift, to level[y]."""
    into = level.setdefault(y, {})
    for key, count in tally.items():
        into[key + shift] = into.get(key + shift, 0) + count


def _prefix_below(x: Images, i: int, bound: list[int]) -> bool:
    """Whether the sorted first i images of x are entrywise at most bound."""
    return all(map(le, sorted(x[:i]), bound))


def _pass_back(
    v: Permutation, word: Word, w: tuple[Permutation, ...], weights: Sequence[int]
) -> dict[int, int]:
    """Count the distinguished traces ending at v by the weights of their stays.

    w holds the word's prefix products and v <= w_(n); a key is the sum of
    weights[k-1] over the steps k that stay.
    """
    # level[y] counts the traces from v_(k) = y to v_(n) = v by their keys;
    # bound is the sorted i-prefix of w_(k-1) while level k is read.
    level: dict[Images, dict[int, int]] = {v.images: {0: 1}}
    for i, top, weight in zip(reversed(word), reversed(w[:-1]), reversed(weights)):
        bound = sorted(top.images[:i])
        below: dict[Images, dict[int, int]] = {}
        for y, tally in level.items():
            x = y[: i - 1] + (y[i], y[i - 1]) + y[i + 1 :]
            if y[i - 1] > y[i]:
                _merge(below, x, tally, 0)
            else:
                _merge(below, y, tally, weight)
                if _prefix_below(x, i, bound):
                    _merge(below, x, tally, 0)
        level = below
    if list(level) != [w[0].images]:
        raise InternalCheckError("backward pass did not end at the identity")
    return level[w[0].images]


def _positive_walk(
    v: Permutation, word: Sequence[int]
) -> tuple[SubexpressionTrace, tuple[Permutation, ...]]:
    """The positive trace of v, and the prefix products of the word it checked."""
    word, w = check_reduced_word(v.d, word)
    values, marks = [v], []
    for i in reversed(word):
        move = values[-1].right_descent(i)
        values.append(values[-1].times_s(i) if move else values[-1])
        marks.append(MARK_UP if move else MARK_STAY)
    if not values[-1].is_identity():
        raise DomainError("no subexpression: endpoint is not below the word's product")
    values, marks = tuple(values[::-1]), tuple(marks[::-1])
    return _built(SubexpressionTrace, word=word, values=values, marks=marks), w


def positive_subexpression(v: Permutation, word: Sequence[int]) -> SubexpressionTrace:
    """The unique distinguished trace for v with no descents.

    The greedy backward walk: from v_(n) = v, step k moves up exactly when
    i_k is a right descent of v_(k).  Raises ``DomainError`` exactly when v
    is not below the word's product in Bruhat order.

    >>> from .weyl import Permutation
    >>> t = positive_subexpression(Permutation((1, 3, 2, 4)), (3, 2, 1, 3, 2, 3))
    >>> t.marks
    ('o', 'o', 'o', 'o', '+', 'o')
    """
    return _positive_walk(v, word)[0]


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
    check_limit("distinguished", v.d)
    word, w = check_reduced_word(v.d, word)
    if not bruhat_leq(v, w[-1]):
        return []
    # Step k weighs 2^(k-1), so a key is the set of steps that stay.
    stays = _pass_back(v, word, w, [1 << k for k in range(len(word))])
    traces = (
        _trace_from_moves(word, v.d, [not s >> k & 1 for k in range(len(word))])
        for s in stays
    )
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


def r_polynomial(v: Permutation, w: Permutation, word: Sequence[int]) -> RPolynomial:
    """Sum of (q-1)^{#stays} q^{#descents} over distinguished traces ending at v.

    The word must be a reduced word for w; the value does not depend on
    which one is chosen.  Pairs with v not below w give the zero polynomial;
    comparable pairs above the R-polynomial limit raise ``DomainError``.

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
    check_limit("R-polynomial", v.d)
    tally = _pass_back(v, word, prefixes, [1] * len(word))
    # (q-1)^s q^{(L-s)/2} by the binomial theorem, with L = l(w) - l(v); then
    # the Kazhdan-Lusztig identity q^L R(1/q) = (-1)^L R(q) as a cross-check.
    length = len(word) - v.length()
    coeffs = [0] * (length + 1)
    for stays, count in tally.items():
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
