"""Shared oracles and random generators for the test suite.

Oracles here are deliberately independent of the library internals: the
determinant by cofactor expansion, Bruhat order by the subword criterion,
and R-polynomials by the descent recursion.  Tests compare library output
against these on small ranks where the exponential cost is irrelevant.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from deodhar import (
    ComponentDescriptor,
    Permutation,
    RatMatrix,
    build_element,
    evaluate,
    identity_perm,
    unipotent_representative,
)
from deodhar.subexpr import MARK_DOWN, MARK_STAY, MARK_UP, SubexpressionTrace

S102_ROWS = [[1, 1, 2, 1], [0, 1, 4, 2], [0, 0, 1, 0], [0, 0, 0, 1]]
S102_WORD = (3, 2, 1, 3, 2)


def s102_matrix() -> RatMatrix:
    return RatMatrix(S102_ROWS)


def det_cofactor(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by first-row cofactor expansion.

    The minor on the last k rows depends only on its k columns, so each
    column subset is expanded once: n 2^n terms rather than n!.
    """
    n = len(rows)

    @functools.cache
    def minor(cols: tuple[int, ...]) -> Fraction:
        if not cols:
            return Fraction(1)
        row = rows[n - len(cols)]
        return sum(
            (-1) ** a * row[c] * minor(cols[:a] + cols[a + 1 :])
            for a, c in enumerate(cols)
        )

    return minor(tuple(range(n)))


def bruhat_leq_subword(v: Permutation, w: Permutation, word: tuple[int, ...]) -> bool:
    """v <= w iff some subword of a reduced word for w is reduced for v."""
    target = v.length()

    def walk(pos: int, cur: Permutation, used: int) -> bool:
        if cur == v and used == target:
            return True
        if pos == len(word) or used + (len(word) - pos) < target:
            return False
        i = word[pos]
        if used < target and walk(pos + 1, cur.times_s(i), used + 1):
            return True
        return walk(pos + 1, cur, used)

    return walk(0, identity_perm(v.d), 0)


def _padd(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def kl_r_polynomial(v: Permutation, w: Permutation, _memo={}) -> list[int]:
    """R-polynomial coefficients (ascending) by the descent recursion."""
    key = (v.images, w.images)
    if key in _memo:
        return _memo[key]
    if v == w:
        result = [1]
    elif not _bruhat_leq_prefixes(v, w):
        result = []
    else:
        s = next(i for i in range(1, w.d) if w.right_descent(i))
        vs, ws = v.times_s(s), w.times_s(s)
        if v.right_descent(s):
            result = kl_r_polynomial(vs, ws)
        else:
            result = _padd(
                _pmul([-1, 1], kl_r_polynomial(v, ws)),
                _pmul([0, 1], kl_r_polynomial(vs, ws)),
            )
    _memo[key] = result
    return result


def _bruhat_leq_prefixes(v: Permutation, w: Permutation) -> bool:
    for i in range(1, v.d):
        vs = v.prefix_set(i)
        ws = w.prefix_set(i)
        if any(a > b for a, b in zip(vs, ws)):
            return False
    return True


def random_perm(rng: random.Random, d: int) -> Permutation:
    images = list(range(1, d + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def random_reduced_word(rng: random.Random, w: Permutation) -> tuple[int, ...]:
    """A uniformly shuffled descent-greedy reduced word for w."""
    letters: list[int] = []
    x = w
    while not x.is_identity():
        i = rng.choice([i for i in range(1, x.d) if x.right_descent(i)])
        letters.append(i)
        x = x.times_s(i)
    return tuple(reversed(letters))


def random_distinguished(rng: random.Random, d: int, word: tuple[int, ...]) -> SubexpressionTrace:
    """A random distinguished trace over the word: free choices at ascents."""
    values = [identity_perm(d)]
    marks: list[str] = []
    for i in word:
        cur = values[-1]
        nxt = cur.times_s(i)
        if nxt.length() < cur.length():
            values.append(nxt)
            marks.append(MARK_DOWN)
        elif rng.random() < 0.5:
            values.append(cur)
            marks.append(MARK_STAY)
        else:
            values.append(nxt)
            marks.append(MARK_UP)
    return SubexpressionTrace(word, tuple(values), tuple(marks))


def random_component_flag(rng: random.Random, d: int):
    """A random component of a random cell of S_d, and a flag inside it."""
    word = random_reduced_word(rng, random_perm(rng, d))
    desc = ComponentDescriptor(random_distinguished(rng, d, word))
    gw = build_element(
        desc,
        {k: random_nonzero(rng) for k in desc.stay_positions},
        {k: random_rational(rng) for k in desc.descent_positions},
    )
    return desc, unipotent_representative(evaluate(gw))[0]


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_nonzero(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n != 0])
    return Fraction(num, rng.randint(1, 9))


def random_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def random_unipotent(rng: random.Random, d: int) -> RatMatrix:
    rows = [
        [
            Fraction(1) if i == j else (random_rational(rng) if j > i else Fraction(0))
            for j in range(d)
        ]
        for i in range(d)
    ]
    return RatMatrix(rows)


def random_sparse_unipotent(rng: random.Random, d: int, zeros: float = 0.6) -> RatMatrix:
    """A random upper-unipotent matrix with about ``zeros`` of its upper entries 0."""
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() >= zeros:
                rows[i][j] = random_nonzero(rng)
    return RatMatrix(rows)


def random_matrix(rng: random.Random, d: int) -> RatMatrix:
    return RatMatrix(
        [[random_rational(rng) for _ in range(d)] for _ in range(d)]
    )
