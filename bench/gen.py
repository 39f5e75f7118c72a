"""Seeded, exact input generation for the benchmark, independent of `deodhar`.

Everything here works on plain tuples and `Fraction`s so that inputs, and
the expected answers that travel with them, do not depend on the code being
measured: two commits given the same seed get byte-identical inputs.

Conventions match the library's documentation: permutations are 1-based
one-line tuples, right multiplication by s_i swaps positions i and i+1, and
an element of a component is the product of one factor per trace step

    stay    ->  y_i(t)            col_i += t * col_{i+1}
    ascent  ->  lift of s_i       (col_i, col_{i+1}) -> (col_{i+1}, -col_i)
    descent ->  x_i(m) s_i^{-1}   c = col_{i+1} + m * col_i,
                                  (col_i, col_{i+1}) -> (-c, col_i)

applied as column operations.  Column reduction then gives the upper
unipotent z with z w B+ equal to the flag, which is what the library takes.
"""

from __future__ import annotations

import random
from fractions import Fraction

STAY, UP, DOWN = "o", "+", "-"


def identity(d: int) -> tuple[int, ...]:
    return tuple(range(1, d + 1))


def times_s(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def descent(p: tuple[int, ...], i: int) -> bool:
    return p[i - 1] > p[i]


def length(p: tuple[int, ...]) -> int:
    return sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])


def prefix_set(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    return tuple(sorted(p[:i]))


def word_product(d: int, word) -> tuple[int, ...]:
    p = identity(d)
    for i in word:
        p = times_s(p, i)
    return p


def random_reduced_word(rng: random.Random, w: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word for w, peeling off a random right descent each step."""
    letters = []
    x = w
    while length(x):
        i = rng.choice([i for i in range(1, len(x)) if descent(x, i)])
        letters.append(i)
        x = times_s(x, i)
    return tuple(reversed(letters))


def random_distinguished(rng: random.Random, d: int, word, p_stay: float):
    """Values and marks of a random distinguished trace of the word."""
    values = [identity(d)]
    marks = []
    for i in word:
        v = values[-1]
        if descent(v, i):
            marks.append(DOWN)
            values.append(times_s(v, i))
        elif rng.random() < p_stay:
            marks.append(STAY)
            values.append(v)
        else:
            marks.append(UP)
            values.append(times_s(v, i))
    return values, marks


def positive_trace(v: tuple[int, ...], word):
    """The distinguished trace ending at v with no descents (right-to-left greedy)."""
    values = [v]
    for i in reversed(word):
        cur = values[-1]
        values.append(times_s(cur, i) if descent(cur, i) else cur)
    values.reverse()
    if values[0] != identity(len(v)):
        raise ValueError("endpoint is not below the word's product")
    marks = [STAY if values[k + 1] == values[k] else UP for k in range(len(word))]
    return values, marks


def random_rational(rng: random.Random, positive: bool) -> Fraction:
    num = rng.randint(1, 9)
    if not positive and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 9))


def element_columns(d: int, word, marks, params) -> list[list[Fraction]]:
    """The product of the factors, as a list of columns, by column operations."""
    cols = [[Fraction(int(r == c)) for r in range(d)] for c in range(d)]
    for k, (i, mark) in enumerate(zip(word, marks), start=1):
        a, b = cols[i - 1], cols[i]
        if mark == STAY:
            t = params[k]
            cols[i - 1] = [x + t * y for x, y in zip(a, b)]
        elif mark == UP:
            cols[i - 1], cols[i] = b, [-x for x in a]
        else:
            m = params[k]
            c = [y + m * x for x, y in zip(a, b)]
            cols[i - 1], cols[i] = [-x for x in c], a
    return cols


def unipotent_from_columns(cols: list[list[Fraction]]):
    """Upper-unipotent z and w with z w B+ = g B+, by a bottom-pivot column sweep."""
    d = len(cols)
    m = [list(c) for c in cols]
    images = []
    for j in range(d):
        p = max(r for r in range(d) if m[j][r] != 0)
        images.append(p + 1)
        pivot = m[j][p]
        m[j] = [x / pivot for x in m[j]]
        for j2 in range(j + 1, d):
            f = m[j2][p]
            if f:
                m[j2] = [x - f * y for x, y in zip(m[j2], m[j])]
    z = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d):
        for r in range(d):
            z[r][images[j] - 1] = m[j][r]
    for r in range(d):
        if z[r][r] != 1 or any(z[r][c] for c in range(r)):
            raise ValueError("column reduction did not give an upper-unipotent matrix")
    return z, tuple(images)


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [list(r) for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def minor(z, rows, cols) -> Fraction:
    return det([[z[r - 1][c - 1] for c in cols] for r in rows])


def matrix_json(z) -> list[list[str]]:
    return [[str(x) for x in row] for row in z]


def component_flag(rng: random.Random, d: int, positive: bool) -> dict:
    """A flag in a random component of the cell of w0, with its parameters.

    ``positive`` picks the positive trace of a random endpoint and positive
    t parameters; otherwise the trace is a random distinguished one with at
    least one descent, and parameters of either sign.
    """
    w0 = tuple(range(d, 0, -1))
    word = random_reduced_word(rng, w0)
    if positive:
        v = list(identity(d))
        rng.shuffle(v)
        values, marks = positive_trace(tuple(v), word)
    else:
        while True:
            values, marks = random_distinguished(rng, d, word, p_stay=0.5)
            if DOWN in marks:
                break
    params = {}
    for k, mark in enumerate(marks, start=1):
        if mark == STAY:
            params[k] = random_rational(rng, positive)
        elif mark == DOWN:
            params[k] = random_rational(rng, False) if rng.random() < 0.9 else Fraction(0)
    z, w = unipotent_from_columns(element_columns(d, word, marks, params))
    if w != w0:
        raise ValueError("generated flag is not in the cell of w0")
    return {
        "d": d,
        "word": list(word),
        "matrix": matrix_json(z),
        "values": [list(v) for v in values],
        "marks": "".join(marks),
        "t": {str(k): str(x) for k, x in params.items() if marks[k - 1] == STAY},
        "m": {str(k): str(x) for k, x in params.items() if marks[k - 1] == DOWN},
        "z": z,
    }


def chamber_coordinates(flag: dict) -> dict:
    """Expected chamber coordinates: stay minors and descent probe minors of z."""
    z, word, values = flag["z"], flag["word"], [tuple(v) for v in flag["values"]]
    d = flag["d"]
    w = identity(d)
    out = {}
    for k, i in enumerate(word, start=1):
        w = times_s(w, i)
        mark = flag["marks"][k - 1]
        if mark == STAY:
            out[str(k)] = str(minor(z, prefix_set(values[k], i), prefix_set(w, i)))
        elif mark == DOWN:
            out[str(k)] = str(minor(z, prefix_set(values[k - 1], i), prefix_set(w, i)))
    return out


def bruhat_pair(rng: random.Random, d: int) -> dict:
    """A random w with a random reduced word, and v the product of a random subword."""
    w = list(identity(d))
    rng.shuffle(w)
    w = tuple(w)
    word = random_reduced_word(rng, w)
    v = identity(d)
    for i in word:
        if rng.random() < 0.5:
            v = times_s(v, i)
    return {"d": d, "v": list(v), "w": list(w), "word": list(word)}
