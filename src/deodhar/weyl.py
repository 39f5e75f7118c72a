"""The symmetric group S_d as the Weyl group of SL_d, with its weight action.

Permutations are stored in 1-based one-line notation: ``images[j-1]`` is the
image of ``j``.  The simple transposition ``s_i`` (``1 <= i <= d-1``) swaps
``i`` and ``i+1``; right multiplication by ``s_i`` swaps the entries at
positions ``i``, ``i+1`` of the one-line notation, left multiplication swaps
the values ``i``, ``i+1``.  Words in the generators are tuples of indices in
``1..d-1``.

Weights of the diagonal torus are integer vectors of length ``d``.  The
fundamental weight ``omega_i`` is ``e_1 + ... + e_i``, permutations act by
``act(w, lam)[j] = lam[w^{-1}(j)]``, and pairing against the i-th simple
coroot takes ``lam[i] - lam[i+1]``.

A caller-supplied integer is read by ``_int_from_json``, a list or a tuple by
``_seq_from_json``, a degree by ``_degree`` from 1 to the degree limit, and an
index by ``_int_in_range``, the only range check.  ``Permutation``,
``SubexpressionTrace``, ``ComponentDescriptor``, ``GroupFactor``, ``GroupWord``,
``RPolynomial`` and ``RatMatrix`` check each value a caller builds in
``__post_init__``; ``_product`` and ``_built`` skip the check for values the
library builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InputError, check_limit

__all__ = [
    "Permutation",
    "Word",
    "Weight",
    "identity_perm",
    "simple_reflection",
    "longest_element",
    "bruhat_leq",
    "evaluate_word",
    "is_reduced",
    "check_reduced_word",
    "a_reduced_word",
    "reduced_words",
    "all_permutations",
    "fundamental_weight",
    "act",
    "pair",
]

Word = tuple[int, ...]
Weight = tuple[int, ...]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., d} in one-line notation.

    >>> w = Permutation((2, 3, 1))
    >>> w(1), w(3)
    (2, 1)
    >>> w.length()
    2
    >>> (w * w.inverse()).is_identity()
    True
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", _seq_from_json(self.images, "permutation images"))
        d = len(self.images)
        if d == 0:
            raise InputError("permutation must have degree at least 1")
        check_limit("degree", d)
        for x in self.images:
            _int_from_json(x, "permutation image")
        if sorted(self.images) != list(range(1, d + 1)):
            raise InputError(f"not a permutation of 1..{d}: {self.images!r}")

    @property
    def d(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[_int_in_range(j, 1, self.d, "index") - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (a*b)(j) = a(b(j))."""
        if self.d != other.d:
            raise InputError("degree mismatch in permutation product")
        return _product(tuple(self.images[k - 1] for k in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.d
        for j, im in enumerate(self.images, start=1):
            inv[im - 1] = j
        return _product(tuple(inv))

    def is_identity(self) -> bool:
        return all(im == j for j, im in enumerate(self.images, start=1))

    def length(self) -> int:
        """Coxeter length: the number of inversions.

        >>> Permutation((4, 3, 2, 1)).length()
        6
        """
        im = self.images
        return sum(
            1
            for a in range(self.d)
            for b in range(a + 1, self.d)
            if im[a] > im[b]
        )

    def right_descent(self, i: int) -> bool:
        """True when multiplying by s_i on the right shortens the element."""
        if not (type(i) is int and 0 < i < len(self.images)):
            i = _int_in_range(i, 1, self.d - 1, "reflection index")
        return self.images[i - 1] > self.images[i]

    def times_s(self, i: int) -> "Permutation":
        """Right multiplication by the simple transposition s_i."""
        if not (type(i) is int and 0 < i < len(self.images)):
            i = _int_in_range(i, 1, self.d - 1, "reflection index")
        im = list(self.images)
        im[i - 1], im[i] = im[i], im[i - 1]
        return _product(tuple(im))

    def prefix_set(self, i: int) -> tuple[int, ...]:
        """The sorted image of {1, ..., i}, the index set attached to w omega_i."""
        if not (type(i) is int and 0 <= i <= len(self.images)):
            i = _int_in_range(i, 0, self.d, "prefix size")
        return tuple(sorted(self.images[:i]))

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"


def _int_from_json(x, what: str) -> int:
    """Read an integer given by a caller or a JSON document.

    Accepts an `int` and returns it unchanged.  A bool (JSON true and false),
    a float, a string and any other type raise InputError naming ``what``.
    """
    if not isinstance(x, int) or isinstance(x, bool):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _seq_from_json(x, what: str) -> tuple:
    """Read a list or a tuple given by a caller or a JSON document, as a tuple.

    A set, a dict, a string, a range, a generator and any other type raise
    InputError naming ``what``: none is read in an order of its own.
    """
    if not isinstance(x, (list, tuple)):
        raise InputError(f"{what} must be a list or a tuple, got {x!r}")
    return tuple(x)


def _int_in_range(x, lo: int, hi: int, what: str) -> int:
    """Read an index by ``_int_from_json`` and check that lo <= x <= hi.

    The hot methods of a sweep and ``_check_letters`` test a valid index
    inline and call this only when that test fails.
    """
    x = _int_from_json(x, what)
    if not lo <= x <= hi:
        raise InputError(f"{what} {x} out of range {lo}..{hi}")
    return x


def _degree(d, what: str = "degree") -> int:
    """Read a caller's degree by ``_int_from_json``: at least 1, and at most the limit."""
    d = _int_from_json(d, what)
    if d < 1:
        raise InputError(f"{what} must be at least 1, got {d}")
    return check_limit("degree", d)


def _product(images: tuple[int, ...]) -> Permutation:
    """A permutation built from valid ones, without ``__post_init__``'s check."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def _built(cls, **fields):
    """A frozen dataclass from fields the library made valid, without ``__post_init__``."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def identity_perm(d: int) -> Permutation:
    return Permutation(tuple(range(1, _degree(d) + 1)))


def simple_reflection(d: int, i: int) -> Permutation:
    return identity_perm(d).times_s(i)


def longest_element(d: int) -> Permutation:
    return Permutation(tuple(range(_degree(d), 0, -1)))


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order via sorted-prefix dominance.

    ``v <= w`` holds exactly when, for every k, the increasing rearrangement
    of ``v(1..k)`` is entrywise at most that of ``w(1..k)``.

    >>> bruhat_leq(identity_perm(3), longest_element(3))
    True
    >>> bruhat_leq(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    False
    """
    if v.d != w.d:
        raise InputError("degree mismatch in Bruhat comparison")
    for k in range(1, v.d):
        for a, b in zip(sorted(v.images[:k]), sorted(w.images[:k])):
            if a > b:
                return False
    return True


def evaluate_word(d: int, word: Sequence[int]) -> Permutation:
    """The product s_{i_1} ... s_{i_n} of the letters of the word."""
    d = _degree(d)
    images = list(range(1, d + 1))
    for i in _check_letters(d, word):
        images[i - 1], images[i] = images[i], images[i - 1]
    return _product(tuple(images))


def is_reduced(d: int, word: Sequence[int]) -> bool:
    return evaluate_word(d, word).length() == len(word)


def _check_letters(d: int, word: Sequence[int]) -> Word:
    """The word as a tuple; InputError names a letter that is not an int in 1..d-1."""
    word = _seq_from_json(word, "word")
    for i in word:
        if not (type(i) is int and 0 < i < d):
            _int_in_range(i, 1, d - 1, "letter")
    return word


def check_reduced_word(
    d: int, word: Sequence[int]
) -> tuple[Word, tuple[Permutation, ...]]:
    """The word as a tuple and its prefix products; InputError if it is not reduced.

    Every letter is read before any product, so a bad letter is reported
    first.  Right multiplication by s_i changes the length by one, so the
    word is reduced exactly when each letter i is a right ascent of the
    product w of the letters before it, w(i) < w(i+1); one pass checks that
    and builds the prefixes.

    >>> check_reduced_word(3, [1, 2])
    ((1, 2), (Permutation((1, 2, 3)), Permutation((2, 1, 3)), Permutation((2, 3, 1))))
    """
    d = _degree(d)
    word = _check_letters(d, word)
    images = list(range(1, d + 1))
    prefixes = [_product(tuple(images))]
    for i in word:
        if images[i - 1] > images[i]:
            raise InputError(f"word {word!r} is not reduced")
        images[i - 1], images[i] = images[i], images[i - 1]
        prefixes.append(_product(tuple(images)))
    return word, tuple(prefixes)


def a_reduced_word(w: Permutation) -> Word:
    """A deterministic reduced word for w (smallest descent chosen first)."""
    letters: list[int] = []
    x = w
    while not x.is_identity():
        i = next(i for i in range(1, x.d) if x.right_descent(i))
        letters.append(i)
        x = x.times_s(i)
    return tuple(reversed(letters))


def reduced_words(w: Permutation) -> list[Word]:
    """All reduced words for w, in lexicographic order.

    Exhaustive enumeration, so the degree is guarded.

    >>> sorted(reduced_words(longest_element(3)))
    [(1, 2, 1), (2, 1, 2)]
    """
    check_limit("reduced words", w.d)

    def rec(x: Permutation) -> list[Word]:
        if x.is_identity():
            return [()]
        out: list[Word] = []
        for i in range(1, x.d):
            if x.right_descent(i):
                out.extend(u + (i,) for u in rec(x.times_s(i)))
        return out

    return sorted(rec(w))


def all_permutations(d: int) -> Iterator[Permutation]:
    for im in itertools.permutations(range(1, _degree(d) + 1)):
        yield Permutation(im)


def fundamental_weight(d: int, i: int) -> Weight:
    """e_1 + ... + e_i as a coordinate vector.  i = 0 gives the zero weight."""
    d = _degree(d)
    i = _int_in_range(i, 0, d, "fundamental weight index")
    return tuple(1 if j < i else 0 for j in range(d))


def _check_weight(lam: Sequence[int]) -> Weight:
    return tuple(_int_from_json(x, "weight entry") for x in _seq_from_json(lam, "weight"))


def act(w: Permutation, lam: Sequence[int]) -> Weight:
    """The Weyl action on weights: coordinates are pulled back along w^{-1}.

    >>> act(Permutation((1, 2, 4, 3)), fundamental_weight(4, 3))
    (1, 1, 0, 1)
    """
    lam = _check_weight(lam)
    if len(lam) != w.d:
        raise InputError("weight length does not match permutation degree")
    inv = w.inverse()
    return tuple(lam[inv(j) - 1] for j in range(1, w.d + 1))


def pair(lam: Sequence[int], i: int) -> int:
    """Pair a weight against the i-th simple coroot: lam[i] - lam[i+1]."""
    lam = _check_weight(lam)
    i = _int_in_range(i, 1, len(lam) - 1, "coroot index")
    return lam[i - 1] - lam[i]
