"""Totally nonnegative flags and their component criterion.

A flag in the cell of a reduced word is totally nonnegative exactly when it
lies in the component of the positive trace of its endpoint and the standard
chamber minors at the stay steps are all strictly positive.  That check
needs one inequality per stay step and nothing else; the ascent-step
equalities come along for free with the classification, and are reported in
the certificate.

Sampling the positive part of a component is direct: choose positive
parameters for the stay steps of the positive trace and multiply the
factors out.  Products of y factors can be rewritten by the rational braid
move y_i(a) y_j(b) y_i(c) = y_j(bc/(a+c)) y_i(a+c) y_j(ab/(a+c)) for
adjacent i, j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .components import (
    ComponentDescriptor,
    _by_step,
    _group_word,
    _positive_component,
    _sweep,
)
from .errors import DomainError, InputError
from .linalg import RatMatrix, rational_from_json, rational_to_json
from .pinning import GroupWord, group_word_to_json
from .subexpr import MARK_DOWN, MARK_UP
from .weyl import Permutation, _check_letters, _int_from_json

__all__ = [
    "PositiveSample",
    "MinorRecord",
    "TnnCertificate",
    "sample_positive",
    "random_positive_sample",
    "is_totally_nonnegative",
    "braid_move_y",
]


@dataclass(frozen=True)
class PositiveSample:
    """A point of the positive part of a component, with its parameters."""

    descriptor: ComponentDescriptor
    t_params: dict
    group_word: GroupWord

    def to_json(self) -> dict:
        return {
            "trace": self.descriptor.to_json(),
            "t": {str(k): rational_to_json(x) for k, x in self.t_params.items()},
            "group_word": group_word_to_json(self.group_word),
        }


def sample_positive(
    v: Permutation, word: Sequence[int], t_params: list | tuple | Mapping
) -> PositiveSample:
    """A point of the totally positive part over v inside the word's cell.

    The positive trace of v has one free parameter per stay step; they can
    be passed as a list or tuple in step order or as a mapping keyed by
    step, and must all be positive.  Keys are ints; values are ints,
    Fractions or "p/q" strings.
    """
    desc = _positive_component(v, word)
    stays = desc.stay_positions
    if isinstance(t_params, Mapping):
        params = _by_step(t_params, "t parameter", stays)
    elif isinstance(t_params, (list, tuple)):
        values = [rational_from_json(x) for x in t_params]
        if len(values) != len(stays):
            raise InputError(f"expected {len(stays)} parameters, got {len(values)}")
        params = dict(zip(stays, values))
    else:
        raise InputError(
            f"t parameters must be a list, a tuple or a mapping, got {t_params!r}"
        )
    for k, t in params.items():
        if t <= 0:
            raise DomainError(f"parameter at step {k} must be positive")
    return PositiveSample(desc, params, _group_word(desc, params))


def random_positive_sample(
    v: Permutation, word: Sequence[int], seed: int
) -> PositiveSample:
    """A reproducible positive sample, one small random parameter per stay."""
    word = _check_letters(v.d, word)
    rng = random.Random(_int_from_json(seed, "seed"))
    params = [
        Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(len(word) - v.length())
    ]
    return sample_positive(v, word, params)


@dataclass(frozen=True)
class MinorRecord:
    """One checked minor: its step, index sets, value, and required relation."""

    k: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: Fraction
    relation: str
    ok: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "rows": list(self.rows),
            "cols": list(self.cols),
            "value": rational_to_json(self.value),
            "relation": self.relation,
        }


@dataclass(frozen=True)
class TnnCertificate:
    """Outcome of the nonnegativity test with the minors that decided it."""

    nonnegative: bool
    endpoint: Permutation
    descriptor: ComponentDescriptor
    reason: str
    descent_steps: tuple[int, ...]
    equalities: tuple[MinorRecord, ...]
    inequalities: tuple[MinorRecord, ...]
    violated: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.nonnegative

    def to_json(self) -> dict:
        return {
            "totally_nonnegative": self.nonnegative,
            "v": list(self.endpoint.images),
            "reason": self.reason,
            "descent_steps": list(self.descent_steps),
            "equalities": [r.to_json() for r in self.equalities],
            "inequalities": [r.to_json() for r in self.inequalities],
            "violated": list(self.violated),
        }


def is_totally_nonnegative(z: RatMatrix, word: Sequence[int]) -> TnnCertificate:
    """Test whether the flag z w B+ is totally nonnegative.

    Classifies the flag, requires the trace to be the positive one for its
    endpoint, then checks strict positivity of the stay-step chamber
    minors.  Those values are the probes the classifying sweep already
    read off its running table, so the test evaluates no minor of its own.
    The certificate carries one equality record per ascent step and one
    inequality record per stay step, built in one pass over the trace;
    only those steps take their index sets.
    """
    desc, before, _ = _sweep(z, word)
    equalities: list[MinorRecord] = []
    inequalities: list[MinorRecord] = []
    descents: list[int] = []
    for k, mark in enumerate(desc.trace.marks, start=1):
        if mark == MARK_DOWN:
            descents.append(k)
            continue
        rows, cols = desc._step_minor(k)
        if mark == MARK_UP:
            equalities.append(MinorRecord(k, rows, cols, Fraction(0), "=", True))
        else:
            value = Fraction(*before[k - 1])
            inequalities.append(MinorRecord(k, rows, cols, value, ">", value > 0))
    violated = [r.k for r in inequalities if not r.ok]
    if descents:
        reason = (
            f"trace has length-decreasing steps at {descents}, "
            "so it is not the positive trace of its endpoint"
        )
    elif violated:
        reason = f"chamber minors at steps {violated} are not positive"
    else:
        reason = "flag lies in the totally nonnegative part"
    return TnnCertificate(
        not descents and not violated,
        desc.endpoint,
        desc,
        reason,
        tuple(descents),
        tuple(equalities),
        tuple(inequalities),
        tuple(violated),
    )


def braid_move_y(a, b, c) -> tuple[Fraction, Fraction, Fraction]:
    """Parameters (b', a', c') with y_i(a) y_j(b) y_i(c) = y_j(b') y_i(a') y_j(c').

    Valid for adjacent indices i, j; needs a + c nonzero.

    >>> braid_move_y(1, 1, 1)
    (Fraction(1, 2), Fraction(2, 1), Fraction(1, 2))
    """
    a, b, c = map(rational_from_json, (a, b, c))
    if a + c == 0:
        raise DomainError("braid move undefined: a + c = 0")
    return (b * c / (a + c), a + c, a * b / (a + c))
