"""Deodhar components of a flag variety cell and the Chamber Ansatz.

Fix a reduced word for w and an upper-unipotent z, so that z w B+ is a flag
in the Bruhat cell of w.  Sweeping the word letter by letter classifies the
flag into the component of a unique distinguished trace: at a free step the
minor of z on rows v_(k-1){1..i_k} and columns w_(k){1..i_k} decides whether
the trace keeps its value (nonzero minor) or moves up (zero minor), while a
forced descent consumes a letter without probing.

Each component is cut out by explicit minor equations: the probe minors
vanish at the ascent steps and the standard chamber minors are nonzero at
the stay steps.  An element of the component factors as a product with one
factor per step,

    stay k    ->  y_{i_k}(t_k),        t_k nonzero,
    ascent k  ->  the lift of s_{i_k},
    descent k ->  x_{i_k}(m_k) times the inverse lift of s_{i_k},

and the parameters are recovered from z by ratios of generalized minors.
The t parameters come from the four chamber minors around the crossing; the
m parameters need one extra correction term evaluated on the partial
product built so far, which has no closed form in terms of z alone.

The stay minors together with the descent probe minors form a coordinate
system on the component; both directions of that correspondence are
implemented.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import DomainError, InputError, InternalCheckError, NotInComponentError, check_limit
from .linalg import RatMatrix, _check_index_set, rational_from_json, rational_to_json
from .pinning import (
    FACTOR_S,
    FACTOR_XSINV,
    FACTOR_Y,
    GroupFactor,
    GroupWord,
    _Columns,
    gmin,
    group_word_to_json,
)
from .subexpr import (
    MARK_DOWN,
    MARK_STAY,
    MARK_UP,
    SubexpressionTrace,
    _positive_walk,
    _step,
    is_distinguished,
    trace_from_json,
    trace_to_json,
)
from .weyl import (
    Permutation,
    Word,
    _built,
    _int_from_json,
    check_reduced_word,
    simple_reflection,
)

__all__ = [
    "ComponentDescriptor",
    "ClassifyStep",
    "ComponentConditions",
    "FactorizationResult",
    "classify",
    "classify_steps",
    "component_conditions",
    "minor_polynomial",
    "build_element",
    "chamber_t",
    "chamber_m",
    "factorize",
    "chamber_coordinates",
    "element_from_coordinates",
]


@dataclass(frozen=True)
class ComponentDescriptor:
    """A Deodhar component, named by a distinguished trace of a reduced word.

    ``prefix_perms`` holds the word's prefix products w_(0), ..., w_(n).
    """

    trace: SubexpressionTrace
    prefix_perms: tuple[Permutation, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_distinguished(self.trace):
            raise InputError("component descriptor needs a distinguished trace")
        _, prefixes = check_reduced_word(self.d, self.word)
        object.__setattr__(self, "prefix_perms", prefixes)

    @property
    def word(self) -> Word:
        return self.trace.word

    @property
    def d(self) -> int:
        return self.trace.d

    @property
    def endpoint(self) -> Permutation:
        return self.trace.endpoint

    @functools.cached_property
    def step_minors(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """(rows, cols) of the minor Delta_{v_(k-1) omega_i, w_(k) omega_i}, i = i_k.

        Entry k-1 belongs to step k: it is the vanishing probe minor at an
        ascent, the standard chamber minor at a stay (where v_(k-1) = v_(k)),
        and the chamber coordinate at a descent.
        """
        values = self.trace.values
        w = self.prefix_perms
        return tuple(
            (values[k - 1].prefix_set(i), w[k].prefix_set(i))
            for k, i in enumerate(self.word, start=1)
        )

    @property
    def stay_positions(self) -> tuple[int, ...]:
        return self.trace.positions(MARK_STAY)

    @property
    def ascent_positions(self) -> tuple[int, ...]:
        return self.trace.positions(MARK_UP)

    @property
    def descent_positions(self) -> tuple[int, ...]:
        return self.trace.positions(MARK_DOWN)

    def to_json(self) -> dict:
        return trace_to_json(self.trace)

    @staticmethod
    def from_json(data: dict) -> "ComponentDescriptor":
        return ComponentDescriptor(trace_from_json(data))


def _positive_component(v: Permutation, word: Sequence[int]) -> ComponentDescriptor:
    """The component of the positive trace of v, from the word checked once."""
    trace, w = _positive_walk(v, word)
    return _built(ComponentDescriptor, trace=trace, prefix_perms=w)


@dataclass(frozen=True)
class ClassifyStep:
    """One step of the classifying sweep.

    ``case`` is "stay", "ascend", or "forced"; the probe minor and its index
    sets are absent on forced steps.
    """

    k: int
    letter: int
    case: str
    rows: tuple[int, ...] | None
    cols: tuple[int, ...] | None
    probe: Fraction | None
    value_after: Permutation


def _check_unipotent(z: RatMatrix) -> None:
    if not z.is_upper_unipotent():
        raise InputError("flag representative must be upper unipotent")


def _sweep(z: RatMatrix, word: Sequence[int]) -> tuple[ComponentDescriptor, dict]:
    """The classifying sweep: the component, and the probe of each free step.

    A free step's probe is the minor of ``desc.step_minors[k-1]``: the
    standard chamber minor at a stay, a vanishing minor at an ascent.  The
    sweep hands the descriptor those index sets for every step.  A right
    descent always moves, so the trace is distinguished and, like the
    descriptor, is built from the word checked here without ``__post_init__``.
    """
    _check_unipotent(z)
    word, w = check_reduced_word(z.d, word)
    v = w[0]
    values = [v]
    marks: list[str] = []
    minors = []
    probes: dict[int, Fraction] = {}
    for k, i in enumerate(word, start=1):
        minors.append((v.prefix_set(i), w[k].prefix_set(i)))
        if not v.right_descent(i):
            probes[k] = z.minor(*minors[-1])
        mark, v = _step(v, i, k not in probes or probes[k] == 0)
        marks.append(mark)
        values.append(v)
    trace = _built(SubexpressionTrace, word=word, values=tuple(values), marks=tuple(marks))
    desc = _built(ComponentDescriptor, trace=trace, prefix_perms=w, step_minors=tuple(minors))
    return desc, probes


_MARK_CASE = {MARK_STAY: "stay", MARK_UP: "ascend", MARK_DOWN: "forced"}


def classify_steps(z: RatMatrix, word: Sequence[int]) -> list[ClassifyStep]:
    """The classifying sweep step by step, read off its component and probes."""
    desc, probes = _sweep(z, word)
    steps: list[ClassifyStep] = []
    for k, i in enumerate(desc.word, start=1):
        rows, cols = desc.step_minors[k - 1] if k in probes else (None, None)
        case = _MARK_CASE[desc.trace.marks[k - 1]]
        steps.append(
            ClassifyStep(k, i, case, rows, cols, probes.get(k), desc.trace.values[k])
        )
    return steps


def classify(z: RatMatrix, word: Sequence[int]) -> ComponentDescriptor:
    """The Deodhar component of the flag z w B+ inside the cell of the word."""
    return _sweep(z, word)[0]


@dataclass(frozen=True)
class ComponentConditions:
    """Minor equations cutting out a component inside its Bruhat cell.

    ``zero_minors`` must vanish (one per ascent step), ``nonzero_minors``
    must not (one per stay step).  Each record is (k, rows, cols).
    """

    zero_minors: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    nonzero_minors: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]

    def to_json(self, d: int) -> dict:
        def fmt(items):
            out = []
            for k, rows, cols in items:
                rec = {"k": k, "rows": list(rows), "cols": list(cols)}
                with contextlib.suppress(DomainError):
                    rec["poly"] = minor_polynomial(rows, cols, d)
                out.append(rec)
            return out

        return {"zero": fmt(self.zero_minors), "nonzero": fmt(self.nonzero_minors)}


def component_conditions(desc: ComponentDescriptor) -> ComponentConditions:
    def records(positions: tuple[int, ...]):
        return tuple((k, *desc.step_minors[k - 1]) for k in positions)

    return ComponentConditions(
        records(desc.ascent_positions), records(desc.stay_positions)
    )


def minor_polynomial(rows: Sequence[int], cols: Sequence[int], d: int) -> str:
    """The minor of a generic upper-unipotent matrix, expanded as a string.

    Entries above the diagonal are symbols ``a{i}{j}``; the expansion limits
    keep the permanent-style expansion small.
    """
    d = _int_from_json(d, "degree")
    rows, cols = _check_index_set(rows, d), _check_index_set(cols, d)
    if len(rows) != len(cols):
        raise InputError("minor needs equally many rows and columns")
    check_limit("expansion size", len(rows))
    check_limit("expansion degree", d)
    n = len(rows)
    terms: dict[tuple[str, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        names: list[str] = []
        dead = False
        for a in range(n):
            r, c = rows[a], cols[perm[a]]
            if r == c:
                continue
            if r > c:
                dead = True
                break
            names.append(f"a{r}{c}")
        if dead:
            continue
        key = tuple(sorted(names))
        terms[key] = terms.get(key, 0) + sign
    terms = {k: c for k, c in terms.items() if c != 0}
    if not terms:
        return "0"
    parts: list[str] = []
    for key in sorted(terms, key=lambda k: (len(k), k)):
        c = terms[key]
        body = "*".join(key) if key else "1"
        mag = abs(c)
        if mag != 1 or not key:
            body = f"{mag}*{body}" if key else str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def _by_step(params: Mapping[int, object], what: str) -> dict[int, Fraction]:
    """Parameters keyed by integer steps, each value read as a JSON rational."""
    if not isinstance(params, Mapping):
        raise InputError(f"{what}s must be a mapping keyed by step")
    return {
        _int_from_json(k, f"{what} key"): rational_from_json(x)
        for k, x in params.items()
    }


def build_element(
    desc: ComponentDescriptor,
    t_params: Mapping[int, object],
    m_params: Mapping[int, object],
) -> GroupWord:
    """The group word of a component element with the given parameters.

    ``t_params`` is keyed by the stay positions and must be nonzero,
    ``m_params`` by the descent positions; ascent steps take no parameter.
    Keys are ints; values are ints, Fractions or "p/q" strings.
    """
    t_params = _by_step(t_params, "t parameter")
    m_params = _by_step(m_params, "m parameter")
    tr = desc.trace
    stays = set(desc.stay_positions)
    downs = set(desc.descent_positions)
    if set(t_params) != stays:
        raise InputError(f"t parameters must be keyed by {sorted(stays)}")
    if set(m_params) != downs:
        raise InputError(f"m parameters must be keyed by {sorted(downs)}")
    factors: list[GroupFactor] = []
    for k, i in enumerate(tr.word, start=1):
        mark = tr.marks[k - 1]
        if mark == MARK_STAY:
            t = t_params[k]
            if t == 0:
                raise DomainError(f"t parameter at step {k} must be nonzero")
            factors.append(GroupFactor(FACTOR_Y, i, t))
        elif mark == MARK_UP:
            factors.append(GroupFactor(FACTOR_S, i))
        else:
            factors.append(GroupFactor(FACTOR_XSINV, i, m_params[k]))
    return GroupWord(desc.d, tuple(factors))


def _stay_minor_product(
    z: RatMatrix, v_k: Permutation, w_k: Permutation, i: int
) -> Fraction:
    """Product of the neighboring standard chamber minors at step k.

    These are the minors whose exponent in the parameter formulas is the
    negated off-diagonal Cartan entry, so only the indices adjacent to i
    contribute.
    """
    out = Fraction(1)
    for j in (i - 1, i + 1):
        if not 1 <= j <= z.d - 1:
            continue
        factor = gmin(z, v_k, w_k, j)
        if factor == 0:
            raise NotInComponentError(
                f"standard chamber minor with weight index {j} vanishes"
            )
        out *= factor
    return out


def chamber_t(z: RatMatrix, desc: ComponentDescriptor, k: int) -> Fraction:
    """The y parameter at stay step k, as a ratio of chamber minors of z."""
    tr = desc.trace
    if not 1 <= k <= len(tr.word) or tr.marks[k - 1] != MARK_STAY:
        raise InputError(f"step {k} is not a stay step of the trace")
    i = tr.word[k - 1]
    w = desc.prefix_perms
    num = _stay_minor_product(z, tr.values[k], w[k], i)
    den1 = gmin(z, tr.values[k], w[k], i)
    den2 = gmin(z, tr.values[k - 1], w[k - 1], i)
    if den1 == 0 or den2 == 0:
        raise NotInComponentError("standard chamber minor vanishes")
    return num / (den1 * den2)


def chamber_m(
    z: RatMatrix, desc: ComponentDescriptor, k: int, g_prefix: RatMatrix
) -> Fraction:
    """The x parameter at descent step k.

    ``g_prefix`` must be the product of the first k-1 factors of the
    element being rebuilt; the correction term is a minor of it against the
    columns of the bare reflection.
    """
    tr = desc.trace
    if not 1 <= k <= len(tr.word) or tr.marks[k - 1] != MARK_DOWN:
        raise InputError(f"step {k} is not a descent step of the trace")
    i = tr.word[k - 1]
    w = desc.prefix_perms
    prev_std = gmin(z, tr.values[k - 1], w[k - 1], i)
    if prev_std == 0:
        raise NotInComponentError("standard chamber minor vanishes")
    num = gmin(z, tr.values[k - 1], w[k], i) * prev_std
    den = _stay_minor_product(z, tr.values[k], w[k], i)
    correction = gmin(g_prefix, tr.values[k - 1], simple_reflection(z.d, i), i)
    return num / den - correction


@dataclass(frozen=True)
class FactorizationResult:
    """Parameters of a component element, with the verified group word."""

    descriptor: ComponentDescriptor
    t_params: dict
    m_params: dict
    corrections: dict
    group_word: GroupWord

    def to_json(self) -> dict:
        return {
            "trace": self.descriptor.to_json(),
            "t": {str(k): rational_to_json(x) for k, x in self.t_params.items()},
            "m": {str(k): rational_to_json(x) for k, x in self.m_params.items()},
            "group_word": group_word_to_json(self.group_word),
            "verified": True,
        }


def _solve(
    desc: ComponentDescriptor,
    coords: Mapping[int, Fraction],
    chamber: Callable[[int, int, _Columns], Fraction],
) -> tuple[FactorizationResult, _Columns]:
    """The Chamber Ansatz walk from chamber coordinates to the parameters.

    ``row[j]`` is the standard chamber minor at level j; it changes only at
    steps with letter j.  Step k with letter i and coordinate c_k reads
    t_k = row[i-1] row[i+1] / (row[i] c_k) at a stay and m_k = row[i] c_k /
    (row[i-1] row[i+1]) - correction at a descent, then sets row[i] to c_k
    at a stay and to ``chamber(k, i, g)`` otherwise, g the product so far
    in the integer columns of ``pinning._Columns``.
    """
    tr = desc.trace
    d = desc.d
    row = [Fraction(1)] * (d + 1)
    g = _Columns(d)
    t_params: dict[int, Fraction] = {}
    m_params: dict[int, Fraction] = {}
    corrections: dict[int, Fraction] = {}
    factors: list[GroupFactor] = []
    for k, i in enumerate(tr.word, start=1):
        mark = tr.marks[k - 1]
        if mark == MARK_STAY:
            t = row[i - 1] * row[i + 1] / (row[i] * coords[k])
            t_params[k] = t
            factors.append(GroupFactor(FACTOR_Y, i, t))
        elif mark == MARK_UP:
            factors.append(GroupFactor(FACTOR_S, i))
        else:
            correction = g.minor(
                tr.values[k - 1].prefix_set(i), simple_reflection(d, i).prefix_set(i)
            )
            m = row[i] * coords[k] / (row[i - 1] * row[i + 1]) - correction
            m_params[k] = m
            corrections[k] = correction
            factors.append(GroupFactor(FACTOR_XSINV, i, m))
        g.apply(factors[-1])
        row[i] = coords[k] if mark == MARK_STAY else chamber(k, i, g)
    gw = GroupWord(d, tuple(factors))
    return FactorizationResult(desc, t_params, m_params, corrections, gw), g


def factorize(z: RatMatrix, word: Sequence[int]) -> FactorizationResult:
    """Recover the factor parameters of the flag z w B+ from minors of z.

    Runs the Chamber Ansatz walk on the chamber coordinates of z, with every
    chamber minor taken from z: the stay coordinates are the probes of the
    classifying sweep, so only the descent coordinates are evaluated anew.
    Each m_k must equal -c_k / Delta_{v_(k) omega_i, w_(k) omega_i}(z) minus
    its correction, and the rebuilt element g must span the flag: with
    X = z^{-1} g, found by back substitution on the integer columns of g,
    w^{-1} X must be upper triangular with a nonzero diagonal.  A failed
    check raises, it is never a value.
    """
    desc, coords = _sweep(z, word)
    w = desc.prefix_perms
    standard: dict[int, Fraction] = {}

    def chamber(k: int, i: int, g: _Columns) -> Fraction:
        standard[k] = gmin(z, desc.trace.values[k], w[k], i)
        if standard[k] == 0:
            raise NotInComponentError("standard chamber minor vanishes")
        return standard[k]

    for k in desc.descent_positions:
        coords[k] = z.minor(*desc.step_minors[k - 1])
    result, g = _solve(desc, coords, chamber)
    for k, m in result.m_params.items():
        alt = -coords[k] / standard[k] - result.corrections[k]
        if m != alt:
            raise InternalCheckError(
                f"descent parameter mismatch at step {k}: {m} vs {alt}"
            )
    if not g.spans(z, w[-1]):
        raise InternalCheckError("rebuilt element does not match the input flag")
    return result


def chamber_coordinates(z: RatMatrix, desc: ComponentDescriptor) -> dict:
    """The coordinate system of the component, evaluated at z.

    Stay steps contribute their standard chamber minor, descent steps their
    probe minor; together these determine the element.
    """
    if z.d != desc.d:
        raise InputError("degree mismatch in generalized minor")
    out: dict[int, Fraction] = {}
    for k, mark in enumerate(desc.trace.marks, start=1):
        if mark == MARK_UP:
            continue
        out[k] = z.minor(*desc.step_minors[k - 1])
        if mark == MARK_STAY and out[k] == 0:
            raise NotInComponentError("standard chamber minor vanishes")
    return out


def element_from_coordinates(
    desc: ComponentDescriptor, coords: Mapping[int, object]
) -> FactorizationResult:
    """The component element whose chamber coordinates are prescribed.

    Runs the Chamber Ansatz walk with no flag at hand: after step k the
    chamber minor at level i is read off the partial product g_k as
    1 / Delta_{w_(k) omega_i, omega_i}(g_k), the reciprocal of the standard
    chamber minor of the element being built.  Keys are ints; values are
    ints, Fractions or "p/q" strings.
    """
    coords = _by_step(coords, "coordinate")
    expected = set(desc.stay_positions) | set(desc.descent_positions)
    if set(coords) != expected:
        raise InputError(f"coordinates must be keyed by {sorted(expected)}")
    for k in desc.stay_positions:
        if coords[k] == 0:
            raise DomainError(f"stay coordinate at step {k} must be nonzero")
    w = desc.prefix_perms

    def chamber(k: int, i: int, g: _Columns) -> Fraction:
        minor = g.minor(w[k].prefix_set(i), w[0].prefix_set(i))
        if minor == 0:
            raise InternalCheckError("partial-product minor vanished")
        return 1 / minor

    return _solve(desc, coords, chamber)[0]
