"""Deodhar components of a flag variety cell and the Chamber Ansatz.

Fix a reduced word for w and an upper-unipotent z, so that z w B+ is a flag
in the Bruhat cell of w.  Sweeping the word letter by letter classifies the
flag into the component of a unique distinguished trace: at a free step the
minor of z on rows v_(k-1){1..i_k} and columns w_(k){1..i_k} decides whether
the trace keeps its value (nonzero minor) or moves up (zero minor), while a
forced descent consumes a letter without probing.  The sweep reads that
minor off a running fraction-free elimination table of the matrix
M = v̄_(k-1)⁻¹ z w̄_(k-1) (``linalg._ChamberTable``), whose leading
principal minors are the standard chamber minors; each letter moves one
pair of adjacent rows or columns of M and rewrites O(d) entries, so no
minor of z is evaluated on its own.

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
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import DomainError, InputError, InternalCheckError, NotInComponentError, check_limit
from .linalg import (
    RatMatrix,
    _ChamberTable,
    _check_index_set,
    rational_from_json,
    rational_to_json,
)
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
        if not isinstance(self.trace, SubexpressionTrace):
            raise InputError(f"component descriptor needs a SubexpressionTrace, got {self.trace!r}")
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
        return tuple(self._step_minor(k) for k in range(1, len(self.word) + 1))

    def _step_minor(self, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Entry k-1 of ``step_minors``, built without the others."""
        i = self.word[k - 1]
        return self.trace.values[k - 1].prefix_set(i), self.prefix_perms[k].prefix_set(i)

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


def _check_matrix(z: RatMatrix) -> None:
    if not isinstance(z, RatMatrix):
        raise InputError(f"flag representative must be a RatMatrix, got {type(z).__name__}")


def _check_unipotent(z: RatMatrix) -> None:
    _check_matrix(z)
    if not z.is_upper_unipotent():
        raise InputError("flag representative must be upper unipotent")


def _check_descriptor(desc: ComponentDescriptor, what: str) -> None:
    if not isinstance(desc, ComponentDescriptor):
        raise InputError(f"{what} needs a ComponentDescriptor, got {type(desc).__name__}")


def _check_flag_and_component(z: RatMatrix, desc: ComponentDescriptor, what: str) -> None:
    """Check z, then desc, then that their degrees agree."""
    _check_matrix(z)
    _check_descriptor(desc, what)
    if z.d != desc.d:
        raise InputError("degree mismatch in generalized minor")


_MARK_TURN = {MARK_STAY: 0, MARK_UP: 1, MARK_DOWN: -1}


_Sweep = tuple[ComponentDescriptor, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

# The last completed sweep, (z, checked word, (desc, before, after)): one
# slot, replaced whole, so a thread reads one sweep or another, never a mix.
_last_sweep: tuple = (None, (), None)


def _sweep(z: RatMatrix, word: Sequence[int]) -> _Sweep:
    """The classifying sweep of a caller's z and word, each checked, z first."""
    _check_unipotent(z)
    return _sweep_checked(z, *check_reduced_word(z.d, word))


def _sweep_checked(z: RatMatrix, word: Word, w: tuple[Permutation, ...]) -> _Sweep:
    """The component of a checked z along a checked word, and what its table read.

    ``w`` holds the word's prefix products.  Step k with letter i reads
    ``before[k-1]``, entry (i, i+1) of the running table of
    v̄_(k-1)⁻¹ z w̄_(k-1): the minor of ``desc.step_minors[k-1]``, which is
    the probe of a free step and the chamber coordinate of a descent.
    After the step it reads ``after[k-1]``, the standard chamber minor at
    level i.  Each is an integer numerator with its positive denominator.
    A right descent always moves, so the trace is distinguished and, like
    the descriptor, is built from the word without ``__post_init__``.

    A one-slot memo, the last completed sweep keyed by z itself and the
    word, letter by letter by identity, returns a second sweep of the same
    z along the same word without building a table.  That is exact because
    a `RatMatrix` is frozen, as its cached ``_cleared`` already assumes,
    and the slot holds tuples and frozen records only.  An int subclass
    that only equals a letter misses, since the stored descriptor holds
    the word it was built from.
    """
    global _last_sweep
    last_z, last_word, result = _last_sweep
    if last_z is z and len(last_word) == len(word) and all(map(operator.is_, last_word, word)):
        return result
    table = _ChamberTable(z)
    v = w[0]
    values = [v]
    marks: list[str] = []
    before: list[tuple[int, int]] = []
    after: list[tuple[int, int]] = []
    for i in word:
        before.append(table.bordered(i))
        mark, v = _step(v, i, v.right_descent(i) or not before[-1][0])
        table.step(i, _MARK_TURN[mark])
        after.append(table.leading(i))
        marks.append(mark)
        values.append(v)
    trace = _built(SubexpressionTrace, word=word, values=tuple(values), marks=tuple(marks))
    desc = _built(ComponentDescriptor, trace=trace, prefix_perms=w)
    result = desc, tuple(before), tuple(after)
    _last_sweep = z, word, result
    return result


_MARK_CASE = {MARK_STAY: "stay", MARK_UP: "ascend", MARK_DOWN: "forced"}


def classify_steps(z: RatMatrix, word: Sequence[int]) -> list[ClassifyStep]:
    """The classifying sweep step by step, read off its component and probes."""
    desc, before, _ = _sweep(z, word)
    steps: list[ClassifyStep] = []
    for k, i in enumerate(desc.word, start=1):
        case = _MARK_CASE[desc.trace.marks[k - 1]]
        rows, cols, probe = None, None, None
        if case != "forced":
            rows, cols = desc._step_minor(k)
            probe = Fraction(*before[k - 1])
        steps.append(ClassifyStep(k, i, case, rows, cols, probe, desc.trace.values[k]))
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
    _check_descriptor(desc, "component_conditions")

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


def _by_step(params: Mapping, what: str, steps: Sequence[int]) -> dict[int, Fraction]:
    """Parameters keyed by exactly the given steps, each value read as a JSON rational."""
    if not isinstance(params, Mapping):
        raise InputError(f"{what}s must be a mapping keyed by step")
    out = {_int_from_json(k, f"{what} key"): rational_from_json(x) for k, x in params.items()}
    if set(out) != set(steps):
        raise InputError(f"{what}s must be keyed by {sorted(steps)}")
    return out


_MARK_FACTOR = {MARK_STAY: FACTOR_Y, MARK_UP: FACTOR_S, MARK_DOWN: FACTOR_XSINV}


def _group_word(desc: ComponentDescriptor, params: Mapping[int, Fraction]) -> GroupWord:
    """The component's word: step k gives ``_MARK_FACTOR[mark]`` with ``params.get(k)``.

    The word is checked and the caller read each parameter, so no factor or
    word runs ``__post_init__``.
    """
    factors = tuple(
        _built(GroupFactor, kind=_MARK_FACTOR[mark], index=i, param=params.get(k))
        for k, (i, mark) in enumerate(zip(desc.word, desc.trace.marks), start=1)
    )
    return _built(GroupWord, d=desc.d, factors=factors)


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
    _check_descriptor(desc, "build_element")
    t_params = _by_step(t_params, "t parameter", desc.stay_positions)
    m_params = _by_step(m_params, "m parameter", desc.descent_positions)
    for k in desc.stay_positions:
        if t_params[k] == 0:
            raise DomainError(f"t parameter at step {k} must be nonzero")
    return _group_word(desc, {**t_params, **m_params})


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
    correction = gmin(g_prefix, tr.values[k - 1], w[0].times_s(i), i)
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
    coords: Mapping[int, tuple[int, int]],
    chamber: Callable[[int, int, _Columns], tuple[int, int]],
) -> tuple[FactorizationResult, _Columns]:
    """The Chamber Ansatz walk from chamber coordinates to the parameters.

    Every chamber minor of the walk is an integer pair (n, s) for n / s,
    s nonzero and not reduced: ``coords[k]`` is the coordinate c_k of a
    stay or descent step k, and ``row[j]`` the standard chamber minor at
    level j, which changes only at steps with letter j.  Step k with letter
    i reads t_k = row[i-1] row[i+1] / (row[i] c_k) at a stay and m_k =
    row[i] c_k / (row[i-1] row[i+1]) - correction at a descent, each as one
    `Fraction` of products of the pairs' integers, then sets row[i] to c_k
    at a stay and to ``chamber(k, i, g)`` otherwise, g the product so far
    in the integer columns of ``pinning._Columns``.
    """
    tr = desc.trace
    row = [(1, 1)] * (desc.d + 1)
    g = _Columns(desc.d)
    t_params: dict[int, Fraction] = {}
    m_params: dict[int, Fraction] = {}
    corrections: dict[int, Fraction] = {}
    factors = []
    for k, (i, mark) in enumerate(zip(tr.word, tr.marks), start=1):
        param = None
        if mark != MARK_UP:
            (a, s_a), (x, s_x), (b, s_b), (c, s_c) = row[i - 1], row[i], row[i + 1], coords[k]
        if mark == MARK_STAY:
            param = t_params[k] = Fraction(a * b * s_c * s_x, s_a * s_b * c * x)
        elif mark == MARK_DOWN:
            cols = desc.prefix_perms[0].times_s(i).prefix_set(i)
            corrections[k] = g.minor(tr.values[k - 1].prefix_set(i), cols)
            param = m_params[k] = Fraction(x * c * s_a * s_b, s_x * s_c * a * b) - corrections[k]
        factors.append(_built(GroupFactor, kind=_MARK_FACTOR[mark], index=i, param=param))
        g.apply(factors[-1])
        row[i] = coords[k] if mark == MARK_STAY else chamber(k, i, g)
    gw = _built(GroupWord, d=desc.d, factors=tuple(factors))
    return FactorizationResult(desc, t_params, m_params, corrections, gw), g


def factorize(z: RatMatrix, word: Sequence[int]) -> FactorizationResult:
    """Recover the factor parameters of the flag z w B+ from minors of z.

    Runs the Chamber Ansatz walk on the chamber coordinates of z, with every
    chamber minor read off the running table of the classifying sweep as
    its integer pair: the stay coordinates are its probes, the descent
    coordinates its entries (i, i+1) before each forced step, and the
    chamber minor at level i after each ascent and descent its leading
    minors.  Each m_k must equal -c_k / Delta_{v_(k) omega_i, w_(k) omega_i}(z)
    minus its correction, and the rebuilt element g must span the flag:
    with X = z^{-1} g, found by back substitution on the integer columns of
    g, w^{-1} X must be upper triangular with a nonzero diagonal.  A failed
    check raises, it is never a value.
    """
    desc, before, after = _sweep(z, word)
    coords = {k: before[k - 1] for k in desc.stay_positions + desc.descent_positions}

    def chamber(k: int, i: int, g: _Columns) -> tuple[int, int]:
        if not after[k - 1][0]:
            raise NotInComponentError("standard chamber minor vanishes")
        return after[k - 1]

    result, g = _solve(desc, coords, chamber)
    for k, m in result.m_params.items():
        (c, s_c), (x, s_x) = coords[k], after[k - 1]
        alt = Fraction(-c * s_x, s_c * x) - result.corrections[k]
        if m != alt:
            raise InternalCheckError(
                f"descent parameter mismatch at step {k}: {m} vs {alt}"
            )
    if not g.spans(z, desc.prefix_perms[-1]):
        raise InternalCheckError("rebuilt element does not match the input flag")
    return result


def chamber_coordinates(z: RatMatrix, desc: ComponentDescriptor) -> dict:
    """The coordinate system of the component, evaluated at z.

    Stay steps contribute their standard chamber minor, descent steps their
    probe minor; together these determine the element.  They are the
    values z's own sweep along desc's word reads before each step, and the
    descriptor holds that word checked, so no word is checked here.  Up to
    the first step where z's trace parts from desc's, the two traces have
    equal values, so a step forced for one is forced for the other: they
    part at a stay or an ascent of desc, and a z outside the component
    raises NotInComponentError there, a stay whose chamber minor vanishes
    or an ascent whose probe does not.
    """
    _check_flag_and_component(z, desc, "chamber_coordinates")
    _check_unipotent(z)
    swept, before, _ = _sweep_checked(z, desc.word, desc.prefix_perms)
    marks = desc.trace.marks
    for k, (mark, own) in enumerate(zip(marks, swept.trace.marks), start=1):
        if mark == own:
            continue
        if mark == MARK_STAY:
            raise NotInComponentError("standard chamber minor vanishes")
        raise NotInComponentError(f"probe minor at ascent step {k} does not vanish")
    return {k: Fraction(*before[k - 1]) for k, mark in enumerate(marks, start=1) if mark != MARK_UP}


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
    _check_descriptor(desc, "element_from_coordinates")
    coords = _by_step(coords, "coordinate", desc.stay_positions + desc.descent_positions)
    for k in desc.stay_positions:
        if coords[k] == 0:
            raise DomainError(f"stay coordinate at step {k} must be nonzero")
    w = desc.prefix_perms

    def chamber(k: int, i: int, g: _Columns) -> tuple[int, int]:
        minor = g.minor(w[k].prefix_set(i), w[0].prefix_set(i))
        if minor == 0:
            raise InternalCheckError("partial-product minor vanished")
        return minor.denominator, minor.numerator

    pairs = {k: (x.numerator, x.denominator) for k, x in coords.items()}
    return _solve(desc, pairs, chamber)[0]
