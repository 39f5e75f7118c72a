"""Pseudoline arrangements for words and component traces, with rendering.

Strands are numbered 1..d bottom to top by their left endpoint.  Reading a
word, or the factor list of a trace, left to right gives one constituent
per factor, each occupying the two adjacent strand positions at its level:

* kind "singular": a genuine crossing, drawn with a dot;
* kind "braid": a crossing where one strand passes over the other;
* kind "straight": the strands pass without interacting.

Both crossing kinds swap the two positions and split the chamber corridor
at their level; straight constituents do neither.  A chamber is a maximal
horizontal run of cells at one level, labeled by the set of strands passing
below it, which is constant along the run.

Four flavors are built from the same column skeleton.  The classical
arrangement of a word makes every letter singular and tracks the prefix
permutations.  For a trace, stay factors are y, ascent factors are lifted
reflections, and each descent contributes an x column followed by an
inverse-reflection column.  The upper flavor keeps only the reflection
braids (its positions follow the trace values), the lower flavor crosses at
x and y and braids at reflections (its positions follow the prefixes), and
the ansatz flavor crosses at x and y and braids at both reflection kinds.
Each ansatz chamber at level i is labeled by the minor on rows v{1..i} and
columns w{1..i}, where v is the trace value and w the word prefix where the
chamber starts; the minor with those index sets is the chamber's
coordinate.  The parameter at a singular point is the ratio of the four
chamber minors around it: above times below over left times right for stay
steps, inverted for descent steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .components import (
    ComponentDescriptor,
    _check_descriptor,
    _check_flag_and_component,
    _check_unipotent,
    factorize,
)
from .errors import InputError, NotInComponentError
from .linalg import RatMatrix
from .subexpr import MARK_STAY, MARK_UP, SubexpressionTrace, _trace_from_moves
from .weyl import Permutation, _check_letters, _degree, check_reduced_word

__all__ = [
    "SINGULAR",
    "BRAID",
    "STRAIGHT",
    "CLASSICAL",
    "UPPER",
    "LOWER",
    "ANSATZ",
    "Constituent",
    "Chamber",
    "Arrangement",
    "classical_arrangement",
    "build_arrangement",
    "ansatz_minor_labels",
    "diagram_formulas",
    "classify_graphical",
    "render",
]

SINGULAR = "singular"
BRAID = "braid"
STRAIGHT = "straight"

CLASSICAL = "classical"
UPPER = "upper"
LOWER = "lower"
ANSATZ = "ansatz"

_SOURCE_KINDS = {
    UPPER: {"x": STRAIGHT, "y": STRAIGHT, "s": BRAID, "sinv": BRAID},
    LOWER: {"x": SINGULAR, "y": SINGULAR, "s": BRAID, "sinv": STRAIGHT},
    ANSATZ: {"x": SINGULAR, "y": SINGULAR, "s": BRAID, "sinv": BRAID},
}


@dataclass(frozen=True)
class Constituent:
    """One column: a factor drawn at a level, belonging to a trace step."""

    level: int
    kind: str
    source: str
    step: int


@dataclass(frozen=True)
class Chamber:
    """A maximal run of cells at one level; cells start..end inclusive."""

    level: int
    start: int
    end: int
    label: tuple[int, ...]


@dataclass(frozen=True)
class Arrangement:
    """A built arrangement with its chambers and per-column positions.

    ``positions[c]`` lists the strand at each position, bottom to top,
    after the first c columns; cell c is the gap following column c.
    """

    kind: str
    d: int
    columns: tuple[Constituent, ...]
    positions: tuple[tuple[int, ...], ...]
    chambers: tuple[Chamber, ...]
    minor_labels: dict = field(default_factory=dict, compare=False)

    def chamber_at(self, level: int, cell: int) -> Chamber:
        for ch in self.chambers:
            if ch.level == level and ch.start <= cell <= ch.end:
                return ch
        raise InputError(f"no chamber at level {level}, cell {cell}")

    def final_permutation(self) -> Permutation:
        return Permutation(self.positions[-1])

    def singular_column(self, step: int) -> int:
        """The 1-based column of the dot belonging to a stay or descent step."""
        for c, col in enumerate(self.columns, start=1):
            if col.step == step and col.kind == SINGULAR:
                return c
        raise InputError(f"step {step} has no singular point")


def _trace_sources(trace: SubexpressionTrace) -> list[tuple[str, int, int]]:
    """(source, level, step) triples, one or two per step."""
    out: list[tuple[str, int, int]] = []
    for k, i in enumerate(trace.word, start=1):
        mark = trace.marks[k - 1]
        if mark == MARK_STAY:
            out.append(("y", i, k))
        elif mark == MARK_UP:
            out.append(("s", i, k))
        else:
            out.append(("x", i, k))
            out.append(("sinv", i, k))
    return out


def _assemble(kind: str, d: int, columns: list[Constituent]) -> Arrangement:
    """Positions and chambers in one walk over the columns, O(columns + d).

    Each level keeps the start of its open chamber, which a crossing there
    closes; chambers come out ordered by level, then by start.
    """
    positions: list[tuple[int, ...]] = [tuple(range(1, d + 1))]
    starts = [0] * (d + 1)
    by_level: list[list[Chamber]] = [[] for _ in range(d + 1)]

    def close(level: int, end: int) -> None:
        start = starts[level]
        by_level[level].append(Chamber(level, start, end, tuple(sorted(positions[start][:level]))))

    for c, col in enumerate(columns, start=1):
        cur = list(positions[-1])
        if col.kind != STRAIGHT:
            i = col.level
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
            close(i, c - 1)
            starts[i] = c
        positions.append(tuple(cur))
    for level in range(d + 1):
        close(level, len(columns))
    chambers = tuple(ch for level in by_level for ch in level)
    return Arrangement(kind, d, tuple(columns), tuple(positions), chambers)


def classical_arrangement(word: Sequence[int], d: int) -> Arrangement:
    """The wiring diagram of a word: one singular crossing per letter."""
    d = _degree(d, "strand count")
    columns = [
        Constituent(i, SINGULAR, "letter", k)
        for k, i in enumerate(_check_letters(d, word), start=1)
    ]
    return _assemble(CLASSICAL, d, columns)


def build_arrangement(kind: str, desc: ComponentDescriptor) -> Arrangement:
    """Build one arrangement flavor from a component descriptor."""
    _check_descriptor(desc, "arrangement")
    if kind == CLASSICAL:
        return classical_arrangement(desc.word, desc.d)
    if not isinstance(kind, str) or kind not in _SOURCE_KINDS:
        raise InputError(f"unknown arrangement kind {kind!r}")
    table = _SOURCE_KINDS[kind]
    columns = [
        Constituent(level, table[source], source, step)
        for source, level, step in _trace_sources(desc.trace)
    ]
    arr = _assemble(kind, desc.d, columns)
    if kind == ANSATZ:
        # Cell c follows column c, of step k (k = 0 at cell 0).  There the
        # upper strands are the trace value v_(k), or v_(k-1) right after the
        # x column of a descent, and the lower strands are the prefix w_(k).
        # Only a crossing at a level changes the sets below it, and every
        # upper or lower crossing is an ansatz crossing, so the sets hold
        # along each ansatz chamber.
        values, prefixes = desc.trace.values, desc.prefix_perms
        cells = [(values[0], prefixes[0])]
        for col in columns:
            k = col.step - 1 if col.source == "x" else col.step
            cells.append((values[k], prefixes[col.step]))
        for ch in arr.chambers:
            if 1 <= ch.level <= arr.d - 1:
                v, w = cells[ch.start]
                arr.minor_labels[(ch.level, ch.start, ch.end)] = (
                    v.prefix_set(ch.level),
                    w.prefix_set(ch.level),
                )
    return arr


def ansatz_minor_labels(desc: ComponentDescriptor) -> dict:
    """Map each bounded-level ansatz chamber to its (rows, cols) minor.

    Keys are (level, start cell, end cell); the row set comes from the
    trace value, the column set from the word prefix.
    """
    return dict(build_arrangement(ANSATZ, desc).minor_labels)


def diagram_formulas(desc: ComponentDescriptor, z: RatMatrix) -> dict:
    """Parameters read off the ansatz arrangement, one per singular point.

    Around each dot the four surrounding chambers give
    above*below/(left*right), inverted on descent steps: the y parameter at
    a stay step and the minor ratio before the correction term at a descent.
    These are the ratios ``factorize`` computes, and its values are returned,
    stay steps first: t_k, and m_k plus its correction.  ``factorize``
    classifies z into its own component, so a z outside desc's raises
    NotInComponentError naming the first step where the two mark strings
    differ, the step where ``chamber_coordinates`` refuses z too.
    """
    _check_flag_and_component(z, desc, "diagram_formulas")
    res = factorize(z, desc.word)
    marks = zip(res.descriptor.trace.marks, desc.trace.marks)
    k = next((k for k, (a, b) in enumerate(marks, start=1) if a != b), None)
    if k is not None:
        raise NotInComponentError(f"z leaves the component at step {k}")
    return {**res.t_params, **{k: m + res.corrections[k] for k, m in res.m_params.items()}}


def classify_graphical(z: RatMatrix, word: Sequence[int]) -> ComponentDescriptor:
    """Classification read off the growing upper arrangement.

    The probe row set is the right-edge chamber label of the upper
    arrangement built so far, the column set is the chamber right of the
    k-th classical crossing, and descents are visible as out-of-order
    strands.  Agrees with the sweep classifier.
    """
    _check_unipotent(z)
    word, w = check_reduced_word(z.d, word)
    d = z.d
    pos = list(range(1, d + 1))
    moves: list[bool] = []
    for k, i in enumerate(word, start=1):
        rows = tuple(sorted(pos[:i]))
        cols = w[k].prefix_set(i)
        moves.append(pos[i - 1] > pos[i] or z.minor(rows, cols) == 0)
        if moves[-1]:
            pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return ComponentDescriptor(_trace_from_moves(word, d, moves))


def _chamber_text_labels(arr: Arrangement) -> dict[tuple[int, int, int], str]:
    """Chamber label strings at the bounded levels 1..d-1, names comma-separated above d = 9.

    Each index set is one ``join`` over a table of the strand names.
    """
    d = arr.d
    name = [str(s) for s in range(d + 1)].__getitem__
    sep = "" if d <= 9 else ","
    if arr.kind == ANSATZ:
        return {
            key: f"{sep.join(map(name, rows))}/{sep.join(map(name, cols))}"
            for key, (rows, cols) in arr.minor_labels.items()
        }
    return {
        (ch.level, ch.start, ch.end): sep.join(map(name, ch.label))
        for ch in arr.chambers
        if 1 <= ch.level <= d - 1
    }


def _footer_labels(arr: Arrangement) -> dict[int, str]:
    """Column index to annotation drawn under the diagram."""
    out: dict[int, str] = {}
    if arr.kind == CLASSICAL:
        for c, col in enumerate(arr.columns, start=1):
            out[c] = f"s{col.level}"
    elif arr.kind == ANSATZ:
        for c, col in enumerate(arr.columns, start=1):
            if col.kind == SINGULAR:
                prefix = "t" if col.source == "y" else "m"
                out[c] = f"{prefix}{col.step}"
    return out


_COL_W = 5


def _render_text(arr: Arrangement) -> str:
    d = arr.d
    labels = _chamber_text_labels(arr)
    footer = _footer_labels(arr)
    gap = max(4, max((len(s) for s in labels.values()), default=0) + 2)
    margin = len(str(d)) + 1
    ncols = len(arr.columns)
    width = margin + gap + ncols * (_COL_W + gap)
    nrows = 2 * d - 1 + (1 if footer else 0)
    grid = [[" "] * width for _ in range(nrows)]

    def strand_row(p: int) -> int:
        return 2 * (d - p)

    for p in range(1, d + 1):
        r = strand_row(p)
        num = str(p)
        grid[r][: len(num)] = num
        for x in range(margin, width):
            grid[r][x] = "-"

    for c, col in enumerate(arr.columns, start=1):
        x0 = margin + gap + (c - 1) * (_COL_W + gap)
        if col.kind == STRAIGHT:
            continue
        i = col.level
        rt = strand_row(i + 1)
        rb = strand_row(i)
        rc = rt + 1
        grid[rt][x0 + 1] = "\\"
        grid[rt][x0 + 2] = " "
        grid[rt][x0 + 3] = "/"
        grid[rb][x0 + 1] = "/"
        grid[rb][x0 + 2] = " "
        grid[rb][x0 + 3] = "\\"
        if col.kind == SINGULAR:
            center = "*"
        elif col.source == "s":
            center = "\\"
        else:
            center = "/"
        grid[rc][x0 + 2] = center

    for (level, start, end), text in sorted(labels.items()):
        r = strand_row(level) - 1
        x_left = margin + start * (_COL_W + gap)
        x_right = margin + end * (_COL_W + gap) + gap - 1
        mid = (x_left + x_right + 1 - len(text)) // 2
        for off, ch in enumerate(text):
            grid[r][mid + off] = ch

    if footer:
        r = nrows - 1
        for c, text in sorted(footer.items()):
            x0 = margin + gap + (c - 1) * (_COL_W + gap)
            mid = x0 + (_COL_W - len(text)) // 2
            for off, ch in enumerate(text):
                grid[r][mid + off] = ch

    return "\n".join("".join(row).rstrip() for row in grid) + "\n"


_SVG_COL = 40
_SVG_GAP = 72
_SVG_ROW = 40
_SVG_MARGIN = 24


def _render_svg(arr: Arrangement) -> str:
    """SVG markup on a grid of tenths, in exact integer arithmetic.

    Margin, gap, column width and row height are whole numbers, the breaks
    of an under-crossing sit at 0.38 and 0.62 of a 40 by 40 cell (15.2 and
    24.8) and label midpoints are halves: every coordinate, at least 8.0,
    is a whole number n of tenths, written ``f"{n // 10}.{n % 10}"`` with
    no float to round.  Column edges and level heights are formatted once.
    """
    d = arr.d
    labels = _chamber_text_labels(arr)
    footer = _footer_labels(arr)
    ncols = len(arr.columns)
    width = 2 * _SVG_MARGIN + (ncols + 1) * _SVG_GAP + ncols * _SVG_COL
    height = 2 * _SVG_MARGIN + (d - 1) * _SVG_ROW + (20 if footer else 0)
    # In tenths: each level's height, the column pitch and width.
    ys = [10 * (_SVG_MARGIN + (d - p) * _SVG_ROW) for p in range(d + 1)]
    pitch, col_w = 10 * (_SVG_COL + _SVG_GAP), 10 * _SVG_COL

    def num(n: int) -> str:
        return f"{n // 10}.{n % 10}"

    # Above each level: its strand height, the two breaks of an
    # under-crossing, nearer and farther, a dot and a chamber label.
    y_text = [num(y) for y in ys]
    near_y = [num(y - 38 * _SVG_ROW // 10) for y in ys]
    far_y = [num(y - 62 * _SVG_ROW // 10) for y in ys]
    dot_y = [num(y - 5 * _SVG_ROW) for y in ys]
    label_y = [num(y - 5 * _SVG_ROW + 40) for y in ys]
    start_text = f"{num(10 * _SVG_MARGIN)},"
    paths: dict[int, list[list[str]]] = {s: [[start_text + y_text[s]]] for s in range(1, d + 1)}
    centers: dict[int, str] = {}
    dots: list[str] = []
    for c, col in enumerate(arr.columns, start=1):
        if col.kind == STRAIGHT:
            continue
        i = col.level
        xl = 10 * (_SVG_MARGIN + _SVG_GAP) + (c - 1) * pitch
        xl_text, xr_text = f"{num(xl)},", f"{num(xl + col_w)},"
        low, high = arr.positions[c - 1][i - 1 : i + 1]
        up, down = paths[low], paths[high]
        up[-1].append(xl_text + y_text[i])
        down[-1].append(xl_text + y_text[i + 1])
        if col.kind == SINGULAR:
            centers[c] = num(xl + col_w // 2)
            dots.append(f'<circle cx="{centers[c]}" cy="{dot_y[i]}" r="4" fill="black"/>')
        else:
            # A reflection s passes under going up, its inverse going down.
            under, y1, y2 = (up, near_y, far_y) if col.source == "s" else (down, far_y, near_y)
            under[-1].append(f"{num(xl + 38 * _SVG_COL // 10)},{y1[i]}")
            under.append([f"{num(xl + 62 * _SVG_COL // 10)},{y2[i]}"])
        up[-1].append(xr_text + y_text[i + 1])
        down[-1].append(xr_text + y_text[i])
    end_text = f"{num(10 * (width - _SVG_MARGIN))},"
    for p, s in enumerate(arr.positions[-1], start=1):
        paths[s][-1].append(end_text + y_text[p])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<g fill="none" stroke="black" stroke-width="1.5">',
    ]
    for s in range(1, d + 1):
        for path in paths[s]:
            parts.append(f'<polyline points="{" ".join(path)}"/>')
    parts.append("</g>")
    parts.extend(dots)
    parts.extend(
        f'<text x="{num(10 * (_SVG_MARGIN - 16))}" y="{num(ys[s] + 40)}" '
        f'font-size="12" fill="black">{s}</text>'
        for s in range(1, d + 1)
    )
    for (level, start, end), text in sorted(labels.items()):
        x_mid = 10 * _SVG_MARGIN + (start + end) * pitch // 2 + 5 * _SVG_GAP
        parts.append(
            f'<text x="{num(x_mid)}" y="{label_y[level]}" font-size="12" '
            f'fill="black" text-anchor="middle">{text}</text>'
        )
    if footer:
        y_f = num(ys[1] + 240)
        for c, text in sorted(footer.items()):
            parts.append(
                f'<text x="{centers[c]}" y="{y_f}" font-size="12" '
                f'fill="black" text-anchor="middle">{text}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(arr: Arrangement, fmt: str = "text") -> str:
    """Deterministic rendering of an arrangement as text or SVG markup."""
    if not isinstance(arr, Arrangement):
        raise InputError(f"render needs an Arrangement, got {type(arr).__name__}")
    if fmt == "text":
        return _render_text(arr)
    if fmt == "svg":
        return _render_svg(arr)
    raise InputError(f"unknown render format {fmt!r}")
