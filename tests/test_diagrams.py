"""Tests for pseudoline arrangements, chamber labels, and rendering."""

import hashlib
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from deodhar.components import ComponentDescriptor, build_element, classify, factorize
from deodhar.diagrams import (
    ANSATZ,
    BRAID,
    CLASSICAL,
    LOWER,
    SINGULAR,
    STRAIGHT,
    UPPER,
    ansatz_minor_labels,
    build_arrangement,
    classical_arrangement,
    classify_graphical,
    diagram_formulas,
    render,
)
from deodhar.errors import InputError, NotInComponentError
from deodhar.linalg import RatMatrix, unipotent_representative
from deodhar.pinning import evaluate
from deodhar.weyl import Permutation, evaluate_word

from support import (
    S102_WORD,
    random_distinguished,
    random_nonzero,
    random_perm,
    random_rational,
    random_reduced_word,
    random_unipotent,
    s102_matrix,
)

GOLDEN = Path(__file__).parent / "golden"


def labels_by_level(arr, level):
    return [ch.label for ch in arr.chambers if ch.level == level]


def desc102():
    return classify(s102_matrix(), S102_WORD)


def test_classical_golden_labels():
    arr = classical_arrangement(S102_WORD, 4)
    assert labels_by_level(arr, 3) == [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
    assert labels_by_level(arr, 2) == [(1, 2), (1, 4), (3, 4)]
    assert labels_by_level(arr, 1) == [(1,), (4,)]
    assert arr.final_permutation() == Permutation((4, 3, 1, 2))
    assert all(col.kind == SINGULAR for col in arr.columns)


def test_upper_golden_labels():
    arr = build_arrangement(UPPER, desc102())
    assert labels_by_level(arr, 3) == [(1, 2, 3), (1, 2, 4), (1, 2, 3)]
    assert labels_by_level(arr, 2) == [(1, 2), (1, 3)]
    assert labels_by_level(arr, 1) == [(1,)]
    assert arr.final_permutation() == Permutation((1, 3, 2, 4))
    kinds = [(c.source, c.kind) for c in arr.columns]
    assert kinds == [
        ("s", BRAID),
        ("y", STRAIGHT),
        ("y", STRAIGHT),
        ("x", STRAIGHT),
        ("sinv", BRAID),
        ("s", BRAID),
    ]


def test_lower_golden_labels():
    arr = build_arrangement(LOWER, desc102())
    classical = classical_arrangement(S102_WORD, 4)
    for level in (1, 2, 3):
        assert labels_by_level(arr, level) == labels_by_level(classical, level)
    assert arr.final_permutation() == Permutation((4, 3, 1, 2))
    kinds = [(c.source, c.kind) for c in arr.columns]
    assert kinds == [
        ("s", BRAID),
        ("y", SINGULAR),
        ("y", SINGULAR),
        ("x", SINGULAR),
        ("sinv", STRAIGHT),
        ("s", BRAID),
    ]


def test_final_permutations_random():
    rng = random.Random(13)
    done = 0
    while done < 10:
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        trace = random_distinguished(rng, d, word)
        desc = ComponentDescriptor(trace)
        assert build_arrangement(UPPER, desc).final_permutation() == desc.endpoint
        assert build_arrangement(LOWER, desc).final_permutation() == w
        assert build_arrangement(ANSATZ, desc).final_permutation() == w
        assert classical_arrangement(word, d).final_permutation() == w
        done += 1


def test_ansatz_singular_columns():
    desc = desc102()
    arr = build_arrangement(ANSATZ, desc)
    singulars = [(c.step, c.source, c.level) for c in arr.columns if c.kind == SINGULAR]
    assert singulars == [(2, "y", 2), (3, "y", 1), (4, "x", 3)]
    assert arr.singular_column(2) == 2
    assert arr.singular_column(3) == 3
    assert arr.singular_column(4) == 4
    with pytest.raises(InputError):
        arr.singular_column(1)


def test_ansatz_minor_labels_golden():
    labels = ansatz_minor_labels(desc102())
    assert labels == {
        (1, 0, 2): ((1,), (1,)),
        (1, 3, 6): ((1,), (4,)),
        (2, 0, 1): ((1, 2), (1, 2)),
        (2, 2, 5): ((1, 2), (1, 4)),
        (2, 6, 6): ((1, 3), (3, 4)),
        (3, 0, 0): ((1, 2, 3), (1, 2, 3)),
        (3, 1, 3): ((1, 2, 4), (1, 2, 4)),
        (3, 4, 4): ((1, 2, 4), (1, 3, 4)),
        (3, 5, 6): ((1, 2, 3), (1, 3, 4)),
    }


def overlay_minor_labels(desc):
    """Ansatz chamber labels read off the upper and lower strand positions."""
    upper = build_arrangement(UPPER, desc).positions
    lower = build_arrangement(LOWER, desc).positions
    return {
        (ch.level, ch.start, ch.end): (
            tuple(sorted(upper[ch.start][: ch.level])),
            tuple(sorted(lower[ch.start][: ch.level])),
        )
        for ch in build_arrangement(ANSATZ, desc).chambers
        if 1 <= ch.level <= desc.d - 1
    }


def test_ansatz_minor_labels_match_the_upper_lower_overlay():
    # Labels come from trace values and prefixes; upper over ansatz gives
    # each chamber's row set and lower its column set.
    rng = random.Random(71)
    done = 0
    while done < 50:
        d = 3 + done % 5
        word = random_reduced_word(rng, random_perm(rng, d))
        desc = ComponentDescriptor(random_distinguished(rng, d, word))
        if not desc.descent_positions:
            continue
        labels = build_arrangement(ANSATZ, desc).minor_labels
        assert labels == overlay_minor_labels(desc)
        done += 1


def test_diagram_formulas_golden():
    formulas = diagram_formulas(desc102(), s102_matrix())
    assert formulas == {2: Fraction(1, 2), 3: Fraction(2), 4: Fraction(2)}


def test_diagram_formulas_match_factorization():
    # Around each dot, the four chamber minors solve for that step's factor.
    rng = random.Random(37)
    done = 0
    while done < 12:
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        trace = random_distinguished(rng, d, word)
        desc = ComponentDescriptor(trace)
        gw = build_element(
            desc,
            {k: random_nonzero(rng) for k in desc.stay_positions},
            {k: random_rational(rng) for k in desc.descent_positions},
        )
        z, _ = unipotent_representative(evaluate(gw))
        res = factorize(z, word)
        formulas = diagram_formulas(desc, z)
        assert set(formulas) == set(desc.stay_positions) | set(
            desc.descent_positions
        )
        for k in desc.stay_positions:
            assert formulas[k] == res.t_params[k]
        for k in desc.descent_positions:
            assert formulas[k] == res.m_params[k] + res.corrections[k]
        done += 1


def test_classify_graphical_agrees():
    rng = random.Random(41)
    done = 0
    while done < 12:
        d = rng.choice([3, 4])
        w = random_perm(rng, d)
        if w.length() == 0:
            continue
        word = random_reduced_word(rng, w)
        trace = random_distinguished(rng, d, word)
        desc = ComponentDescriptor(trace)
        gw = build_element(
            desc,
            {k: random_nonzero(rng) for k in desc.stay_positions},
            {k: random_rational(rng) for k in desc.descent_positions},
        )
        z, _ = unipotent_representative(evaluate(gw))
        assert classify_graphical(z, word) == classify(z, word)
        done += 1


def test_render_text_golden():
    cases = [
        ("ansatz_102.txt", build_arrangement(ANSATZ, desc102())),
        ("upper_102.txt", build_arrangement(UPPER, desc102())),
        ("lower_102.txt", build_arrangement(LOWER, desc102())),
        ("classical_32132.txt", classical_arrangement(S102_WORD, 4)),
    ]
    for name, arr in cases:
        assert render(arr, "text") == (GOLDEN / name).read_text()


def test_render_svg_golden():
    svg = render(build_arrangement(ANSATZ, desc102()), "svg")
    assert svg == (GOLDEN / "ansatz_102.svg").read_text()


@pytest.mark.parametrize("d", [0, -3])
def test_classical_arrangement_needs_a_strand(d):
    with pytest.raises(InputError) as exc:
        classical_arrangement((), d)
    assert str(exc.value) == f"strand count must be at least 1, got {d}"


def test_empty_word_arrangement():
    arr = classical_arrangement((), 3)
    assert arr.columns == ()
    assert arr.final_permutation() == Permutation((1, 2, 3))
    assert labels_by_level(arr, 1) == [(1,)]
    assert labels_by_level(arr, 2) == [(1, 2)]
    text = render(arr, "text")
    assert "1 --" in text and "3 --" in text and "*" not in text


def test_svg_well_formed():
    desc = desc102()
    for arr in (
        build_arrangement(ANSATZ, desc),
        build_arrangement(UPPER, desc),
        build_arrangement(LOWER, desc),
        classical_arrangement(S102_WORD, 4),
    ):
        svg = render(arr, "svg")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        tags = {child.tag.split("}")[-1] for child in root.iter()}
        assert "polyline" in tags
        assert "text" in tags


def test_render_format_validation():
    arr = classical_arrangement((1,), 2)
    with pytest.raises(InputError):
        render(arr, "png")


def test_chamber_lookup():
    arr = classical_arrangement(S102_WORD, 4)
    assert arr.chamber_at(3, 0).label == (1, 2, 3)
    assert arr.chamber_at(1, 5).label == (4,)
    # The unbounded border chambers carry the trivial labels.
    assert arr.chamber_at(0, 2).label == ()
    assert arr.chamber_at(4, 2).label == (1, 2, 3, 4)
    with pytest.raises(InputError):
        arr.chamber_at(5, 0)


def test_build_arrangement_classical_is_the_wiring_diagram_of_the_word():
    desc = desc102()
    assert build_arrangement(CLASSICAL, desc) == classical_arrangement(desc.word, desc.d)


def test_build_arrangement_validation():
    with pytest.raises(InputError):
        build_arrangement("diagonal", desc102())
    # An unhashable kind is an unknown kind too, not a failed dict lookup.
    for kind in ([ANSATZ], {ANSATZ: 1}):
        with pytest.raises(InputError) as exc:
            build_arrangement(kind, desc102())
        assert str(exc.value) == f"unknown arrangement kind {kind!r}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_arrangement(ANSATZ, "x"), "arrangement needs a ComponentDescriptor, got str"),
        (lambda: build_arrangement(CLASSICAL, None), "arrangement needs a ComponentDescriptor, got NoneType"),
        (lambda: ansatz_minor_labels("x"), "arrangement needs a ComponentDescriptor, got str"),
        (lambda: render("x", "svg"), "render needs an Arrangement, got str"),
        (lambda: render(desc102(), "text"), "render needs an Arrangement, got ComponentDescriptor"),
    ],
    ids=["build_arrangement", "build_classical", "ansatz_minor_labels", "render_svg", "render_text"],
)
def test_drawing_entry_points_refuse_a_wrong_object(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_diagram_formulas_outside_component():
    # The identity lies in the all-ascent component, not in +oo-+.
    with pytest.raises(NotInComponentError, match="step 2"):
        diagram_formulas(desc102(), RatMatrix.identity(4))


@pytest.mark.parametrize("d", [3, 5])
def test_diagram_formulas_degree_mismatch(d):
    # A unipotent z of another degree is malformed input, not a flag outside
    # the component, as in chamber_coordinates.
    for z in (RatMatrix.identity(d), random_unipotent(random.Random(d), d)):
        with pytest.raises(InputError) as exc:
            diagram_formulas(desc102(), z)
        assert str(exc.value) == "degree mismatch in generalized minor"


def test_diagram_formulas_is_the_graphical_reading_without_a_minor(monkeypatch):
    # The graphical reading: around each dot, the minors of z on the four
    # chambers give above*below/(left*right), inverted at descents.
    # diagram_formulas returns factorize's values, which must be that
    # reading, key order included, and it evaluates no minor of z itself.
    rng = random.Random(53)
    cases = []
    for d in (4, 6, 8):
        w0 = Permutation(tuple(range(d, 0, -1)))
        for _ in range(3):
            desc = ComponentDescriptor(random_distinguished(rng, d, random_reduced_word(rng, w0)))
            gw = build_element(
                desc,
                {k: random_nonzero(rng) for k in desc.stay_positions},
                {k: random_rational(rng) for k in desc.descent_positions},
            )
            z = unipotent_representative(evaluate(gw))[0]
            arr = build_arrangement(ANSATZ, desc)

            def minor(level, cell):
                # Levels 0 and d have no minor label; their chamber label
                # serves as both index sets.
                ch = arr.chamber_at(level, cell)
                key = (ch.level, ch.start, ch.end)
                return z.minor(*arr.minor_labels.get(key, (ch.label, ch.label)))

            reading = {}
            for k in desc.stay_positions + desc.descent_positions:
                col = arr.singular_column(k)
                i = arr.columns[col - 1].level
                vertical = minor(i + 1, col - 1) * minor(i - 1, col - 1)
                horizontal = minor(i, col - 1) * minor(i, col)
                stay = k in desc.stay_positions
                reading[k] = vertical / horizontal if stay else horizontal / vertical
            cases.append((desc, z, reading))
    assert any(desc.descent_positions for desc, _, _ in cases)
    real = RatMatrix.minor
    calls = []

    def counted(z, rows, cols):
        calls.append((rows, cols))
        return real(z, rows, cols)

    monkeypatch.setattr(RatMatrix, "minor", counted)
    for desc, z, reading in cases:
        got = diagram_formulas(desc, z)
        assert got == reading and list(got) == list(reading)
    assert calls == []


def _drawing_digest(kind):
    """SHA-256 over the chambers, minor labels and both renders of one kind.

    Three seeded descriptors per degree d = 5..12, each drawn as ``kind``.
    """
    rng = random.Random(97)
    h = hashlib.sha256()
    for d in range(5, 13):
        for _ in range(3):
            word = random_reduced_word(rng, random_perm(rng, d))
            arr = build_arrangement(kind, ComponentDescriptor(random_distinguished(rng, d, word)))
            h.update(repr(arr.chambers).encode())
            h.update(repr(sorted(arr.minor_labels.items())).encode())
            h.update(render(arr, "text").encode())
            h.update(render(arr, "svg").encode())
    return h.hexdigest()


# Pinned digests: a change to how arrangements are built or drawn must
# keep every chamber, minor label and rendered byte.
DRAWING_DIGESTS = {
    CLASSICAL: "fa219536c8394ed3df9d76cac059bd5a6172457220b7d4dc95472978e5436b1e",
    UPPER: "8516bc20917bed11dbf166fdd382712610948bb8f5e88a3c8a6e7f76d48594d1",
    LOWER: "4e8cba72b2d1427ede257687be569e919fd3dfb2eb1697e075e547d6537cff59",
    ANSATZ: "ab061fd4e0b0f18e355ece5ddcf9cb2572b5009b0c956f4d0a7e6aead579d761",
}


@pytest.mark.parametrize("kind", sorted(DRAWING_DIGESTS))
def test_drawings_match_their_pinned_digests(kind):
    assert _drawing_digest(kind) == DRAWING_DIGESTS[kind]


def _large_drawing_digest(kind):
    """SHA-256 as in ``_drawing_digest``, for one random w0 word each at d = 16 and 32.

    SVG coordinates reach six digits there and labels are comma-separated;
    the text render is hashed at d = 16 only, to keep the test fast.
    """
    rng = random.Random(101)
    h = hashlib.sha256()
    for d in (16, 32):
        word = random_reduced_word(rng, Permutation(tuple(range(d, 0, -1))))
        arr = build_arrangement(kind, ComponentDescriptor(random_distinguished(rng, d, word)))
        h.update(repr(arr.chambers).encode())
        h.update(repr(sorted(arr.minor_labels.items())).encode())
        if d <= 16:
            h.update(render(arr, "text").encode())
        h.update(render(arr, "svg").encode())
    return h.hexdigest()


LARGE_DRAWING_DIGESTS = {
    CLASSICAL: "92878ce6be9185e1b3da2e3c2568f50b2873b70955389a56067a0cb0f5f52a27",
    UPPER: "d3ae3b0506347f1a939a9b2bf41d209c0ac8ab619088f9446b27052648867a66",
    LOWER: "5453ef782c70ed511bf7d90ab01fee358493139e4b3b28da112ce1f52b50918b",
    ANSATZ: "5ccd2208a89ef3e4c7c1b7dca1df23e248935c901c89194082f9b12671292e15",
}


@pytest.mark.parametrize("kind", sorted(LARGE_DRAWING_DIGESTS))
def test_large_drawings_match_their_pinned_digests(kind):
    assert _large_drawing_digest(kind) == LARGE_DRAWING_DIGESTS[kind]
