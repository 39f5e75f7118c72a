"""Every caller-supplied index is read by one rule, ``weyl._int_in_range``.

A float or a bool at any index argument, at a permutation image or at the
sample seed is refused by name, never read as the integer it compares equal
to and never left to escape as a bare TypeError.  An int out of range gets
one wording, "<what> <x> out of range <lo>..<hi>".
"""

from fractions import Fraction

import pytest

from deodhar.components import minor_polynomial
from deodhar.errors import InputError
from deodhar.linalg import RatMatrix
from deodhar.pinning import (
    FACTOR_S,
    FACTOR_Y,
    GroupFactor,
    GroupWord,
    gen_acheck,
    gen_sdot,
    gen_sdot_inv,
    gen_x,
    gen_y,
    gmin,
    partial,
    reduce_flag,
)
from deodhar.positivity import random_positive_sample
from deodhar.weyl import (
    Permutation,
    check_reduced_word,
    fundamental_weight,
    identity_perm,
    pair,
)

_W = Permutation((2, 3, 1))
_E = identity_perm(3)
_I = RatMatrix.identity(3)
_GW = GroupWord(3, (GroupFactor(FACTOR_Y, 1, Fraction(2)), GroupFactor(FACTOR_S, 2)))

# site -> (call taking the index, what the reader names, lo, hi)
SITES = {
    "Permutation.__call__": (lambda x: _W(x), "index", 1, 3),
    "Permutation.right_descent": (lambda x: _W.right_descent(x), "reflection index", 1, 2),
    "Permutation.times_s": (lambda x: _W.times_s(x), "reflection index", 1, 2),
    "Permutation.prefix_set": (lambda x: _W.prefix_set(x), "prefix size", 0, 3),
    "letters": (lambda x: check_reduced_word(3, [x]), "letter", 1, 2),
    "fundamental_weight": (lambda x: fundamental_weight(3, x), "fundamental weight index", 0, 3),
    "pair": (lambda x: pair((1, 0, 0), x), "coroot index", 1, 2),
    "minor-rows": (lambda x: _I.minor((x,), (1,)), "index", 1, 3),
    "minor-cols": (lambda x: _I.minor((2,), (x,)), "index", 1, 3),
    "minor_polynomial-rows": (lambda x: minor_polynomial((x,), (1,), 3), "index", 1, 3),
    "minor_polynomial-cols": (lambda x: minor_polynomial((2,), (x,), 3), "index", 1, 3),
    "entry-row": (lambda x: _I.entry(x, 1), "row index", 1, 3),
    "entry-column": (lambda x: _I.entry(1, x), "column index", 1, 3),
    "partial": (lambda x: partial(_GW, x), "partial index", 0, 2),
    "gmin": (lambda x: gmin(_I, _E, _W, x), "minor size", 0, 3),
    "reduce_flag": (lambda x: reduce_flag(_I, [1, 2], x), "prefix length", 0, 2),
    "gen_x": (lambda x: gen_x(3, x, 1), "generator index", 1, 2),
    "gen_y": (lambda x: gen_y(3, x, 1), "generator index", 1, 2),
    "gen_sdot": (lambda x: gen_sdot(3, x), "generator index", 1, 2),
    "gen_sdot_inv": (lambda x: gen_sdot_inv(3, x), "generator index", 1, 2),
    "gen_acheck": (lambda x: gen_acheck(3, x, 2), "generator index", 1, 2),
    "GroupWord": (lambda x: GroupWord(3, (GroupFactor(FACTOR_S, x),)), "generator index", 1, 2),
}

NOT_INTEGERS = {
    **{site: (call, what) for site, (call, what, _, _) in SITES.items()},
    "Permutation-image": (lambda x: Permutation((x, 2, 3)), "permutation image"),
    "random_positive_sample-seed": (
        lambda x: random_positive_sample(_E, [1, 2, 1], x),
        "seed",
    ),
}


@pytest.mark.parametrize("value", [1.0, True])
@pytest.mark.parametrize("site", sorted(NOT_INTEGERS))
def test_floats_and_booleans_are_refused(site, value):
    call, what = NOT_INTEGERS[site]
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be an integer, got {value!r}"


@pytest.mark.parametrize("end", ["below", "above"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_out_of_range_ints_share_one_wording(site, end):
    # Every wording but RatMatrix.entry's, "entry (i,j) out of range for
    # size d", is the one each site wrote out by hand before.
    call, what, lo, hi = SITES[site]
    bad = lo - 1 if end == "below" else hi + 1
    with pytest.raises(InputError) as exc:
        call(bad)
    assert str(exc.value) == f"{what} {bad} out of range {lo}..{hi}"
    call(lo), call(hi)


def test_integer_images_must_still_be_one_to_d():
    with pytest.raises(InputError) as exc:
        Permutation((1, 1, 3))
    assert str(exc.value) == "not a permutation of 1..3: (1, 1, 3)"


@pytest.mark.parametrize("seed", ["7", (1, 2), None])
def test_sample_seed_is_an_integer(seed):
    # "7" would draw a different sample from 7, and a tuple would escape
    # random.Random as a bare TypeError.
    with pytest.raises(InputError, match="seed must be an integer"):
        random_positive_sample(_E, [1, 2, 1], seed)
