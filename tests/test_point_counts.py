"""Deodhar's point counts over a finite field as an oracle for ``classify``.

Over F_p the component of a distinguished trace is (F_p^*)^{stays} x
F_p^{descents}, so it has (p-1)^{stays} p^{descents} points, and the
components over v inside the cell of w add up to R_{v,w}(p).  Every z in
U(F_p), the upper-unipotent matrices over F_p, gives a flag z w B+ of the
cell, and each flag of the cell arises from p^{N - l(w)} of them, N = d(d-1)/2.
With integer entries in 0..p-1 every minor is an integer whose residue mod p
is the minor over F_p.  ``classify_graphical`` only asks whether its probe
minors vanish, so reducing ``RatMatrix.minor`` mod p classifies over F_p;
``classify`` reads its probes off an elimination table with exact division,
which has no such reduction, and ``test_properties`` ties the two
classifiers together over Q.
"""

import itertools
from collections import Counter

import pytest

from deodhar.diagrams import classify_graphical
from deodhar.linalg import RatMatrix
from deodhar.subexpr import enumerate_distinguished, r_polynomial
from deodhar.weyl import a_reduced_word, all_permutations

D = 4
N = D * (D - 1) // 2


def unipotent_points(p: int) -> list[RatMatrix]:
    """All of U(F_p), with entries 0..p-1 above the diagonal."""
    above = [(a, b) for a in range(D) for b in range(a + 1, D)]
    out = []
    for values in itertools.product(range(p), repeat=N):
        rows = [[int(a == b) for b in range(D)] for a in range(D)]
        for (a, b), x in zip(above, values):
            rows[a][b] = x
        out.append(RatMatrix(rows))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_component_point_counts_over_f_p(monkeypatch, p):
    real = RatMatrix.minor
    monkeypatch.setattr(
        RatMatrix, "minor", lambda self, rows, cols: real(self, rows, cols) % p
    )
    points = unipotent_points(p)
    for w in all_permutations(D):
        word = a_reduced_word(w)
        counts = Counter(classify_graphical(z, word).trace for z in points)
        per_flag = p ** (N - w.length())
        accounted = 0
        for v in all_permutations(D):
            traces = enumerate_distinguished(v, word)
            for t in traces:
                flags = (p - 1) ** t.stay_count * p**t.down_count
                assert counts[t] == flags * per_flag, (w, t)
            accounted += sum(counts[t] for t in traces)
            assert sum(counts[t] for t in traces) == r_polynomial(v, w, word)(p) * per_flag
        assert accounted == len(points)
