"""A fixed reference computation that tracks the host's momentary speed.

The benchmark runs on a few cores of a shared host.  Over stretches of a
second to a minute the host runs every pure-Python computation up to half
as fast, so a plain wall-clock latency measures the neighbours as much as
the library.  The benchmark therefore times this reference, an exact 6x6
`Fraction` determinant from its own `gen.py`, right before and right after
each op, and scales the op's time by ``REFERENCE_MS`` over the mean of the
two.  The reported latency is what the op takes on a host where the
reference takes ``REFERENCE_MS``, which is about its time on an idle
2-vCPU Xeon VM.  The reference shares no code with `deodhar`, so a change to
the library moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import gen

REFERENCE_MS = 0.4

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(6)] for _ in range(6)]


def reference_s() -> float:
    """Seconds taken by one run of the reference computation."""
    start = time.perf_counter()
    gen.det(_MATRIX)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference timings, scaled to the reference speed."""
    return seconds * (REFERENCE_MS / 1000) / ((before + after) / 2)
