"""Set-up probe: import `deodhar` and turn the generated inputs into library objects.

Run as a child process, ``python probe.py INPUTS.json``, with the package on
``PYTHONPATH``; prints the seconds taken from before the import to the last
converted object.  The benchmark also calls `convert` in-process, so both
do the same set-up.
"""

from __future__ import annotations

import json
import sys
import time


def convert(lib, inputs: dict) -> tuple[list, list]:
    """Library objects for the generated matrices and permutations."""
    matrices = [lib.matrix_from_json(m) for m in inputs["matrices"]]
    perms = [lib.Permutation(tuple(p)) for p in inputs["perms"]]
    return matrices, perms


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        inputs = json.load(fh)
    start = time.perf_counter()
    import deodhar

    convert(deodhar, inputs)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
