"""Command-line front end over the library, JSON in and JSON or markup out.

Matrices arrive as a file path or "-" for stdin; words and permutations are
inline JSON arrays.  Every command prints its result to stdout (or --out)
and exits 0; malformed input exits 1 and a violated mathematical
precondition exits 2, each with a one-object JSON error report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import components, diagrams, errors, linalg, pinning, positivity, subexpr, weyl

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; here that is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.InputError(f"{what} is not valid JSON: {exc}") from exc


def _load_matrix(source: str) -> linalg.RatMatrix:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise errors.InputError(f"cannot read matrix file {source}: {exc}") from exc
    return linalg.matrix_from_json(_parse_json(text, "matrix"))


def _parse_word(text: str, what: str = "word") -> tuple[int, ...]:
    data = _parse_json(text, what)
    if not isinstance(data, list):
        raise errors.InputError(f"{what} must be a JSON array of integers")
    return tuple(weyl._int_from_json(i, f"{what} entry") for i in data)


def _parse_perm(text: str, what: str) -> weyl.Permutation:
    return weyl.Permutation(_parse_word(text, what))


def _descriptor_from_args(args) -> components.ComponentDescriptor:
    """A component descriptor from --matrix (classified) or --v (positive)."""
    if args.matrix is not None and args.v is not None:
        raise errors.InputError("give --matrix or --v, not both")
    word = _parse_word(_require(args.word, "--word"))
    if args.matrix is not None:
        z = _load_matrix(args.matrix)
        return components.classify(z, word)
    if args.v is not None:
        v = _parse_perm(args.v, "--v")
        return components._positive_component(v, word)
    raise errors.InputError("need --matrix or --v")


def _cmd_classify(args) -> dict:
    z = _load_matrix(_require(args.matrix, "--matrix"))
    word = _parse_word(_require(args.word, "--word"))
    desc = components.classify(z, word)
    out = desc.to_json()
    out["stays"] = list(desc.stay_positions)
    out["ascents"] = list(desc.ascent_positions)
    out["descents"] = list(desc.descent_positions)
    return out


def _cmd_factorize(args) -> dict:
    z = _load_matrix(_require(args.matrix, "--matrix"))
    word = _parse_word(_require(args.word, "--word"))
    return components.factorize(z, word).to_json()


def _cmd_conditions(args) -> dict:
    desc = _descriptor_from_args(args)
    out = {"trace": desc.to_json()}
    out.update(components.component_conditions(desc).to_json(desc.d))
    return out


def _cmd_rpoly(args) -> str:
    v = _parse_perm(_require(args.v, "--v"), "--v")
    w = _parse_perm(_require(args.w, "--w"), "--w")
    if args.d is not None and args.d != v.d:
        raise errors.InputError(f"--d {args.d} does not match the permutations (degree {v.d})")
    word = _parse_word(args.word) if args.word is not None else weyl.a_reduced_word(w)
    return subexpr.r_polynomial(v, w, word).pretty()


def _cmd_tnn_check(args) -> dict:
    z = _load_matrix(_require(args.matrix, "--matrix"))
    word = _parse_word(_require(args.word, "--word"))
    return positivity.is_totally_nonnegative(z, word).to_json()


def _cmd_sample(args) -> dict:
    v = _parse_perm(_require(args.v, "--v"), "--v")
    word = _parse_word(_require(args.word, "--word"))
    sample = positivity.random_positive_sample(v, word, args.seed)
    out = sample.to_json()
    z, _ = linalg.unipotent_representative(pinning.evaluate(sample.group_word))
    out["matrix"] = linalg.matrix_to_json(z)
    return out


def _arrangement_json(arr: diagrams.Arrangement) -> dict:
    chambers = []
    for ch in arr.chambers:
        rec = {
            "level": ch.level,
            "cells": [ch.start, ch.end],
            "label": list(ch.label),
        }
        key = (ch.level, ch.start, ch.end)
        if key in arr.minor_labels:
            rows, cols = arr.minor_labels[key]
            rec["minor"] = {"rows": list(rows), "cols": list(cols)}
        chambers.append(rec)
    return {
        "kind": arr.kind,
        "d": arr.d,
        "columns": [
            {"level": c.level, "kind": c.kind, "source": c.source, "step": c.step}
            for c in arr.columns
        ],
        "final": list(arr.final_permutation().images),
        "chambers": chambers,
    }


def _cmd_diagram(args) -> dict | str:
    for flag in ("--matrix", "--v") if args.kind == diagrams.CLASSICAL else ("--d",):
        if getattr(args, flag[2:]) is not None:
            raise errors.InputError(f"{flag} is not read by --kind {args.kind}")
    if args.kind == diagrams.CLASSICAL:
        word = _parse_word(_require(args.word, "--word"))
        if args.d is None:
            raise errors.InputError("classical diagrams need --d")
        arr = diagrams.classical_arrangement(word, args.d)
    else:
        arr = diagrams.build_arrangement(args.kind, _descriptor_from_args(args))
    if args.format == "json":
        return _arrangement_json(arr)
    return diagrams.render(arr, args.format)


def _require(value, flag: str):
    if value is None:
        raise errors.InputError(f"{flag} is required")
    return value


_COMMANDS = {
    "classify": _cmd_classify,
    "factorize": _cmd_factorize,
    "conditions": _cmd_conditions,
    "rpoly": _cmd_rpoly,
    "tnn-check": _cmd_tnn_check,
    "sample": _cmd_sample,
    "diagram": _cmd_diagram,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="deodhar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write the result here instead of stdout")
        return p

    def add_matrix_word(p) -> None:
        p.add_argument("--matrix", help="matrix JSON file, or - for stdin")
        p.add_argument("--word", help="reduced word as a JSON array")

    p = add("classify", "Deodhar component of a flag within a cell")
    add_matrix_word(p)

    p = add("factorize", "chamber-ansatz parameters of a flag")
    add_matrix_word(p)

    p = add("conditions", "defining minor equations of a component")
    add_matrix_word(p)
    p.add_argument("--v", help="permutation one-line JSON for the positive trace")

    p = add("rpoly", "R-polynomial of a Bruhat pair")
    p.add_argument("--v", help="lower permutation, one-line JSON")
    p.add_argument("--w", help="upper permutation, one-line JSON")
    p.add_argument("--d", type=int, help="degree check (optional)")
    p.add_argument("--word", help="reduced word for w (optional)")

    p = add("tnn-check", "total nonnegativity certificate for a flag")
    add_matrix_word(p)

    p = add("sample", "random point of a totally positive cell")
    p.add_argument("--v", help="permutation one-line JSON")
    p.add_argument("--word", help="reduced word as a JSON array")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = add("diagram", "pseudoline arrangement of a word or component")
    add_matrix_word(p)
    p.add_argument("--v", help="permutation one-line JSON for the positive trace")
    p.add_argument("--d", type=int, help="strand count for classical diagrams")
    p.add_argument(
        "--kind",
        # diagrams.CLASSICAL, UPPER, LOWER and ANSATZ, spelled out so that
        # building the parser does not run diagrams.
        choices=["classical", "upper", "lower", "ansatz"],
        default="ansatz",
        help="arrangement flavor",
    )
    p.add_argument(
        "--format", choices=["json", "text", "svg"], default="text", help="output form"
    )

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise errors.InputError(f"cannot write output file {out_path}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(_build_parser().parse_args(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # interpreter's last flush cannot raise again; exit 1 as Python does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args) -> int:
    try:
        result = _COMMANDS[args.command](args)
        if not (isinstance(result, str) and args.command == "diagram"):
            result = json.dumps(result, indent=2)
        _emit(result, args.out)
        return 0
    except errors.InputError as exc:
        code, error = 1, {"type": "input", "message": str(exc)}
    except errors.DomainError as exc:
        kind = type(exc).__name__
        code, error = 2, {"type": "domain", "kind": kind, "message": str(exc)}
    _emit(json.dumps({"error": error}), None)
    return code


if __name__ == "__main__":
    sys.exit(main())
