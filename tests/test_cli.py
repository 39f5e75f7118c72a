"""End-to-end tests of the command-line interface."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deodhar
from deodhar.cli import main
from deodhar.errors import LIMITS
from deodhar.linalg import matrix_to_json

from support import S102_WORD, s102_matrix

WORD_JSON = json.dumps(list(S102_WORD))


@pytest.fixture
def z_file(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps(matrix_to_json(s102_matrix())))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_classify_golden(z_file, capsys):
    code, out = run(capsys, ["classify", "--matrix", z_file, "--word", WORD_JSON])
    assert code == 0
    data = json.loads(out)
    assert data["marks"] == ["+", "o", "o", "-", "+"]
    assert data["stays"] == [2, 3]
    assert data["ascents"] == [1, 5]
    assert data["descents"] == [4]
    assert data["values"][-1] == [1, 3, 2, 4]


def test_factorize_golden(z_file, capsys):
    code, out = run(capsys, ["factorize", "--matrix", z_file, "--word", WORD_JSON])
    assert code == 0
    data = json.loads(out)
    assert data["t"] == {"2": "1/2", "3": "2"}
    assert data["m"] == {"4": "2"}
    assert data["verified"] is True


def test_rpoly_identity_pair(capsys):
    code, out = run(
        capsys,
        ["rpoly", "--v", "[4,3,2,1]", "--w", "[4,3,2,1]", "--d", "4"],
    )
    assert code == 0
    assert out.strip() == '"1"'


def test_rpoly_incomparable_pair(capsys):
    code, out = run(capsys, ["rpoly", "--v", "[2,1,3]", "--w", "[1,3,2]"])
    assert code == 0
    assert out.strip() == '"0"'


def test_rpoly_longest_element(capsys):
    code, out = run(capsys, ["rpoly", "--v", "[1,2,3]", "--w", "[3,2,1]"])
    assert code == 0
    poly = json.loads(out)
    assert poly == "q^3 - 2q^2 + 2q - 1"


def test_rpoly_above_enumeration_limit(capsys):
    code, out = run(capsys, ["rpoly", "--v", "[1,2,3,4,5,6,7]", "--w", "[7,6,5,4,3,2,1]"])
    assert code == 0
    assert json.loads(out) == (
        "q^21 - 6q^20 + 16q^19 - 25q^18 + 26q^17 - 21q^16 + 18q^15 - 21q^14 + 29q^13"
        " - 40q^12 + 49q^11 - 49q^10 + 40q^9 - 29q^8 + 21q^7 - 18q^6 + 21q^5 - 26q^4"
        " + 25q^3 - 16q^2 + 6q - 1"
    )


def test_rpoly_degree_limit_exits_two(capsys):
    v, w = json.dumps(list(range(1, 12))), json.dumps(list(range(11, 0, -1)))
    code, out = run(capsys, ["rpoly", "--v", v, "--w", w])
    assert code == 0
    assert json.loads(out).startswith("q^55 - ")
    v, w = json.dumps(list(range(1, 13))), json.dumps(list(range(12, 0, -1)))
    code, out = run(capsys, ["rpoly", "--v", v, "--w", w])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "domain"
    assert err["kind"] == "DomainError"
    assert err["message"] == "R-polynomials are limited to degree 11"


def test_rpoly_degree_mismatch(capsys):
    code, out = run(capsys, ["rpoly", "--v", "[2,1,3]", "--w", "[3,2,1]", "--d", "5"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "input"


def test_rpoly_permutation_degrees_differ(capsys):
    for v, w in (("[1,2,3]", "[2,1]"), ("[1,2]", "[3,2,1]")):
        code, out = run(capsys, ["rpoly", "--v", v, "--w", w])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "input"
        nv, nw = len(json.loads(v)), len(json.loads(w))
        assert f"v has degree {nv}, w has degree {nw}" in err["message"]


def test_malformed_word_exits_one(z_file, capsys):
    code, out = run(capsys, ["classify", "--matrix", z_file, "--word", "[3,2,"])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "input"


@pytest.mark.parametrize(
    "argv, word",
    [
        (["rpoly", "--v", "[1,2,3]", "--w", "[3,2,1]", "--word", "[1,2,2]"], "(1, 2, 2)"),
        (["classify", "--matrix", "Z", "--word", "[3,3,2]"], "(3, 3, 2)"),
    ],
    ids=["rpoly", "classify"],
)
def test_word_that_is_not_reduced_exits_one(z_file, capsys, argv, word):
    # The sweep trusts the trace it builds, so a caller's word is checked.
    code, out = run(capsys, [z_file if a == "Z" else a for a in argv])
    assert code == 1
    assert json.loads(out) == {
        "error": {"type": "input", "message": f"word {word} is not reduced"}
    }


def test_boolean_word_letter_exits_one(z_file, capsys):
    code, out = run(
        capsys, ["classify", "--matrix", z_file, "--word", "[true,2,1,3,2]"]
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "input"


def test_boolean_permutation_entry_exits_one(capsys):
    code, out = run(capsys, ["rpoly", "--v", "[1,2,3]", "--w", "[true,3,2]"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "input"


def test_boolean_matrix_entry_exits_one(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text("[[true, 0], [0, 1]]")
    code, out = run(capsys, ["classify", "--matrix", str(path), "--word", "[1]"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "input"


def test_word_that_is_not_an_array_exits_one(z_file, capsys):
    code, out = run(capsys, ["classify", "--matrix", z_file, "--word", '{"1": 2}'])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert err["message"] == "word must be a JSON array of integers"


def test_conditions_without_matrix_or_v_exits_one(capsys):
    code, out = run(capsys, ["conditions", "--word", WORD_JSON])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert err["message"] == "need --matrix or --v"


def test_missing_flag_exits_one(capsys):
    code, out = run(capsys, ["classify", "--word", WORD_JSON])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "input"


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_domain_error_exits_two(capsys):
    code, out = run(capsys, ["sample", "--v", "[2,1,3]", "--word", "[2]"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "domain"
    assert err["kind"]
    code, out = run(capsys, ["conditions", "--v", "[4,3,2,1]", "--word", "[1,2,1]"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "domain",
        "kind": "DomainError",
        "message": "no subexpression: endpoint is not below the word's product",
    }


def test_tnn_check_golden(z_file, capsys):
    code, out = run(capsys, ["tnn-check", "--matrix", z_file, "--word", WORD_JSON])
    assert code == 0
    data = json.loads(out)
    assert data["totally_nonnegative"] is False
    assert data["descent_steps"] == [4]


def test_sample_deterministic_and_nonnegative(tmp_path, capsys):
    argv = ["sample", "--v", "[1,3,2,4]", "--word", WORD_JSON, "--seed", "7"]
    code_a, out_a = run(capsys, argv)
    code_b, out_b = run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    data = json.loads(out_a)
    # Each t is read once and the group word built from the values read:
    # both are the ones seed 7 has always given.
    assert data["t"] == {"1": "2", "2": "7", "3": "2/9", "4": "1/3"}
    assert data["group_word"] == [
        {"y": [3, "2"]}, {"y": [2, "7"]}, {"y": [1, "2/9"]}, {"y": [3, "1/3"]}, {"s": [2]}
    ]
    path = tmp_path / "sampled.json"
    path.write_text(json.dumps(data["matrix"]))
    code, out = run(capsys, ["tnn-check", "--matrix", str(path), "--word", WORD_JSON])
    assert code == 0
    assert json.loads(out)["totally_nonnegative"] is True


def test_conditions_by_positive_trace(capsys):
    code, out = run(
        capsys, ["conditions", "--v", "[1,3,2,4]", "--word", WORD_JSON]
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"trace", "zero", "nonzero"}
    assert all("poly" in rec for rec in data["nonzero"])
    code, out = run(
        capsys, ["conditions", "--v", "[1,3,2,4]", "--word", "[3,2,1,3,2,3]"]
    )
    assert code == 0
    assert json.loads(out)["trace"]["marks"] == ["o", "o", "o", "o", "+", "o"]


def test_conditions_above_single_digit_degree_omit_poly(capsys):
    # Entry names a{i}{j} cannot be formed at d = 10; the records still come.
    v, word = json.dumps(list(range(1, 11))), json.dumps(list(range(1, 10)))
    code, out = run(capsys, ["conditions", "--v", v, "--word", word])
    assert code == 0
    data = json.loads(out)
    records = data["zero"] + data["nonzero"]
    assert [rec["k"] for rec in data["nonzero"]] == list(range(1, 10))
    assert all("rows" in rec and "cols" in rec and "poly" not in rec for rec in records)


def test_conditions_omit_poly_exactly_on_minors_above_the_expansion_size(capsys):
    # At d = 8 every entry name has single digits, yet the seven minors of
    # size 7, at the steps with letter 7 on this word for w0, carry no poly.
    word = [7, 6, 7, 5, 6, 7, 4, 5, 6, 7, 3, 4, 5, 6, 7, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7]
    code, out = run(capsys, ["conditions", "--v", "[5,6,7,8,1,2,3,4]", "--word", json.dumps(word)])
    assert code == 0
    data = json.loads(out)
    records = data["zero"] + data["nonzero"]
    assert len(data["zero"]) == 16 and len(records) == 28
    assert sorted(rec["k"] for rec in records if "poly" not in rec) == [1, 3, 6, 10, 15, 21, 28]
    assert all(("poly" in rec) == (len(rec["rows"]) <= 6) for rec in records)


def test_conditions_by_matrix(z_file, capsys):
    code, out = run(capsys, ["conditions", "--matrix", z_file, "--word", WORD_JSON])
    assert code == 0
    data = json.loads(out)
    assert [rec["k"] for rec in data["zero"]] == [1, 5]
    assert [rec["k"] for rec in data["nonzero"]] == [2, 3]


@pytest.mark.parametrize("command", ["conditions", "diagram"])
def test_matrix_and_v_together_exit_one(z_file, capsys, command):
    # w0 is not below the word's product, and the matrix would hide that.
    argv = [command, "--matrix", z_file, "--v", "[4,3,2,1]", "--word", WORD_JSON]
    code, out = run(capsys, argv)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert "--matrix" in err["message"] and "--v" in err["message"]


@pytest.mark.parametrize(
    "kind, extra, flag",
    [
        ("classical", ["--d", "4", "--matrix", "Z"], "--matrix"),
        ("classical", ["--d", "4", "--v", "[4,3,2,1]"], "--v"),
        ("classical", ["--d", "4", "--matrix", "Z", "--v", "[4,3,2,1]"], "--matrix"),
        ("upper", ["--d", "7", "--matrix", "Z"], "--d"),
        ("lower", ["--d", "4", "--matrix", "Z"], "--d"),
        ("ansatz", ["--d", "4", "--v", "[1,3,2,4]"], "--d"),
    ],
    ids=[
        "classical-matrix", "classical-v", "classical-both", "upper-d", "lower-d", "ansatz-d"
    ],
)
def test_diagram_refuses_flags_its_kind_does_not_read(z_file, capsys, kind, extra, flag):
    extra = [z_file if a == "Z" else a for a in extra]
    argv = ["diagram", "--kind", kind, "--word", WORD_JSON, "--format", "json"] + extra
    code, out = run(capsys, argv)
    assert code == 1
    err = json.loads(out)["error"]
    assert err == {"type": "input", "message": f"{flag} is not read by --kind {kind}"}


def test_diagram_text_golden(z_file, capsys, tmp_path):
    import pathlib

    golden = (pathlib.Path(__file__).parent / "golden" / "ansatz_102.txt").read_text()
    code, out = run(
        capsys,
        ["diagram", "--matrix", z_file, "--word", WORD_JSON, "--format", "text"],
    )
    assert code == 0
    assert out.rstrip("\n") == golden.rstrip("\n")


def test_diagram_svg(z_file, capsys):
    code, out = run(
        capsys,
        [
            "diagram",
            "--matrix",
            z_file,
            "--word",
            WORD_JSON,
            "--kind",
            "upper",
            "--format",
            "svg",
        ],
    )
    assert code == 0
    assert out.lstrip().startswith("<svg")


def test_diagram_svg_of_a_positive_sample_at_degree_8(tmp_path, capsys):
    # tnn-check and factorize read its minors off the sweep's running
    # table, which moves both rows and columns on this word; its ansatz
    # arrangement, drawn in one pass over the columns, keeps every byte of
    # the golden SVG.
    w0_word = json.dumps([j for i in range(7, 0, -1) for j in range(i, 8)])
    argv = ["sample", "--v", "[5,6,7,8,1,2,3,4]", "--word", w0_word, "--seed", "7"]
    code, out = run(capsys, argv)
    assert code == 0
    path = tmp_path / "sample8.json"
    path.write_text(json.dumps(json.loads(out)["matrix"]))
    code, out = run(capsys, ["tnn-check", "--matrix", str(path), "--word", w0_word])
    assert code == 0 and json.loads(out)["totally_nonnegative"] is True
    code, out = run(capsys, ["factorize", "--matrix", str(path), "--word", w0_word])
    assert code == 0 and json.loads(out)["verified"] is True
    argv = ["diagram", "--kind", "ansatz", "--matrix", str(path), "--word", w0_word]
    code, out = run(capsys, argv + ["--format", "svg"])
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "ansatz_sample8.svg").read_text()


def test_diagram_text_of_a_generic_flag_at_degree_16(capsys):
    # All 120 steps of the positive trace of e on a word for w0 stay, and
    # the text drawing is well inside the text drawing limit.
    w0_word = json.dumps([j for i in range(15, 0, -1) for j in range(i, 16)])
    e = json.dumps(list(range(1, 17)))
    argv = ["diagram", "--kind", "ansatz", "--v", e, "--word", w0_word, "--format", "text"]
    code, out = run(capsys, argv)
    assert code == 0
    assert "t120" in out and "t121" not in out


def test_text_drawing_above_the_limit_exits_two(z_file, capsys, monkeypatch):
    # The cells are counted before the grid is built.  The real limit needs
    # a d = 64 drawing, too slow here, so the limit is lowered instead.
    monkeypatch.setitem(LIMITS, "text drawing", (10, LIMITS["text drawing"][1]))
    argv = ["diagram", "--matrix", z_file, "--word", WORD_JSON, "--format", "text"]
    code, out = run(capsys, argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "DomainError"
    pattern = r"text drawing of \d+ cells is above the text drawing limit 10"
    assert re.fullmatch(pattern, error["message"])


def test_diagram_json_classical(capsys):
    code, out = run(
        capsys,
        [
            "diagram",
            "--kind",
            "classical",
            "--word",
            WORD_JSON,
            "--d",
            "4",
            "--format",
            "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "classical"
    assert data["final"] == [4, 3, 1, 2]
    assert len(data["columns"]) == 5


def test_diagram_classical_needs_d(capsys):
    code, out = run(capsys, ["diagram", "--kind", "classical", "--word", WORD_JSON])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "input"


@pytest.mark.parametrize("fmt", ["text", "svg", "json"])
@pytest.mark.parametrize("d", ["0", "-3"])
def test_diagram_classical_degree_below_one(capsys, d, fmt):
    argv = ["diagram", "--kind", "classical", "--d", d, "--word", "[]"]
    code, out = run(capsys, argv + ["--format", fmt])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "input"
    assert error["message"] == f"strand count must be at least 1, got {d}"


ABOVE = LIMITS["degree"][0] + 1
E_ABOVE = json.dumps(list(range(1, ABOVE + 1)))


@pytest.mark.parametrize(
    "argv",
    [
        ["diagram", "--kind", "classical", "--word", "[1]", "--d", str(ABOVE)],
        ["rpoly", "--v", E_ABOVE, "--w", json.dumps(list(range(ABOVE, 0, -1)))],
        ["sample", "--v", E_ABOVE, "--word", "[1]"],
        ["conditions", "--v", E_ABOVE, "--word", "[1]"],
    ],
    ids=["diagram", "rpoly", "sample", "conditions"],
)
def test_degree_above_the_limit_exits_two(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 2
    assert json.loads(out) == {
        "error": {
            "type": "domain",
            "kind": "DomainError",
            "message": f"degree {ABOVE} is above the degree limit {ABOVE - 1}",
        }
    }


def test_diagram_ansatz_carries_minors(z_file, capsys):
    code, out = run(
        capsys,
        ["diagram", "--matrix", z_file, "--word", WORD_JSON, "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    minors = [rec["minor"] for rec in data["chambers"] if "minor" in rec]
    assert {"rows": [1, 2, 4], "cols": [1, 3, 4]} in minors
    assert len(minors) == 9


def test_out_flag_writes_file(z_file, capsys, tmp_path):
    dest = tmp_path / "result.json"
    code, out = run(
        capsys,
        [
            "factorize",
            "--matrix",
            z_file,
            "--word",
            WORD_JSON,
            "--out",
            str(dest),
        ],
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["verified"] is True


def test_matrix_from_stdin(capsys, monkeypatch):
    matrix_text = json.dumps(matrix_to_json(s102_matrix()))
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix_text))
    code, out = run(capsys, ["classify", "--matrix", "-", "--word", WORD_JSON])
    assert code == 0
    assert json.loads(out)["marks"] == ["+", "o", "o", "-", "+"]


def test_missing_matrix_file_exits_one(capsys, tmp_path):
    code, out = run(
        capsys,
        ["classify", "--matrix", str(tmp_path / "absent.json"), "--word", WORD_JSON],
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "input"


def test_unwritable_out_path_exits_one(z_file, capsys, tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out = run(
        capsys,
        ["classify", "--matrix", z_file, "--word", WORD_JSON, "--out", str(dest)],
    )
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert err["message"].startswith(f"cannot write output file {dest}")
    assert not dest.exists()


def test_closed_stdout_exits_one_without_traceback():
    # The read end of the pipe is closed before the child has started, so
    # its first write to stdout fails with EPIPE.
    src = str(Path(deodhar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["conditions", "--v", "[1,3,2,4]", "--word", "[3,2,1,3,2]"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "deodhar.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err
