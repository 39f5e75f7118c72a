"""The README's examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from deodhar.cli import main
from deodhar.errors import LIMITS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


SHELL_LINES = [line for block in _blocks("sh") for line in block.splitlines()]
COMMANDS = [
    shlex.split(line, comments=True) for line in SHELL_LINES if line.startswith("deodhar ")
]


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A working directory holding the README's z.json."""
    (echo,) = [line for line in SHELL_LINES if line.endswith("> z.json")]
    (tmp_path / "z.json").write_text(re.fullmatch(r"echo '(.*)' > z\.json", echo)[1])
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_readme_has_commands():
    assert {argv[1] for argv in COMMANDS} >= {
        "classify", "factorize", "conditions", "rpoly", "tnn-check", "sample", "diagram"
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[1:3]) for a in COMMANDS])
def test_readme_command_exits_zero(readme_dir, capsys, argv):
    assert main(argv[1:]) == 0, capsys.readouterr().out


def test_readme_factorize_excerpt(readme_dir, capsys):
    (argv,) = [a for a in COMMANDS if a[1] == "factorize"]
    assert main(argv[1:]) == 0
    data = json.loads(capsys.readouterr().out)
    (excerpt,) = _blocks("json")
    expected = json.loads(excerpt)
    for key in ("t", "m", "group_word"):
        assert data[key] == expected[key]


def test_readme_library_example():
    (example,) = _blocks("python")
    exec(compile(example, "README.md", "exec"), {})


def test_readme_limits_match_the_table():
    section = README.split("### Limits\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (\d+) \|", section, flags=re.M)
    assert rows == [(name, str(limit)) for name, (limit, _) in LIMITS.items()]
