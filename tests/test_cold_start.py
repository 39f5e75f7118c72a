"""Cold start: each command and a bare `import deodhar` in a fresh interpreter.

`import deodhar` registers every library module in ``sys.modules`` and runs
none of them; a module runs on first attribute access.  In-process tests
find every module already run, so a command that reads a module it never
loads would pass them and fail a user.  These tests start new interpreters.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deodhar
from deodhar import diagrams
from deodhar.cli import _build_parser, main
from deodhar.linalg import matrix_to_json

from support import S102_WORD, s102_matrix

PACKAGE = Path(deodhar.__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
LIBRARY = ["components", "diagrams", "errors", "linalg", "pinning", "positivity", "subexpr", "weyl"]
WORD_JSON = json.dumps(list(S102_WORD))

# Runs its code after an audit hook that records, by module name, each
# `deodhar` module whose body runs; the last line of stderr is that list.
RECORD_RUNS = f"""
import os, sys
ran = []
def _hook(event, args):
    path = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if os.path.dirname(path) == {str(PACKAGE)!r}:
        ran.append(os.path.basename(path)[:-3])
sys.addaudithook(_hook)
try:
    exec(sys.argv[1])
finally:
    print(sorted(ran), file=sys.stderr)
"""


def child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60
    )


def modules_run(code: str, *argv: str) -> tuple[subprocess.CompletedProcess, list]:
    proc = child("-c", RECORD_RUNS, code, *argv)
    return proc, ast.literal_eval(proc.stderr.splitlines()[-1])


@pytest.fixture
def z_file(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps(matrix_to_json(s102_matrix())))
    return str(path)


COMMANDS = {
    "classify": ["classify", "--matrix", "Z", "--word", WORD_JSON],
    "factorize": ["factorize", "--matrix", "Z", "--word", WORD_JSON],
    "conditions": ["conditions", "--v", "[1,3,2,4]", "--word", WORD_JSON],
    "rpoly": ["rpoly", "--v", "[1,2,3,4]", "--w", "[4,3,2,1]"],
    "tnn-check": ["tnn-check", "--matrix", "Z", "--word", WORD_JSON],
    "sample": ["sample", "--v", "[1,3,2,4]", "--word", WORD_JSON, "--seed", "7"],
    "diagram-classical": [
        "diagram", "--kind", diagrams.CLASSICAL, "--word", WORD_JSON, "--d", "4",
    ],
    "diagram-upper": ["diagram", "--kind", diagrams.UPPER, "--matrix", "Z", "--word", WORD_JSON],
    "diagram-lower": [
        "diagram", "--kind", diagrams.LOWER, "--v", "[1,3,2,4]", "--word", WORD_JSON,
        "--format", "json",
    ],
    "diagram-ansatz": [
        "diagram", "--kind", diagrams.ANSATZ, "--matrix", "Z", "--word", WORD_JSON,
        "--format", "svg",
    ],
    "input-error": ["rpoly", "--v", "[true,2,3]", "--w", "[3,2,1]"],
    "domain-error": ["conditions", "--v", "[4,3,2,1]", "--word", "[1,2,1]"],
}
EXIT_CODES = {"input-error": 1, "domain-error": 2}


@pytest.mark.parametrize("case", COMMANDS)
def test_command_in_a_fresh_interpreter_matches_main(case, z_file, capsys):
    argv = [z_file if a == "Z" else a for a in COMMANDS[case]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_CODES.get(case, 0), out
    proc = child("-m", "deodhar.cli", *argv)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


def test_rpoly_runs_no_module_it_does_not_read():
    proc, ran = modules_run(
        "from deodhar.cli import main; sys.exit(main(sys.argv[2:]))",
        *COMMANDS["rpoly"],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('"q^6 - ')
    assert "subexpr" in ran
    assert not {"components", "positivity", "diagrams"} & set(ran)


def test_help_runs_no_library_module():
    proc, ran = modules_run("from deodhar.cli import main; sys.exit(main(['--help']))")
    assert proc.returncode == 0, proc.stderr
    assert ran == ["__init__", "cli"]


def test_bare_import_registers_every_module_and_runs_none():
    proc, ran = modules_run(
        "import deodhar\n"
        "print(sorted(m for m in sys.modules if m.startswith('deodhar.')))\n"
        "print(sorted(set(deodhar.__all__) - set(dir(deodhar))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert ran == ["__init__"]
    registered, undir = map(ast.literal_eval, proc.stdout.splitlines())
    assert registered == [f"deodhar.{m}" for m in LIBRARY]
    assert undir == []


# Six threads behind a barrier first-read names of three unrun modules, each
# through the package or through its module, switching as often as they can;
# then every export is read.
THREADED_FIRST_USE = """
import threading
import deodhar
sys.setswitchinterval(1e-6)
reads = [
    lambda: deodhar.classify, lambda: deodhar.components.factorize,
    lambda: deodhar.render, lambda: deodhar.diagrams.build_arrangement,
    lambda: deodhar.is_totally_nonnegative, lambda: deodhar.positivity.sample_positive,
]
barrier = threading.Barrier(len(reads))
errors = []
def first_read(read):
    barrier.wait()
    try:
        read()
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_read, args=(read,)) for read in reads]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(errors)
print([name for name in deodhar.__all__ if not hasattr(deodhar, name)])
"""


@pytest.mark.parametrize("run", range(5))
def test_threaded_first_use_runs_each_module_once(run):
    proc, ran = modules_run(THREADED_FIRST_USE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
    assert ran == ["__init__", *LIBRARY]


def test_a_read_from_a_running_body_does_not_run_it_again():
    # No library module imports another in a cycle; this loader stands in
    # for one, reading a name of the module it runs before running its body.
    proc, ran = modules_run(
        "from importlib.machinery import SourceFileLoader\n"
        "run_body = SourceFileLoader.exec_module\n"
        "def exec_module(loader, module):\n"
        "    if module.__name__ == 'deodhar.errors':\n"
        "        try:\n"
        "            module.InputError\n"
        "        except AttributeError as exc:\n"
        "            print(exc)\n"
        "    run_body(loader, module)\n"
        "SourceFileLoader.exec_module = exec_module\n"
        "import deodhar\n"
        "print(deodhar.InputError.__module__)"
    )
    assert proc.returncode == 0, proc.stderr
    # Python 3.13 names the module's file in the message too.
    refused, home = proc.stdout.splitlines()
    assert refused.startswith("partially initialized module 'deodhar.errors' "), refused
    assert "has no attribute 'InputError' (most likely due to a circular import)" in refused
    assert home == "deodhar.errors"
    assert ran == ["__init__", "errors"]


def test_any_read_of_an_unrun_module_runs_it():
    # Not only a name the module lacks: its namespace, its docstring and its
    # listing are read from the run module too, so doctest finds its examples.
    proc, ran = modules_run(
        "import doctest, deodhar\n"
        "print('Permutation' in vars(deodhar.weyl))\n"
        "print(deodhar.linalg.__doc__.startswith('Exact'))\n"
        "print('classify' in dir(deodhar.components))\n"
        "print(doctest.testmod(deodhar.subexpr).attempted > 0)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True"] * 4
    assert {"weyl", "linalg", "components", "subexpr"} <= set(ran)


def _defining_modules() -> dict:
    """Each top-level name assigned by a `def`, `class` or `=` in a library module."""
    homes: dict = {}
    for module in LIBRARY:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes.setdefault(node.name, []).append(module)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        homes.setdefault(target.id, []).append(module)
    return homes


def test_star_import_binds_each_name_to_its_defining_module():
    homes = _defining_modules()
    exported = [name for name in deodhar.__all__ if name != "__version__"]
    assert {name: homes.get(name) for name in exported if len(homes.get(name, [])) != 1} == {}
    proc = child(
        "-c",
        "import json, sys\n"
        "from deodhar import *\n"
        "homes = json.loads(sys.argv[1])\n"
        "print([n for n, m in homes.items() if globals()[n] is not getattr(sys.modules[m], n)])\n"
        "print(__version__)",
        json.dumps({name: f"deodhar.{homes[name][0]}" for name in exported}),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", deodhar.__version__]


def test_traced_pass_leaves_no_wrapper_in_the_package():
    # bench/tracing.py patches each traced function in every `deodhar`
    # namespace that holds it, the package's included, and restores it.
    proc = child(
        "-c",
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import deodhar\n"
        "from tracing import Tracer\n"
        "tracer = Tracer(record_spans=False)\n"
        "patched = tracer.install()\n"
        "deodhar.classify(deodhar.matrix_from_json([[1, 1], [0, 1]]), [1])\n"
        "Tracer.uninstall(patched)\n"
        "print(tracer.calls['components.classify'])\n"
        "print([n for n in deodhar.__all__ if hasattr(getattr(deodhar, n), '__wrapped__')])",
        str(Path(__file__).resolve().parents[1] / "bench"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "[]"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        deodhar.no_such_name


def test_diagram_kind_choices_are_the_diagram_kinds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagram", "--help"])
    assert exc.value.code == 0
    kinds = [diagrams.CLASSICAL, diagrams.UPPER, diagrams.LOWER, diagrams.ANSATZ]
    assert "{" + ",".join(kinds) + "}" in capsys.readouterr().out
    assert _build_parser().parse_args(["diagram"]).kind == diagrams.ANSATZ
