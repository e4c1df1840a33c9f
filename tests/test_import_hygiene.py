"""Every module-level import in the package is used by the module that makes it,
starting the CLI imports neither ``dataclasses`` nor ``inspect``, and a run
executes only the submodules it uses.

``from __future__`` imports are directives, so they are exempt from the first
check.  The records are NamedTuples or small explicit classes:
``dataclasses`` (which imports ``inspect``) would cost every ``python -m qbf``
process its import and the generation of each record's methods.  Since
``import qbf`` defers every submodule, the checks that start the CLI first
touch a name in each, so that every module's code has run.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import qbf

SOURCES = sorted(Path(qbf.__file__).parent.glob("*.py"))

# Statements for fresh_interpreter: the first runs every submodule, the second
# names the submodules whose code has run, read with vars() so that reading
# runs none (a module's namespace holds __builtins__ once its code has run).
RUN_EVERY_SUBMODULE = "from qbf import *\nqbf.precision.DIGITS\n"
EXECUTED = ("[name for name in qbf._EXPORTS"
            " if '__builtins__' in vars(sys.modules['qbf.' + name])]")


def fresh_interpreter(code: str) -> str:
    """The last line code prints in a new interpreter that has imported sys
    and qbf; code may read EXECUTED."""
    src = str(Path(qbf.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import qbf\n"
            + code.replace("EXECUTED", EXECUTED))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout.splitlines()[-1]


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import of source that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from .x import a, b\n\ndef f() -> a:\n    return os.sep\n")
    assert unused_imports(source) == ["b", "regex"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_import(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports of source, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_check_sees_every_import():
    source = ("import os.path\nfrom .x import dataclasses\n\n"
              "def f():\n    from dataclasses import field\n    return field\n")
    assert imported_modules(source) == {"os", "dataclasses"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    assert "dataclasses" not in imported_modules(path.read_text())


def test_cli_starts_without_dataclasses_or_inspect():
    code = ("import qbf.cli\n" + RUN_EVERY_SUBMODULE
            + "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), EXECUTED)")
    assert fresh_interpreter(code) == f"[] {list(qbf._EXPORTS)}"


def test_every_submodule_is_deferred():
    assert set(qbf._EXPORTS) == {p.stem for p in SOURCES} - {"__init__", "__main__", "cli"}


def test_import_and_build_execute_root_system_only():
    code = "qbf.build_root_system('A2')\nprint(EXECUTED)"
    assert fresh_interpreter(code) == "['root_system']"


@pytest.mark.parametrize("argv,executed", [
    (["casimir-check", "--type", "B2", "--height", "1"],
     ["root_system", "characters", "fusion", "central_weights", "precision"]),
    (["cb-region", "--type", "A2", "--q", "0.5", "--beta", "2", "--height", "2"],
     ["root_system", "qnorm", "cb_region", "precision"]),
    (["character", "--type", "G2", "--mu", "1,1"], ["root_system", "characters", "precision"]),
], ids=["casimir-check", "cb-region", "character"])
def test_a_command_executes_only_what_it_uses(argv, executed):
    code = f"import qbf.cli\nrc = qbf.cli.main({argv!r})\nprint((rc, EXECUTED))"
    assert ast.literal_eval(fresh_interpreter(code)) == (0, executed)


def test_first_touch_from_many_threads():
    # Each thread's first lookups may run the modules or wait for another
    # thread running them; none may see a module whose code has only partly run.
    code = """\
import threading
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
failures = []

def touch():
    barrier.wait(timeout=60)
    try:
        qbf.sl2_oracle.verify_norm_formula, qbf.tensor_decompose
    except Exception as exc:
        failures.append(repr(exc))

threads = [threading.Thread(target=touch, daemon=True) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
report = qbf.sl2_oracle.verify_norm_formula("1/2", 1, 2)
print(failures, sum(t.is_alive() for t in threads), report.passed)
"""
    assert fresh_interpreter(code) == "[] 0 True"
