"""Every module-level import in the package is used by the module that makes it,
and starting the CLI imports neither ``dataclasses`` nor ``inspect``.

``__init__`` re-exports its imports and ``from __future__`` imports are
directives, so both are exempt from the first check.  The records are
NamedTuples or small explicit classes: ``dataclasses`` (which imports
``inspect``) would cost every ``python -m qbf`` process its import and the
generation of each record's methods.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import qbf

SOURCES = sorted(Path(qbf.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
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
    code = (f"import sys; sys.path.insert(0, {str(Path(qbf.__file__).parent.parent)!r}); "
            "import qbf.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
