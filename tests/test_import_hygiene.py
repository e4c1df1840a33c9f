"""Every module-level import in the package is used by the module that makes it.

``__init__`` re-exports its imports and ``from __future__`` imports are
directives, so both are exempt.
"""

import ast
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
