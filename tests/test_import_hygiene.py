"""Every module-level import in the package is used by the module that makes it,
every private function, class, constant and method is read somewhere in the
package, starting the CLI imports neither ``dataclasses`` nor ``inspect``, a
json run does not import ``csv``, and a run executes only the submodules it
uses.

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
from collections import Counter
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module:name of each private module-level function, class and constant,
    and module:Class.name of each private method, in sources that no code in
    sources reads outside the name's own definition."""
    def reads(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))

    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum(map(reads, trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        defined = []  # (shown name, name, definition)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{f.name}", f.name, f) for f in node.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(n.id, n.id, None) for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
        for shown, name, node in defined:
            own = reads(node)[name] if node else 0
            if name.startswith("_") and not name.endswith("__") and read[name] == own:
                unread.append(f"{module}:{shown}")
    return sorted(unread)


def test_the_check_flags_an_unread_private_name():
    sources = {
        "a": ("_USED, _UNUSED = 1, 2\n_Alias = int\n\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n\n"
              "class _Thing:\n    def _helper(self):\n        return self._called()\n\n"
              "    def _called(self):\n        return 0\n\n    def __repr__(self):\n"
              "        return ''\n"),
        "b": "from .a import _Thing\n\ndef public():\n    return _Thing(), _Alias\n",
    }
    assert unread_private_names(sources) == [
        "a:_Thing._helper", "a:_UNUSED", "a:_recursive"]


def test_every_private_name_is_read():
    assert unread_private_names({p.stem: p.read_text() for p in SOURCES}) == []


def call_sites(sources: dict[str, str], name: str) -> list[str]:
    """module:name of the top-level function or class holding each call of
    name in sources, sorted; a call in module-level code shows as module:."""
    sites = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            sites += [f"{module}:{node.name if named else ''}" for call in ast.walk(node)
                      if isinstance(call, ast.Call)
                      and getattr(call.func, "id", getattr(call.func, "attr", None)) == name]
    return sorted(sites)


def test_the_check_finds_every_call_site():
    sources = {
        "a": ("def f():\n    g()\n    return x.g()\n\nclass C:\n    def m(self):\n"
              "        return g\n\ng()\n"),
        "b": "from .a import g\n\ndef h():\n    def inner():\n        return g(1)\n    return inner\n",
    }
    assert call_sites(sources, "g") == ["a:", "a:f", "a:f", "b:h"]


def test_one_sweep_loop():
    # The Γ-pair generator has one caller, the sweep engine, and the engine
    # is the only code of central_weights that decomposes: both sweeps are
    # views of it, so their pair loop cannot fork again.
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert call_sites(sources, "_pair_orbits") == ["central_weights:_pair_sweep"]
    assert call_sites(sources, "_pair_sweep") == [
        "central_weights:casimir_subadditivity_check", "central_weights:validate_central_weight"]
    assert call_sites({"central_weights": sources["central_weights"]}, "tensor_decompose") == [
        "central_weights:_pair_sweep"]


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


def test_a_json_run_does_not_import_csv():
    argv = ["verify-weight", "--type", "A2", "--kind", "lst", "--beta", "2", "--height", "2",
            "--format", "json"]
    code = f"import qbf.cli\nrc = qbf.cli.main({argv!r})\nprint((rc, 'csv' in sys.modules))"
    assert ast.literal_eval(fresh_interpreter(code)) == (0, False)


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
    (["oracle-sl2", "--q", "0.9", "--m", "8", "--n", "8"],
     ["root_system", "characters", "fusion", "qnorm", "sl2_oracle", "precision"]),
], ids=["casimir-check", "cb-region", "character", "oracle-sl2"])
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
