"""Source hygiene checks that need no linter: every import and private name is used.

A name bound by an import in ``src/`` or ``demos/`` must be read somewhere
in the same module, or, in a package ``__init__``, be listed in
``__all__``. ``from __future__`` imports are exempt. A private function,
class or constant (a leading underscore, not a dunder) defined at module
level must be read somewhere in the same module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")])


def imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def private_definitions(tree):
    """(name, line) of every private name a module-level def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


def used_names(tree):
    """Names the module reads, plus the strings its ``__all__`` lists."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never uses: {unused}"


def test_detects_an_unused_import():
    source = "import math\nimport os\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    tree = ast.parse(source)
    unused = {name for name, _ in imported_names(tree) if name not in used_names(tree)}
    assert unused == {"math", "dumps"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in private_definitions(tree) if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} defines private names it never reads: {unused}"


def test_detects_an_unused_private_name():
    source = (
        "_LIMIT = 1\n_SPARE = 2\n__all__ = []\n"
        "def _check(x):\n    return x < _LIMIT\n"
        "def _orphan():\n    pass\n"
        "class _Orphan:\n    pass\n"
        "print(_check(0))\n"
    )
    tree = ast.parse(source)
    unused = {name for name, _ in private_definitions(tree) if name not in used_names(tree)}
    assert unused == {"_SPARE", "_orphan", "_Orphan"}
