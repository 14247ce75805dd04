"""Source hygiene checks that need no linter: every import and private name is used.

A name bound by an import in ``src/``, ``demos/`` or ``tests/`` must be read
somewhere in the same module, or, in a package ``__init__``, be listed in
``__all__``. ``from __future__`` imports are exempt. A private function,
class or constant (a leading underscore, not a dunder) defined at module
level must be read somewhere in the same module. Every name
``nmqwalk.__all__`` lists must exist in the package, and every function it
lists must be imported by the command line (``cli.py``) or a demo: the
public surface is what they call. No module under
``src/`` imports scipy when it is itself imported: ``scipy.optimize`` alone
takes about 0.6 s to load, so it is imported inside the functions that use
it.
"""

import ast
import inspect
from pathlib import Path

import pytest

import nmqwalk

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py")])
#: the callers the public surface is for
CLIENTS = sorted([ROOT / "src" / "nmqwalk" / "cli.py", *(ROOT / "demos").glob("*.py")])


def imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def module_level_imports(tree):
    """(module, line) of every absolute import that runs when the module is imported.

    Function bodies run only when called, so imports inside them are skipped;
    class bodies and ``if``/``try`` blocks at module level are not.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno
        stack.extend(ast.iter_child_nodes(node))


def package_imports(tree):
    """Names a module imports from ``nmqwalk``, or from inside it by a relative import."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "nmqwalk")
        for alias in node.names
    }


def scipy_imports(tree):
    return {(name, line) for name, line in module_level_imports(tree) if name.split(".")[0] == "scipy"}


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


def test_every_exported_name_exists():
    missing = [name for name in nmqwalk.__all__ if not hasattr(nmqwalk, name)]
    assert not missing, f"nmqwalk.__all__ lists names the package does not define: {missing}"


def test_every_exported_function_has_a_client():
    imported = set().union(
        *(package_imports(ast.parse(path.read_text(encoding="utf-8"))) for path in CLIENTS)
    )
    unused = [
        name
        for name in nmqwalk.__all__
        if inspect.isfunction(getattr(nmqwalk, name)) and name not in imported
    ]
    assert not unused, (
        f"nmqwalk.__all__ lists functions neither cli.py nor a demo imports: {unused}"
    )


def test_detects_a_package_import():
    source = (
        "import nmqwalk\nfrom json import dumps\nfrom nmqwalk import witness_series\n"
        "from nmqwalk.walk import WalkConfig as Config\nfrom .spectral import disambiguate\n"
        "from nmqwalker import walk\n"
    )
    assert package_imports(ast.parse(source)) == {"witness_series", "WalkConfig", "disambiguate"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_scipy_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{name} (line {line})" for name, line in sorted(scipy_imports(tree))]
    assert not found, (
        f"{path.relative_to(ROOT)} imports scipy at module level: {found}; "
        "import it inside the function that uses it"
    )


def test_detects_a_module_level_scipy_import():
    source = (
        "import numpy\nfrom scipy.optimize import minimize\n"
        "if numpy:\n    import scipy.linalg as sla\n"
        "def fit():\n    from scipy.optimize import curve_fit\n    return curve_fit\n"
        "class Solver:\n    import scipy\n"
        "from .spectral import fit_mfbf\n"
    )
    assert scipy_imports(ast.parse(source)) == {
        ("scipy.optimize", 2),
        ("scipy.linalg", 4),
        ("scipy", 9),
    }
