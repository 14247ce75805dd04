"""Source hygiene checks that need no linter: every import and private name is used.

A name bound by an import in ``src/``, ``demos/`` or ``tests/`` must be read
somewhere in the same module, or, in a package ``__init__``, be listed in
``__all__``. ``from __future__`` imports are exempt. A private function,
class or constant (a leading underscore, not a dunder) defined at module
level must be read somewhere in the same module. Every name
``nmqwalk.__all__`` lists must exist in the package, and every function it
lists must be imported by the command line (``cli.py``) or a demo: the
public surface is what they call. Likewise every field of a dataclass it
lists must be named there, as an attribute or as a keyword argument.
``src/`` imports no scipy, at any depth: numpy is its one run-time
dependency, and scipy serves the tests' oracles alone. Every error class
of ``nmqwalk.exceptions`` but the base ``NmqwalkError`` is raised by some
``raise`` statement in ``src/``: an error nothing raises is public surface
nothing needs. The README's config reference lists exactly the keys
``cli.parse_config`` accepts, each with its kind and default, and every
numeric range it states is the one ``parse_config`` enforces.
"""

import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

import nmqwalk
import nmqwalk.cli as cli
import nmqwalk.exceptions

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


def package_imports(tree):
    """Names a module imports from ``nmqwalk``, or from inside it by a relative import."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "nmqwalk")
        for alias in node.names
    }


def scipy_import_sites(tree):
    """(enclosing function or None, module, line) of every scipy import, at any depth."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            for module in modules:
                if module.split(".")[0] == "scipy":
                    yield function, module, child.lineno
            yield from visit(child, function)

    return set(visit(tree, None))


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


def attribute_and_keyword_names(tree):
    """Names a module uses as an attribute (``x.name``) or a keyword (``f(name=...)``)."""
    return {
        node.attr if isinstance(node, ast.Attribute) else node.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) or (isinstance(node, ast.keyword) and node.arg)
    }


def unnamed_fields(objects, named):
    """``Class.field`` for every field of a dataclass among ``objects`` not in ``named``."""
    return [
        f"{obj.__name__}.{f.name}"
        for obj in objects
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
        for f in dataclasses.fields(obj)
        if f.name not in named
    ]


def test_every_exported_dataclass_field_has_a_client():
    """A field neither cli.py nor a demo reads or sets is public surface nothing needs.

    The rule matches names, not types: a field passes when any attribute or
    keyword of the clients shares its name. So ``MonotoneFit.family``, read
    by no one, passed while ``family=`` was also a keyword of
    ``disambiguate``.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in CLIENTS]
    named = set().union(*map(attribute_and_keyword_names, trees))
    unnamed = unnamed_fields([getattr(nmqwalk, name) for name in nmqwalk.__all__], named)
    assert not unnamed, (
        f"dataclasses in nmqwalk.__all__ have fields neither cli.py nor a demo names: {unnamed}"
    )


def test_detects_an_unnamed_dataclass_field():
    source = "s = Series(times=t, **extra)\nprint(s.values, report.fit.t0)\n"
    named = attribute_and_keyword_names(ast.parse(source))
    assert named == {"times", "values", "fit", "t0"}

    @dataclasses.dataclass
    class Series:
        times: list
        values: list
        weights: list

    @dataclasses.dataclass
    class Fit:
        t0: float
        family: str

    class Plain:
        spare = 0

    assert unnamed_fields([Series, Fit, Plain, print], named) == ["Series.weights", "Fit.family"]


def test_detects_a_package_import():
    source = (
        "import nmqwalk\nfrom json import dumps\nfrom nmqwalk import witness_series\n"
        "from nmqwalk.walk import WalkConfig as Config\nfrom .spectral import disambiguate\n"
        "from nmqwalker import walk\n"
    )
    assert package_imports(ast.parse(source)) == {"witness_series", "WalkConfig", "disambiguate"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_never_imports_scipy(path):
    sites = scipy_import_sites(ast.parse(path.read_text(encoding="utf-8")))
    assert not sites, f"scipy imports in {path.relative_to(ROOT)}, (function, module, line): {sites}"


def test_detects_every_scipy_import_site():
    # module level, in an if block, in a class body and in nested functions
    source = (
        "import numpy\nfrom scipy.optimize import minimize\n"
        "def fit():\n    from scipy.optimize import curve_fit\n"
        "    def inner():\n        import scipy.linalg as sla\n    return curve_fit\n"
        "class Solver:\n    import scipy\n"
        "if numpy:\n    import scipy.signal\n"
        "from .spectral import fit_mfbf\n"
    )
    assert scipy_import_sites(ast.parse(source)) == {
        (None, "scipy.optimize", 2),
        ("fit", "scipy.optimize", 4),
        ("inner", "scipy.linalg", 6),
        (None, "scipy", 9),
        (None, "scipy.signal", 11),
    }


def raised_names(tree):
    """Names of the classes a module's ``raise`` statements raise, called or bare."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    raised = set().union(
        *(raised_names(ast.parse(path.read_text(encoding="utf-8"))) for path in PACKAGE)
    )
    base = nmqwalk.exceptions.NmqwalkError
    errors = [
        name
        for name, obj in vars(nmqwalk.exceptions).items()
        if inspect.isclass(obj) and issubclass(obj, base) and obj is not base
    ]
    assert errors, "nmqwalk.exceptions defines no error class"
    unraised = sorted(set(errors) - raised)
    assert not unraised, f"nmqwalk.exceptions defines errors no raise in src/ raises: {unraised}"


def test_detects_every_raised_name():
    # called, bare, qualified and nested raises count; a re-raise, an
    # instantiation without raise and a name in an except clause do not
    source = (
        "from . import exceptions\n"
        "def check(x):\n    if x:\n        raise KernelRangeError(f'{x}')\n"
        "    try:\n        pass\n    except FitError:\n        raise\n"
        "    err = NonInvertibleMapError('kept')\n"
        "    raise exceptions.ConfigError('bad') from None\n"
        "class Walker:\n    def step(self):\n        raise NonPhysicalStateError\n"
    )
    assert raised_names(ast.parse(source)) == {
        "KernelRangeError",
        "ConfigError",
        "NonPhysicalStateError",
    }


def schema_keys():
    """Dotted key -> (kind, default) of every key ``cli.parse_config`` accepts,
    and noise parameter -> the models that require it, in schema order."""
    keys, required = {}, {}

    def flatten(schema, prefix):
        for key, spec in schema.items():
            if isinstance(spec, dict):
                flatten(spec, f"{prefix}{key}.")
            else:
                keys[prefix + key] = spec

    flatten(cli._SCHEMA, "")
    for model in cli._NOISE_MODELS:
        for key, spec in cli._noise_schema({"model": model}).items():
            keys[f"noise.{key}"] = spec
            if spec[1] is cli._REQUIRED:
                required.setdefault(key, []).append(model)
    return keys, required


def kind_name(kind):
    """The name the README's Kind column gives a schema kind."""
    if isinstance(kind, cli._ListOf):
        count = f"{kind.length} " if kind.length else ""
        return f"list of {count}{kind_name(kind.item)}s"
    if isinstance(kind, tuple):
        return "choice"
    return {int: "integer", float: "number", cli._ANGLE: "angle", str: "string"}[kind]


def readme_config_table(text):
    """Key -> (kind, default, allowed) cells of each row of a config reference table."""
    rows = {}
    for line in text.splitlines():
        key = re.match(r"\| `([^`]+)` \|", line)
        if key:
            cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[2:-1]]
            rows[key.group(1)] = tuple(cells)
    return rows


def accepts(key, value, required):
    """Whether ``parse_config`` accepts ``value`` for the dotted ``key``, all else default."""
    section, _, name = key.rpartition(".")
    if section == "noise":
        model = required[name][0]
        params = {p: 1.0 for p, models in required.items() if model in models}
        doc = {"noise": {"model": model, **params, name: value}}
    else:
        doc = {section: {name: value}} if section else {name: value}
    try:
        cli.parse_config(json.dumps(doc))
    except nmqwalk.ConfigError:
        return False
    return True


def range_faults(key, kind, allowed, defaults, required):
    """How ``parse_config`` departs from the numeric range an Allowed cell states.

    The cell's range is the text before any ";": "any", ">= b", "> b" or
    "[lo, hi]", where a bound is a number or a key of the same section (its
    default stands in). Each bound is tried at and just past it.
    """
    text = allowed.split(";")[0].strip()
    eps = 1 if kind is int else 1e-9
    section = key.rpartition(".")[0]

    def bound(word):
        sibling = f"{section}.{word}" if section else word
        return defaults[sibling] if sibling in defaults else (int if kind is int else float)(word)

    if text == "any":
        big = 2**70 if kind is int else 1e300
        trials = [(-big, True), (big, True)]
    elif m := re.fullmatch(r"(>=|>) (\S+)", text):
        b = bound(m.group(2))
        step = eps if kind is int else eps * max(1.0, abs(b))
        trials = [(b, m.group(1) == ">="), (b - step, False), (b + step, True)]
    elif m := re.fullmatch(r"\[(\S+), (\S+)\]", text):
        lo, hi = bound(m.group(1)), bound(m.group(2))
        trials = [(lo, True), (hi, True), (lo - eps, False), (hi + eps, False)]
    else:
        return [f"{key}: unrecognized range {allowed!r}"]
    return [
        f"{key}: {value!r} is {'refused' if ok else 'accepted'}, against {allowed!r}"
        for value, ok in trials
        if accepts(key, value, required) != ok
    ]


SCHEMA_KEYS, REQUIRED_BY = schema_keys()
README_TABLE = readme_config_table(README.read_text(encoding="utf-8"))
DEFAULTS = {key: default for key, (_, default) in SCHEMA_KEYS.items()}
NUMERIC_KEYS = [key for key, (kind, _) in SCHEMA_KEYS.items() if kind in (int, float, cli._ANGLE)]


def test_readme_config_table_matches_the_schema():
    assert sorted(README_TABLE) == sorted(SCHEMA_KEYS)
    for key, (kind, default) in SCHEMA_KEYS.items():
        kind_cell, default_cell, allowed = README_TABLE[key]
        assert kind_cell == kind_name(kind), key
        if default is cli._REQUIRED:
            assert default_cell == f"required ({', '.join(REQUIRED_BY[key.split('.')[1]])})", key
        else:
            assert default_cell.strip("`") == json.dumps(default), key
        choices = kind.item if isinstance(kind, cli._ListOf) else kind
        if isinstance(choices, tuple):
            listed = re.findall(r"`([^`]+)`", allowed.split(" (")[0])
            assert sorted(listed) == sorted(choices), key


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_readme_config_range_holds(key):
    kind = SCHEMA_KEYS[key][0]
    assert not range_faults(key, kind, README_TABLE[key][2], DEFAULTS, REQUIRED_BY)


def test_detects_a_stale_config_table():
    table = readme_config_table(
        "| `walk.steps` | integer | 100 | >= 1 |\n"
        "| `walk.initial_position` | integer | 0 | \\|x\\| <= steps + 1 |\n"
        "| `choi.t2_max` | number | 20.0 | > t1; the grid ends at t2_max |\n"
        "Plain text | `not.a.row` |\n"
    )
    assert table == {
        "walk.steps": ("integer", "100", ">= 1"),
        "walk.initial_position": ("integer", "0", "\\|x\\| <= steps + 1"),
        "choi.t2_max": ("number", "20.0", "> t1; the grid ends at t2_max"),
    }
    faults = [
        range_faults(key, SCHEMA_KEYS[key][0], table[key][2], DEFAULTS, REQUIRED_BY)
        for key in table
    ]
    assert faults == [
        ["walk.steps: 0 is accepted, against '>= 1'"],
        ["walk.initial_position: unrecognized range '\\\\|x\\\\| <= steps + 1'"],
        [],
    ]
