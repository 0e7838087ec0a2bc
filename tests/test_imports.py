"""Every name a module of the package imports is used there, and every name
the package exports resolves.  A name imported only so that a caller can
patch it at that binding site is marked ``# noqa: F401`` on its line, and
only such names are.  numpy is
imported inside the functions that call it, never when a module is
imported, and the runtime dependencies are exactly the third-party packages
the library imports."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vvmf

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "vvmf").glob("*.py"))

#: packages the library loads on first use only
ON_DEMAND = ("numpy",)


#: the bindings perfbench's tracer test reads in each module, used there or
#: not, and the module that defines each
TRACED_BINDINGS = {
    "mlde": {"compose_frobenius": "series", "modular_derivative": "mlde"},
    "constructions": {"compose_frobenius": "series", "modular_derivative": "mlde"},
    "cli": {"modular_derivative": "mlde"},
}


def marked_imports(path: Path) -> set[str]:
    """The names path imports on lines marked ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    return {alias.asname or alias.name for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if "# noqa: F401" in lines[alias.lineno - 1]}


def unused_imports(path: Path) -> list[str]:
    """The names path imports and never reads, outside ``# noqa: F401``
    lines; a name listed in the module's ``__all__`` counts as read."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def eager_imports(path: Path) -> list[str]:
    """The imports of an ON_DEMAND package that run when path is imported:
    every statement outside a function body, under an ``if``, ``try``,
    ``with`` or loop or in a class body included."""
    hits = []

    def visit(statements) -> None:
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            hits.extend(f"{path.name}:{node.lineno} {module}" for module in modules
                        if module.split(".")[0] in ON_DEMAND)
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return hits


def test_every_import_is_used_and_every_export_resolves():
    assert len(SOURCES) > 1
    assert [hit for path in SOURCES for hit in unused_imports(path)] == []
    assert [name for name in vvmf.__all__ if not hasattr(vvmf, name)] == []


def test_marked_imports_are_the_traced_bindings():
    # an unused import stays only as a binding site the tracer test patches,
    # and every such site stays bound to the function its module defines
    for path in SOURCES:
        assert marked_imports(path) <= set(TRACED_BINDINGS.get(path.stem, {})), path.name
    for module, names in TRACED_BINDINGS.items():
        for name, home in names.items():
            assert (getattr(importlib.import_module(f"vvmf.{module}"), name)
                    is getattr(importlib.import_module(f"vvmf.{home}"), name))


def test_unused_import_check_exempts_only_f401_marks(tmp_path):
    module = tmp_path / "marked.py"
    module.write_text(
        "import os  # noqa: F401  (a binding site)\n"
        "import sys  # noqa: E402\n"
        "from json import dumps, loads  # noqa\n"
        "from math import pi\n"
        "__all__ = ['loads']\n"
        "print(pi)\n"
    )
    assert unused_imports(module) == ["marked.py:2 sys", "marked.py:3 dumps"]
    assert marked_imports(module) == {"os"}


def defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds: a function or class, or
    the plain-name targets of an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def unread_private_names(paths: list[Path]) -> list[str]:
    """The module-level private names (one leading underscore, not dunders)
    of the modules at paths that no statement of those modules reads, other
    than the one that defines them: a name read only by its own body, or
    only by tests, counts as unread."""
    definitions = []
    reads = []
    for path in paths:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            definitions.extend((path, statement, name) for name in defined_names(statement)
                               if name.startswith("_") and not name.startswith("__"))
            names = {node.id for node in ast.walk(statement)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names.update(node.attr for node in ast.walk(statement)
                         if isinstance(node, ast.Attribute))
            names.update(alias.name for node in ast.walk(statement)
                         if isinstance(node, ast.ImportFrom) for alias in node.names)
            reads.append((statement, names))
    return [f"{path.name}:{statement.lineno} {name}" for path, statement, name in definitions
            if not any(name in names for other, names in reads if other is not statement)]


def test_every_private_name_is_read_in_the_package():
    # a helper whose only callers are tests belongs in tests/oracles.py
    assert unread_private_names(SOURCES) == []


def test_unread_private_check_sees_dead_helpers(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "_BASE = 24\n"
        "_used_elsewhere = 1\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _BASE\n"
        "class _Dead:\n    pass\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "def public():\n    return _from_second()\n"
    )
    second.write_text(
        "from first import _used_elsewhere\n"
        "def _from_second():\n    return _used_elsewhere\n"
        "def _only_by_attribute():\n    pass\n"
        "import first\nfirst.x = first._BASE + 0\n"
    )
    assert unread_private_names([first, second]) == [
        "first.py:3 _recursive", "first.py:5 _Dead", "second.py:4 _only_by_attribute",
    ]


def unraised_errors(errors: Path, paths: list[Path]) -> list[str]:
    """The exception classes errors defines, but its base class ``VvmfError``,
    that no ``raise`` statement of the other modules at paths names, as
    ``raise Name(...)`` or ``raise Name``."""
    defined = [node.name for node in ast.parse(errors.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef) and node.name != "VvmfError"]
    raised = set()
    for path in paths:
        if path == errors:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [name for name in defined if name not in raised]


def test_every_error_class_is_raised():
    # one class per input failure: a class that nothing raises is dead, and
    # a merged class cannot come back unraised
    errors = ROOT / "src" / "vvmf" / "errors.py"
    assert unraised_errors(errors, SOURCES) == []


def test_unraised_error_check_sees_dead_classes(tmp_path):
    errors, user = tmp_path / "errors.py", tmp_path / "user.py"
    errors.write_text(
        "class VvmfError(Exception):\n    pass\n"
        "class Raised(VvmfError):\n    pass\n"
        "class Bare(VvmfError):\n    pass\n"
        "class OnlyCaught(VvmfError):\n    pass\n"
        "class OnlyInItsModule(VvmfError):\n    pass\n"
        "def f():\n    raise OnlyInItsModule()\n"
    )
    user.write_text(
        "from errors import Bare, OnlyCaught, Raised\n"
        "def g():\n    try:\n        raise Raised('x')\n    except OnlyCaught:\n        raise\n"
        "def h():\n    raise Bare\n"
    )
    assert unraised_errors(errors, [errors, user]) == ["OnlyCaught", "OnlyInItsModule"]


def third_party_imports() -> set[str]:
    """The top-level packages outside the standard library that the modules
    of the package import, anywhere in their bodies."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names} - {"vvmf"}


def test_numpy_loads_on_first_use():
    assert [hit for path in SOURCES for hit in eager_imports(path)] == []


def test_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        deps = tomllib.load(handle)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps}
    assert declared == third_party_imports() == {"numpy", "mpmath"}


#: every exponent functor and the case split, in a fresh interpreter
FUNCTOR_PROBE = """
import cmath, sys
from vvmf.mlde import classify
from vvmf.reps import (ExponentData, GRank2Rep, Group, Rank2Rep, induced_exponents,
                       rank4_from_induction, rank4_from_sym3, rank4_from_tensor,
                       sym3_exponents, tensor_exponents)

def rank2(r1, r2):
    return Rank2Rep(cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2))

p = ((1 / 6 + 0.21) / 2, (1 / 6 - 0.21) / 2)
q = ((2 / 6 + 0.13) / 2, (2 / 6 - 0.13) / 2)
zeta = cmath.exp(2j * cmath.pi / 3)
rho = GRank2Rep(0, 1, zeta, zeta**2, 0.7 + 0.2j)
cases = [
    classify(rank4_from_sym3(rank2(*p)), sym3_exponents(ExponentData(p))),
    classify(rank4_from_tensor(rank2(*p), rank2(*q)),
             tensor_exponents(ExponentData(p), ExponentData(q))),
    classify(rank4_from_induction(rho.twist(1)),
             induced_exponents(ExponentData((1 / 3 + 0.11, 1 / 3 - 0.11), Group.G))),
]
print(*(report.case for report in cases), "numpy" in sys.modules)
"""


def test_exponent_functors_and_classify_never_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = subprocess.run([sys.executable, "-c", FUNCTOR_PROBE],
                           capture_output=True, text=True, timeout=60, env=env)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["cyclic", "noncyclic", "cyclic", "False"]


#: the numpy-free catalog jobs, emitted, in a fresh interpreter: every
#: classical series but h and Z
CATALOG_PROBE = """
import sys
from vvmf.cli import JobSpec, emit, run

names = ["E2", "E4", "E6", "Delta", "j", "K", "theta2_4", "theta3_4", "theta4_4", "f", "g",
         "Eta^-3", "Eta^5"]
texts = [emit(run(JobSpec.from_json({"command": "classical", "name": name, "order": 100})))
         for name in names]
print(len(texts), "numpy" in sys.modules)
"""


def test_catalog_series_emit_without_numpy():
    # the benchmark's catalog set-up runs one of these jobs, so loading
    # numpy on the way (about 150 ms) would show as set-up time
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = subprocess.run([sys.executable, "-c", CATALOG_PROBE],
                           capture_output=True, text=True, timeout=60, env=env)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["13", "False"]


def test_eager_import_check_sees_guarded_imports(tmp_path):
    module = tmp_path / "guarded.py"
    module.write_text(
        "import os\n"
        "if os.name:\n    import numpy as np\n"
        "try:\n    from numpy.linalg import eigvals\nexcept ImportError:\n    import numpy\n"
        "class C:\n    import numpy.fft\n"
        "def f():\n    import numpy\n"
    )
    assert eager_imports(module) == [
        "guarded.py:3 numpy", "guarded.py:5 numpy.linalg", "guarded.py:7 numpy",
        "guarded.py:9 numpy.fft",
    ]
