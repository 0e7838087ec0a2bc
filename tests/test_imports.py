"""Every name a module of the package imports is used there, and every name
the package exports resolves.  A name imported only so that a caller can
patch it at that binding site is marked ``# noqa`` on its line.  numpy and
scipy are imported inside the functions that call them, never when a module
is imported."""

import ast
from pathlib import Path

import vvmf

SOURCES = sorted((Path(__file__).parents[1] / "src" / "vvmf").glob("*.py"))

#: packages the library loads on first use only
ON_DEMAND = ("numpy", "scipy")


def unused_imports(path: Path) -> list[str]:
    """The names path imports and never reads, outside ``# noqa`` lines; a
    name listed in the module's ``__all__`` counts as read."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
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


def test_numpy_and_scipy_load_on_first_use():
    assert [hit for path in SOURCES for hit in eager_imports(path)] == []


def test_eager_import_check_sees_guarded_imports(tmp_path):
    module = tmp_path / "guarded.py"
    module.write_text(
        "import os\n"
        "if os.name:\n    import numpy as np\n"
        "try:\n    from scipy.linalg import expm\nexcept ImportError:\n    import scipy\n"
        "class C:\n    import numpy.fft\n"
        "def f():\n    import numpy\n"
    )
    assert eager_imports(module) == [
        "guarded.py:3 numpy", "guarded.py:5 scipy.linalg", "guarded.py:7 scipy",
        "guarded.py:9 numpy.fft",
    ]
