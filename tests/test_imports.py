"""Every name a module of the package imports is used there, and every name
the package exports resolves.  A name imported only so that a caller can
patch it at that binding site is marked ``# noqa`` on its line."""

import ast
from pathlib import Path

import vvmf

SOURCES = sorted((Path(__file__).parents[1] / "src" / "vvmf").glob("*.py"))


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


def test_every_import_is_used_and_every_export_resolves():
    assert len(SOURCES) > 1
    assert [hit for path in SOURCES for hit in unused_imports(path)] == []
    assert [name for name in vvmf.__all__ if not hasattr(vvmf, name)] == []
