"""Every name a ``crosskont`` module imports is read in that module.

No linter ships with the project, so this parses each module with
:mod:`ast` and fails on an imported name that no expression loads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crosskont"

# Imported to be read from outside the module, never inside it.
EXEMPT = {
    # perfbench/tracing.py times the split enumerator by wrapping this name in engine
    ("engine.py", "enumerate_splits"),
}


def _imported(tree: ast.Module) -> set[str]:
    """The names that the module's imports bind, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _read(tree: ast.Module) -> set[str]:
    """The names that some expression of the module loads, and those ``__all__`` re-exports."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    # __init__ reads none of its imports: it re-exports them, and __all__ lists each
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = {name for name in _imported(tree) - _read(tree) if (path.name, name) not in EXEMPT}
    assert not unread, f"{path.name} imports {sorted(unread)} and never reads them"


def test_the_exempt_names_are_imported_and_unread():
    for module, name in EXEMPT:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert name in _imported(tree) - _read(tree), (module, name)


def test_an_unread_import_is_caught():
    tree = ast.parse("from typing import Iterable, Mapping\nimport os.path\nx: Mapping = {}\n")
    assert _imported(tree) - _read(tree) == {"Iterable", "os"}
