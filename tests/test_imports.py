"""Every name a module of the package imports is read in that module.

No linter runs on the package, so an import left behind by a change would
stay unseen; this scans each module's syntax tree with :mod:`ast` alone.
``from __future__`` imports are directives, not names, and the names that
``__init__.py`` lists in ``__all__`` are read by whoever imports the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankone"


def unread_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, with the line of each import."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("import math\n", ["math (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c (line 1)"]),
        ("from __future__ import annotations\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("def f():\n    from a import b\n    return b.c\n", []),
    ],
)
def test_the_scan_finds_what_is_not_read(source, unread):
    assert unread_imports(source) == unread
