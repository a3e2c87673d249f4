"""Every name a module of the package imports is read in that module, and
every private name a module defines is read somewhere in the package.

No linter runs on the package, so an import or a helper left behind by a
change would stay unseen; these scan the modules' syntax trees with
:mod:`ast` alone.  ``from __future__`` imports are directives, not names,
and the names that ``__init__.py`` lists in ``__all__`` are read by whoever
imports the package.
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


def _defined(stmt: ast.stmt) -> list[str]:
    """The private names a module-level statement defines: a function or
    class that no decorator registers, or a constant.  Dunders are not
    private."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [] if stmt.decorator_list else [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names of ``sources`` (module name to source)
    that no other module-level statement of any of them reads, by name or as
    an attribute."""
    defined: list[tuple[str, str, int]] = []  # module, name, line of its statement
    readers: dict[str, set[tuple[str, int]]] = {}  # name to the statements that read it
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            where = (module, stmt.lineno)
            defined += [(module, name, stmt.lineno) for name in _defined(stmt)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(where)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(where)
    return [
        f"{module}.{name} (line {line})"
        for module, name, line in defined
        if not readers.get(name, set()) - {(module, line)}
    ]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


@pytest.mark.parametrize(
    "sources, unread",
    [
        ({"m": "def _f():\n    pass\n"}, ["m._f (line 1)"]),
        ({"m": "def _f():\n    pass\n_f()\n"}, []),
        ({"m": "def _f(n):\n    return _f(n - 1)\n"}, ["m._f (line 1)"]),  # only itself
        ({"m": "@register\ndef _h():\n    pass\n"}, []),
        ({"m": "class _C:\n    pass\n"}, ["m._C (line 1)"]),
        ({"m": "x = 1\n_A, _B = 1, x\nprint(_B)\n"}, ["m._A (line 2)"]),
        ({"m": "_X: int = 1\ndef f():\n    return _X\n"}, []),
        ({"m": "__all__ = []\ndef f():\n    _y = 1\n"}, []),
        ({"a": "_X = 1\n", "b": "from a import _X\nprint(_X)\n"}, []),
        ({"a": "_X = 1\n", "b": "import a\na._X\n"}, []),
        ({"a": "_X = 1\n", "b": "from a import _X\n"}, ["a._X (line 1)"]),
    ],
)
def test_the_private_name_scan_finds_what_is_not_read(sources, unread):
    assert unread_private_names(sources) == unread
