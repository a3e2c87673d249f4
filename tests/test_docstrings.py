"""Docstring cross-references name objects that exist.

Every ``:func:``, ``:class:``, ``:meth:``, ``:attr:``, ``:exc:``, ``:mod:`` and
``:data:`` target in the package's sources must resolve, so that a renamed or
deleted function leaves no reference behind.
"""

import builtins
import importlib
import inspect
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rankone"
ROLE = re.compile(r":(?:func|class|meth|attr|exc|mod|data):`[~!]?([\w.]+)`")


def _resolves(module, target: str) -> bool:
    """A dotted target by import plus ``getattr``; a bare one in the module's
    own namespace, then builtins, then the classes that module defines."""
    parts = target.split(".")
    if len(parts) == 1:
        classes = [c for c in vars(module).values() if inspect.isclass(c)]
        classes = [c for c in classes if c.__module__ == module.__name__]
        return any(hasattr(ns, target) for ns in (module, builtins, *classes))
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            continue
    else:  # a name of this module, then its attributes
        cut, obj = 1, vars(module).get(parts[0])
    for name in parts[cut:]:
        obj = getattr(obj, name, None)
    return obj is not None


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_docstring_references_resolve(path):
    name = "rankone" if path.stem == "__init__" else f"rankone.{path.stem}"
    module = importlib.import_module(name)
    targets = ROLE.findall(path.read_text(encoding="utf-8"))
    assert [t for t in targets if not _resolves(module, t)] == []
