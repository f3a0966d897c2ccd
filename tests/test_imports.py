"""Every name a gnla module imports with `from ... import` is used."""

import ast
from pathlib import Path

import gnla

PACKAGE = Path(gnla.__file__).parent


def unused_imports(source):
    """The names bound by `from ... import` that the module never reads.

    A read is a Name node or a name inside a string annotation; the
    __future__ import binds no name and is skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    src = ("from __future__ import annotations\n"
           "from typing import List, Tuple\n"
           "from .m import a, b as c, d\n"
           "def f(x: 'List[int]'):\n"
           "    return a(x), d.attr\n")
    assert unused_imports(src) == [(2, "Tuple"), (3, "c")]


def test_modules_have_no_unused_imports():
    """__init__ re-exports the package API, so it is exempt."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        bad = unused_imports(path.read_text())
        if bad:
            found[path.name] = bad
    assert found == {}
