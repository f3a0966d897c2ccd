"""Every name a gnla module imports with `from ... import` is used, and
every module-level function and class is exported or used."""

import ast
from pathlib import Path

import gnla

PACKAGE = Path(gnla.__file__).parent


def names_read(tree):
    """The Name nodes of a tree, and the names inside its string
    annotations."""
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
    return used


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
    used = names_read(tree)
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


def unreferenced_definitions(sources, exported):
    """The (module, name) of each module-level function or class that is
    not exported and that no module reads.

    sources maps module file names to their text.  A read is a read in
    the sense of unused_imports, or a `from ... import` of the name by a
    module other than __init__.py, whose imports only re-export."""
    defined = []
    read = set(exported)
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        read |= names_read(tree)
        if module != "__init__.py":
            read.update(alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        for alias in node.names)
    return sorted(d for d in defined if d[1] not in read)


def test_unreferenced_definition_detector():
    sources = {
        "__init__.py": "from .a import dead, shown\n__all__ = ['shown']\n",
        "a.py": ("def shown(): pass\n"
                 "def dead(): pass\n"
                 "def _helper(): pass\n"
                 "class Hint: pass\n"
                 "class Orphan:\n"
                 "    def method(self): return _helper()\n"),
        "b.py": ("from .a import shown as s\n"
                 "def f(x: 'Hint'): return s(x)\n"),
    }
    assert unreferenced_definitions(sources, ["shown"]) == [
        ("a.py", "Orphan"), ("a.py", "dead"), ("b.py", "f")]
    assert unreferenced_definitions(sources, ["shown", "f", "Orphan"]) == [
        ("a.py", "dead")]


def test_package_has_no_unreferenced_definitions():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources, gnla.__all__) == []
