"""Every name a gnla module imports with `from ... import` is used, every
module-level function and class is exported or used, only linalg.Frozen
decides immutability, only linalg solves densely, each module imports
only the package modules below it and the package imports only the
standard library."""

import ast
import sys
from pathlib import Path

import gnla
from gnla import GNLA, GradedMap, Matrix, Polynomial, Subspace
from gnla.linalg import Frozen

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


def immutability_hooks(sources):
    """The (module, class, method) of each method named like a hook that
    decides assignment, copying or pickling, over module file names
    mapped to their text."""
    hooks = {"__setattr__", "__setstate__", "__getstate__", "__reduce__",
             "__reduce_ex__"}
    return sorted((module, node.name, item.name)
                  for module, source in sources.items()
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef)
                  for item in node.body
                  if isinstance(item, ast.FunctionDef) and item.name in hooks)


def test_only_the_frozen_base_decides_immutability():
    """Assignment, copy and pickle are decided once, by linalg.Frozen: no
    other class of the package defines their hooks, and every subclass
    of Frozen, the five slotted values among them, declares __slots__ in
    its own body, so its instances have no __dict__ to bypass them."""
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert immutability_hooks(sources) == [
        ("linalg.py", "Frozen", "__setattr__"),
        ("linalg.py", "Frozen", "__setstate__")]
    subclasses, stack = [], list(Frozen.__subclasses__())
    while stack:
        cls = stack.pop()
        subclasses.append(cls)
        stack.extend(cls.__subclasses__())
    assert {GNLA, GradedMap, Matrix, Polynomial, Subspace} <= set(subclasses)
    for cls in subclasses:
        assert "__slots__" in vars(cls), cls.__name__
        assert not hasattr(object.__new__(cls), "__dict__"), cls.__name__


def test_immutability_hook_detector():
    sources = {"a.py": ("class Base:\n"
                        "    def __setattr__(self, n, v): pass\n"
                        "class Value(Base):\n"
                        "    __slots__ = ()\n"
                        "    def __reduce__(self): pass\n"
                        "    def method(self):\n"
                        "        class Inner:\n"
                        "            def __getstate__(self): pass\n")}
    assert immutability_hooks(sources) == [
        ("a.py", "Base", "__setattr__"), ("a.py", "Inner", "__getstate__"),
        ("a.py", "Value", "__reduce__")]


def dense_solve_calls(sources):
    """The (module, line, name) of each call of solve or from_columns,
    by name or as an attribute, in a module other than linalg.py, over
    module file names mapped to their text."""
    found = []
    for module, source in sources.items():
        if module == "linalg.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else getattr(f, "attr", None))
                if name in ("solve", "from_columns"):
                    found.append((module, node.lineno, name))
    return sorted(found)


def test_only_linalg_solves_densely():
    """A dense solve is an augmented elimination per right-hand side, and
    Matrix.from_columns builds the dense matrix it runs on; the package
    reads its systems off the sparse core instead (a quotient, say, is a
    change of basis and a split), so no module but linalg calls either."""
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert dense_solve_calls(sources) == []


def test_dense_solve_call_detector():
    sources = {
        "linalg.py": "def solve(m, b):\n    return Matrix.from_columns(b)\n",
        "a.py": ("from .linalg import Matrix, solve\n"
                 "def f(m, b):\n"
                 "    x = solve(m, b)\n"
                 "    return Matrix.from_columns([x]), linalg.solve(m, b)\n"),
        "b.py": ("from .linalg import solve\n"
                 "def g(m):\n"
                 "    return m.solve_all(), resolve(m), solve\n"),
    }
    assert dense_solve_calls(sources) == [
        ("a.py", 3, "solve"), ("a.py", 4, "from_columns"),
        ("a.py", 4, "solve")]


# The package modules each module may import.  __init__ re-exports every
# module and is not listed.
ALLOWED_IMPORTS = {
    "linalg": set(),
    "algebra": {"linalg"},
    "groebner": {"linalg"},
    "prolongation": {"algebra", "linalg"},
    "constructions": {"algebra", "linalg"},
    "certifier": {"algebra", "constructions", "groebner", "linalg",
                  "prolongation"},
    "cli": {"algebra", "certifier", "constructions", "groebner", "linalg",
            "prolongation"},
}


def import_graph_violations(sources, allowed):
    """The (module, line, imported) of each relative import of a package
    module that allowed does not list for the importing module, over
    module file names mapped to their text; __init__.py is skipped.

    `from .m import x` imports m and `from . import m` imports m.  An
    absolute import of the package itself is not stdlib, so the
    stdlib-only check refuses it and only relative imports are read
    here."""
    found = []
    for module, source in sources.items():
        name = module[:-len(".py")]
        if name == "__init__":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = ([node.module] if node.module
                           else [alias.name for alias in node.names])
                found += [(module, node.lineno, t) for t in targets
                          if t not in allowed[name]]
    return sorted(found)


def non_stdlib_imports(sources):
    """The (module, line, imported) of each absolute import whose top
    level name is not in sys.stdlib_module_names, over module file names
    mapped to their text."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(module, node.lineno, n) for n in names
                      if n.split(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def test_modules_import_only_the_modules_below_them():
    """The checkers (constructions, and the linalg and algebra below it)
    run without the prolongation solver or the Groebner code, so a
    certificate can be checked by code that shares neither.  The guard
    reads the sources: importing any gnla module runs __init__, which
    loads them all, so a runtime check would prove nothing."""
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(sources) == {m + ".py" for m in ALLOWED_IMPORTS} | {
        "__init__.py"}
    assert import_graph_violations(sources, ALLOWED_IMPORTS) == []


def test_package_imports_only_the_standard_library():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert non_stdlib_imports(sources) == []


IMPORTING_SOURCES = {
    "__init__.py": "from .prolongation import h0\nimport numpy\n",
    "constructions.py": ("from __future__ import annotations\n"
                         "from fractions import Fraction\n"
                         "from .linalg import Matrix\n"
                         "from .prolongation import MatrixSubspace\n"
                         "def f():\n"
                         "    from . import groebner, algebra\n"),
    "linalg.py": ("import os.path, sympy\n"
                  "from numpy.linalg import solve\n"
                  "from collections import abc\n"),
}


def test_import_graph_detector():
    assert import_graph_violations(IMPORTING_SOURCES, ALLOWED_IMPORTS) == [
        ("constructions.py", 4, "prolongation"),
        ("constructions.py", 6, "groebner")]


def test_non_stdlib_import_detector():
    assert non_stdlib_imports(IMPORTING_SOURCES) == [
        ("__init__.py", 2, "numpy"), ("linalg.py", 1, "sympy"),
        ("linalg.py", 2, "numpy.linalg")]
