"""Every name a gnla module imports with `from ... import` is used, every
module-level function and class is exported or used, only linalg.Frozen
decides immutability, only linalg solves densely, each module imports
only the package modules below it and the package imports only the
standard library; the package API is pinned, and each re-exported
module's __all__ lists only names that the module itself defines."""

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
# module and is not listed; __main__ is the `python -m gnla` entry.
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
    "__main__": {"cli"},
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


# gnla.__all__ as it stands; an API change edits this list in its diff.
PUBLIC_API = [
    "GNLA", "AdMatrix", "ValidationReport", "ad_matrix", "bracket",
    "center", "change_basis", "layer", "quotient", "validate",
    "DecompositionResult", "TypeVerdict", "WitnessInvalid", "classify",
    "decompose_special_extension", "minor_ideal",
    "rank1_derivation_from_witness", "rank1_in_span", "rank1_witness",
    "spencer_subspace_check",
    "DocumentError", "DuplicateBracket", "GradingViolation", "Report",
    "UnknownLabel", "emit_report", "parse_algebra", "parse_cocycle", "run",
    "serialize_algebra", "serialize_cocycle",
    "CATALOG_NAMES", "Cochain2", "DegreeViolation", "ElementaryH0",
    "ExtensionData", "JacobiViolation", "NotGenerated", "NotSkew",
    "PencilForm", "PencilSpec", "algebra_from_pencil_spec",
    "assemble_pencil", "catalog", "coboundary", "det_pencil",
    "h0_elementary", "h2_0", "metabelian_from_pencil", "p_y_subspace",
    "pencil_block", "pfaffian", "special_extension",
    "CapExceeded", "Polynomial", "PolynomialIdeal", "buchberger",
    "grevlex_key", "normal_form", "only_trivial_zero",
    "Matrix", "MatrixSubspace", "Subspace", "frac", "kernel_basis", "solve",
    "vector",
    "GradedMap", "IterationVerdict", "ProlongationLayer",
    "classify_by_iteration", "der0", "h0",
    "h0_as_graded_map", "leibniz_failures", "prolong_layer",
    "__version__",
]


def test_public_api_is_pinned():
    assert gnla.__all__ == PUBLIC_API
    assert all(hasattr(gnla, name) for name in PUBLIC_API)


def top_level_bindings(tree):
    """The names a module's top-level statements bind by an import, and
    those they bind by a def, a class or an assignment, as two sets."""
    imported, defined = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(n.id for t in node.targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
    return imported, defined


def star_imports(source):
    """The package modules a source star-imports, in order."""
    return [node.module for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level
            and node.names[0].name == "*"]


def export_violations(sources):
    """The (module name, listed name, fault) of each bad export of a
    module that __init__.py star-imports, in its import order, over
    module file names mapped to their text.

    The module's top-level `__all__ = [...]` must be a list of string
    literals (else the fault is "not literal", named "__all__"); each
    name in it must be bound by a def, a class or an assignment
    ("imported" if an import binds it, "unbound" if nothing does); and
    no name may be listed twice, in one list or two ("duplicate")."""
    found, seen = [], set()
    for module in star_imports(sources["__init__.py"]):
        tree = ast.parse(sources[module + ".py"])
        values = [node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)]
        if not (len(values) == 1 and isinstance(values[0], ast.List)
                and all(isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                        for e in values[0].elts)):
            found.append((module, "__all__", "not literal"))
            continue
        imported, defined = top_level_bindings(tree)
        for e in values[0].elts:
            name = e.value
            if name in seen:
                found.append((module, name, "duplicate"))
            seen.add(name)
            if name in imported:
                found.append((module, name, "imported"))
            elif name not in defined:
                found.append((module, name, "unbound"))
    return found


def test_each_module_exports_only_what_it_defines():
    """gnla re-exports the modules' __all__ lists and imports nothing else
    by name but the modules and __version__, so each public name has one
    home: the module that defines it (only linalg can export
    MatrixSubspace, which prolongation imports)."""
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    modules = ["algebra", "certifier", "cli", "constructions", "groebner",
               "linalg", "prolongation"]
    assert star_imports(sources["__init__.py"]) == modules
    imported, _ = top_level_bindings(ast.parse(sources["__init__.py"]))
    assert imported == set(modules) | {"*", "__version__"}
    assert export_violations(sources) == []


def test_export_detector():
    sources = {
        "__init__.py": ("from . import a, b, c\n"
                        "from .a import *\n"
                        "from .b import *\n"
                        "from .c import *\n"
                        "from .d import x\n"),
        "a.py": ("from .m import Imported\n"
                 "__all__ = ['Shared', 'Imported', 'missing', 'f', 'K']\n"
                 "class Shared: pass\n"
                 "def f():\n"
                 "    missing = 1\n"
                 "K, _k = 1, 2\n"),
        "b.py": ("__all__ = ['Shared', 'g', 'g']\n"
                 "Shared = g = None\n"),
        "c.py": "NAMES = ['h']\n__all__ = NAMES + []\ndef h(): pass\n",
        "d.py": "__all__ = ['x', 'x']\n",
    }
    assert export_violations(sources) == [
        ("a", "Imported", "imported"), ("a", "missing", "unbound"),
        ("b", "Shared", "duplicate"), ("b", "g", "duplicate"),
        ("c", "__all__", "not literal")]
