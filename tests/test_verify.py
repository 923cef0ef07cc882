"""The verification suites reach the library only through its public names,
so each identity they compare can take its quantities from any route; and
each route builds only on the shared layers, not on another route.  No
module holds an import it never reads or a private definition nothing
refers to."""

import ast
from pathlib import Path

from hextiling import verify

PACKAGE = Path(verify.__file__).parent
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}


def _private_reads(source: str) -> list:
    """Every ``<sibling module>._name`` read and ``from .x import _name`` in
    ``source``."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in SIBLINGS and node.attr.startswith("_")):
            reads.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level:
            reads += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return reads


def test_private_read_detection():
    source = ("from . import matrices\n"
              "from .exact import _rising_product, binomial\n"
              "matrices._bareiss([[1]])\n"
              "matrices.determinant([[1]])\n")
    assert _private_reads(source) == ["exact._rising_product", "matrices._bareiss"]


def test_verify_reads_no_private_name_of_another_module():
    assert _private_reads(Path(verify.__file__).read_text()) == []


# Each route may build on the exact primitives and the cell geometry only,
# so no cross-check compares a route with code it borrowed from another;
# those two shared layers import no sibling at all.
ROUTE_IMPORTS = {
    "exact": set(),
    "hexagon": set(),
    "formulas": {"exact", "hexagon"},
    "matrices": {"exact", "hexagon"},
    "oracle": {"hexagon"},
}
ROUTES = {"formulas", "matrices", "oracle"}


def _sibling_imports(source: str) -> set:
    """Every sibling module ``source`` imports, by ``from .x import ...`` or
    ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_sibling_import_detection():
    source = ("import math\n"
              "from . import formulas, verify\n"
              "from .exact import binomial\n")
    assert _sibling_imports(source) == {"formulas", "verify", "exact"}


def test_routes_import_only_the_shared_layers():
    for route, allowed in ROUTE_IMPORTS.items():
        imported = _sibling_imports((PACKAGE / f"{route}.py").read_text())
        assert imported <= allowed, (route, imported - allowed)


def test_only_verify_and_cli_import_several_routes():
    # __init__ only re-exports, and SIBLINGS leaves it out
    for module in SIBLINGS - {"verify", "cli"}:
        routes = _sibling_imports((PACKAGE / f"{module}.py").read_text()) & ROUTES
        assert len(routes) <= 1, (module, routes)


# No stale artefacts: an import nothing reads, or a private function or
# class nothing calls, is dead code.  ``__init__`` imports only to re-export,
# so its imports are exempt from the first rule.

def _unread_imports(source: str) -> list:
    """Every name ``source`` imports and never reads, in import order;
    ``from __future__ import ...`` binds no name and is left out."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in read]


def _references(tree: ast.AST, skip: ast.AST = None) -> set:
    """Every name read, attribute read and name imported in ``tree``,
    outside the subtree ``skip``."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    found = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _defined_names(node: ast.stmt) -> list:
    """The names a module-level statement defines: a function's or class's
    name, or each name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def _unreferenced_private_definitions(sources: dict) -> list:
    """Every module-level private function, class or assigned name of the
    modules ``sources`` (module name to source), dunders aside, that no
    module refers to outside its own definition, as ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if (name.startswith("_") and not name.startswith("__")
                        and not any(name in _references(other, skip=node)
                                    for other in trees.values())):
                    dead.append(f"{module}.{name}")
    return dead


def test_dead_code_detection():
    assert _unread_imports("from __future__ import annotations\n"
                           "import math, os.path\n"
                           "from typing import List, Tuple as T\n"
                           "x: List[int] = math.pi\n") == ["os", "T"]
    assert _unreferenced_private_definitions({
        "a": "def _used(): pass\n"
             "def _recursive(n): return _recursive(n - 1)\n"
             "class _Unused: pass\n",
        "b": "from .a import _used\n_used()\n",
    }) == ["a._recursive", "a._Unused"]
    assert _unreferenced_private_definitions({
        "a": "__all__ = ['f']\n"
             "_READ = 1\n"
             "_UNREAD = None  # a constant nothing reads any more\n"
             "_LEFT, _RIGHT = 1, 2\n"
             "_TYPED: int = 3\n"
             "def f(): return _READ\n",
        "b": "from . import a\nprint(a._RIGHT)\n",
    }) == ["a._UNREAD", "a._LEFT", "a._TYPED"]


def test_package_has_no_unread_import_or_uncalled_private_definition():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    for module, source in sources.items():
        if module != "__init__":
            assert _unread_imports(source) == [], module
    assert _unreferenced_private_definitions(sources) == []
