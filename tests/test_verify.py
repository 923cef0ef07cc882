"""The verification suites reach the library only through its public names,
so each identity they compare can take its quantities from any route; and
each route builds only on the shared layers, not on another route."""

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
