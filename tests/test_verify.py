"""The verification suites reach the library only through its public names,
so each identity they compare can take its quantities from any route."""

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
