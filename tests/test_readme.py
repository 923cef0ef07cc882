"""The README's "Library quick start" block runs and states its values.

Each expression line of the block ends in a comment that opens with the
value the line gives; the block is run statement by statement and every
expression's value is compared with that comment, so an API change that
breaks the documented example fails here.
"""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_and_states_its_values():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    values = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        comment = lines[node.lineno - 1].split("#", 1)[1].strip()
        assert comment.startswith(repr(value)), (comment, value)
        values.append(value)
    assert values == [(3, 2), 4116, 1372, Fraction(1, 3), 4116, 1372]
