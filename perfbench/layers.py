"""Which program functions the traced run wraps, and the per-layer metrics.

Every public function of the seven layer modules is wrapped, plus the
``Polynomial`` methods.  Span names are ``<module>.<function>``; each span
name belongs to one group, and a group's self time is the sum of its spans'
self times, so the groups partition the traced time.  A wrapper is installed
in every ``hextiling`` namespace that binds the original (``binomial`` is
imported by name into ``formulas`` and ``matrices``, ``hexagon`` functions
into ``oracle``, ``verify`` and ``cli``), so no call escapes the trace.
"""

from __future__ import annotations

import ast
import inspect
import sys
import tokenize
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List

from spans import Tracer

MODULES = ("cli", "verify", "formulas", "exact", "matrices", "hexagon", "oracle")

# Span names with a group of their own; every other span of a module falls
# into the module's group: "cli", "verify", "hexagon" or "<module>.other".
GROUPS: Dict[str, str] = {
    "formulas.macmahon_count": "formulas.macmahon_count",
    "formulas.axis_sum": "formulas.axis_sum",
    "exact.shifted_factorial": "exact.shifted_factorial",
    "exact.binomial": "exact.binomial",
    "exact.hypergeometric_sum": "exact.hypergeometric_sum",
    "exact.lagrange_interpolate": "exact.polynomial",
    "matrices.upper_count_matrix": "matrices.build",
    "matrices.lower_weighted_matrix": "matrices.build",
    "matrices.reduced_lower_matrix": "matrices.build",
    "matrices.determinant": "matrices.determinant",
    "matrices.check_column_relation": "matrices.check_column_relation",
    "matrices.extract_reduced_polynomial": "matrices.extract_reduced_polynomial",
    "oracle.count_tilings": "oracle.count_tilings",
    "oracle.weighted_count": "oracle.weighted_count",
    "oracle.enumerate_tilings": "oracle.enumerate_tilings",
    "oracle.count_with_fixed_rhombus": "oracle.count_with_fixed_rhombus",
}
_WHOLE_MODULE_GROUPS = ("cli", "verify", "hexagon")
POLYNOMIAL_METHODS = ("__init__", "__call__", "__eq__", "__add__", "__neg__", "__sub__",
                      "__mul__", "__rmul__", "degree", "compose_affine")

SELF_GROUPS = (
    "cli", "verify",
    "formulas.macmahon_count", "formulas.axis_sum", "formulas.other",
    "exact.shifted_factorial", "exact.binomial", "exact.hypergeometric_sum",
    "exact.polynomial", "exact.other",
    "matrices.build", "matrices.determinant", "matrices.check_column_relation",
    "matrices.extract_reduced_polynomial", "matrices.other",
    "hexagon",
    "oracle.count_tilings", "oracle.weighted_count", "oracle.enumerate_tilings",
    "oracle.count_with_fixed_rhombus", "oracle.other",
)

LOC_FILES = {name: name + ".py" for name in MODULES}
LOC_FILES["init"] = "__init__.py"


def group_of(span_name: str) -> str:
    if span_name in GROUPS:
        return GROUPS[span_name]
    module = span_name.split(".", 1)[0]
    if span_name.startswith("exact.Polynomial."):
        return "exact.polynomial"
    return module if module in _WHOLE_MODULE_GROUPS else module + ".other"


# -- counters recorded at the layer boundaries ----------------------------

def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _bits(x) -> int:
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _run_suite(tracer, args, kwargs, results):
    tracer.count("verify.checks", len(results))
    tracer.count("verify.skipped", sum(1 for r in results if r.skipped))


def _axis_sum(tracer, args, kwargs, result):
    tracer.count("formulas.axis_sum.terms", _arg(args, kwargs, 2, "l"))


def _hypergeometric_sum(tracer, args, kwargs, result):
    tracer.count("exact.hypergeometric_sum.terms", _arg(args, kwargs, 3, "term_count"))


def _determinant(tracer, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    tracer.record_max("matrices.determinant.n_max", len(rows))
    tracer.record_max("matrices.determinant.entry_bits_max",
                      max((_bits(x) for row in rows for x in row), default=0))
    tracer.record_max("matrices.determinant.result_bits_max", _bits(result))


def _hexagon_cells(tracer, args, kwargs, cells):
    tracer.count("hexagon.cells", len(cells))


def _count_tilings(tracer, args, kwargs, count):
    region = _arg(args, kwargs, 0, "region")
    tracer.record_max("oracle.count_tilings.cells_max", len(region.cells))
    tracer.count("oracle.count_tilings.tilings", count)


def _count_with_fixed_rhombus(tracer, args, kwargs, kept):
    tracer.count("oracle.count_with_fixed_rhombus.kept", kept)


HOOKS = {
    "verify.run_suite": _run_suite,
    "formulas.axis_sum": _axis_sum,
    "exact.hypergeometric_sum": _hypergeometric_sum,
    "matrices.determinant": _determinant,
    "hexagon.hexagon_cells": _hexagon_cells,
    "oracle.count_tilings": _count_tilings,
    "oracle.count_with_fixed_rhombus": _count_with_fixed_rhombus,
}
ITERATORS = {"oracle.enumerate_tilings"}


def _public_functions(module) -> Iterable[tuple]:
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def install(tracer: Tracer) -> None:
    """Wrap the layer functions in every ``hextiling`` namespace that binds
    them.  Undo with ``tracer.restore()``."""
    wrappers = {}
    for short in MODULES:
        for attr, fn in _public_functions(sys.modules[f"hextiling.{short}"]):
            name = f"{short}.{attr}"
            wrappers[id(fn)] = tracer.wrap(fn, name, HOOKS.get(name), name in ITERATORS)
    for key, ns in list(sys.modules.items()):
        if key == "hextiling" or key.startswith("hextiling."):
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    tracer.patch(ns, attr, wrappers[id(value)])
    polynomial = sys.modules["hextiling.exact"].Polynomial
    for attr in POLYNOMIAL_METHODS:
        tracer.patch(polynomial, attr,
                     tracer.wrap(vars(polynomial)[attr], f"exact.Polynomial.{attr}"))


# -- metrics ------------------------------------------------------------

def count_loc(path: Path) -> int:
    """Source lines that hold code: not blank, not a comment, not a docstring."""
    text = path.read_text()
    docstring_lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstring_lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    code_lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in skip:
                code_lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(code_lines - docstring_lines)


def loc_metrics(src_dir: Path) -> Dict[str, int]:
    return {f"{name}.loc": count_loc(src_dir / fname) for name, fname in LOC_FILES.items()}


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float,
                  fixed_requests: List[int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds and
    ``untraced_wall`` seconds for the same requests without tracing."""
    names = [tracer.names[i] for i in tracer.name_id]
    own = tracer.self_times()
    self_s = Counter()
    for name, t in zip(names, own):
        self_s[group_of(name)] += t
    calls = Counter(names)
    roots = sum(tracer.end[i] - tracer.start[i] for i, p in enumerate(tracer.parent) if p < 0)
    c, mx = tracer.counters, tracer.maxima
    fixed = set(fixed_requests)
    macmahon_in_fixed = sum(1 for name, req in zip(names, tracer.request)
                            if name == "formulas.macmahon_count" and req in fixed)
    oracle_self = sum(t for g, t in self_s.items() if g.startswith("oracle."))
    enumerated_in_fixed = c["oracle.enumerate_tilings.yielded_by.oracle.count_with_fixed_rhombus"]
    tilings = c["oracle.count_tilings.tilings"] + c["oracle.enumerate_tilings.yielded"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{g}.self_s": self_s[g] for g in SELF_GROUPS}
    out.update({
        "cli.requests": calls["cli.main"],
        "verify.run_suite.calls": calls["verify.run_suite"],
        "verify.checks": c["verify.checks"],
        "verify.skipped": c["verify.skipped"],
        "formulas.macmahon_count.calls": calls["formulas.macmahon_count"],
        "formulas.macmahon_count.per_fixed": ratio(macmahon_in_fixed, len(fixed)),
        "formulas.axis_sum.calls": calls["formulas.axis_sum"],
        "formulas.axis_sum.terms": c["formulas.axis_sum.terms"],
        "exact.shifted_factorial.calls": calls["exact.shifted_factorial"],
        "exact.binomial.calls": calls["exact.binomial"],
        "exact.hypergeometric_sum.calls": calls["exact.hypergeometric_sum"],
        "exact.hypergeometric_sum.terms": c["exact.hypergeometric_sum.terms"],
        "matrices.build.calls": sum(calls[n] for n, g in GROUPS.items() if g == "matrices.build"),
        "matrices.determinant.calls": calls["matrices.determinant"],
        "matrices.determinant.n_max": mx.get("matrices.determinant.n_max", 0),
        "matrices.determinant.entry_bits_max": mx.get("matrices.determinant.entry_bits_max", 0),
        "matrices.determinant.result_bits_max": mx.get("matrices.determinant.result_bits_max", 0),
        "hexagon.build_region.calls": calls["hexagon.build_region"],
        "hexagon.cells": c["hexagon.cells"],
        "oracle.count_tilings.calls": calls["oracle.count_tilings"],
        "oracle.count_tilings.cells_max": mx.get("oracle.count_tilings.cells_max", 0),
        "oracle.enumerate_tilings.yielded": c["oracle.enumerate_tilings.yielded"],
        "oracle.fixed.useful_ratio": ratio(c["oracle.count_with_fixed_rhombus.kept"],
                                           enumerated_in_fixed),
        "oracle.tilings_per_s": ratio(tilings, oracle_self),
        "trace.spans": len(tracer),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.outside_s": wall - roots,
    })
    return out
