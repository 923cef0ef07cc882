"""Command-line surface: counting queries, verification suites, sweeps.

Commands are deterministic (identical inputs give byte-identical output) and
print results to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error (a ``verify`` run whose
bounds leave no checks counts as one).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import formulas, verify
from .hexagon import HexagonSpec


class SweepRow(NamedTuple):
    """One sweep sample: exact proportion next to its arcsine limit.

    Floats are rounded through 15 significant digits at construction so that
    emitting and re-parsing a row reproduces it exactly.
    """

    n: int
    m: int
    l: int
    proportion_exact: Fraction
    proportion_float: float
    arcsine_value: float
    abs_error: float

    @classmethod
    def compute(cls, n: int, a_ratio: float, b_ratio: float) -> "SweepRow":
        m = max(1, round(a_ratio * n))
        l = min(max(1, round(b_ratio * n)), n)
        exact = formulas.proportion_nm(n, m, l)
        prop = _round15(float(exact))
        limit = _round15(formulas.arcsine_limit(a_ratio, b_ratio))
        return cls(n, m, l, exact, prop, limit, _round15(abs(prop - limit)))


def _fmt15(x: float) -> str:
    return f"{x:.15g}"


def _round15(x: float) -> float:
    return float(_fmt15(x))


SWEEP_HEADER = "N,m,l,proportion_exact,proportion_float,arcsine_value,abs_error"


def _columns(r: SweepRow) -> tuple:
    """The values of one row in ``SWEEP_HEADER`` order, the exact proportion
    as the string p/q (kept for an integral one too) and the floats raw."""
    exact = r.proportion_exact
    return (r.n, r.m, r.l, f"{exact.numerator}/{exact.denominator}",
            r.proportion_float, r.arcsine_value, r.abs_error)


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [",".join(_fmt15(v) if isinstance(v, float) else str(v) for v in _columns(r))
             for r in rows]
    return "\n".join([SWEEP_HEADER, *lines])


def rows_to_json(rows: Sequence[SweepRow]) -> str:
    import json  # only this output format needs it; kept off the start-up path

    keys = SWEEP_HEADER.split(",")
    return json.dumps([dict(zip(keys, _columns(r))) for r in rows], indent=2)


def _hexagon(side_a: int, side_m: int) -> HexagonSpec:
    """The hexagon of ``--sides``, checked A first as HexagonSpec does; the
    commands take no degenerate M = 0."""
    if side_a >= 1 > side_m:
        raise ValueError("side_m must be a positive integer")
    return HexagonSpec(side_a, side_m)


def _cmd_count(args) -> int:
    spec = _hexagon(*args.sides)
    print(formulas.macmahon_count(spec.side_a, spec.side_a, spec.side_m))
    return 0


def _cmd_fixed(args) -> int:
    side_a, side_m = args.sides
    if side_m == 0:
        raise ValueError("fixed-rhombus counts are undefined for M=0")
    spec = _hexagon(side_a, side_m)
    if spec.n == 0:
        raise ValueError(f"hexagon ({side_a},{side_m}) has no rhombus on its symmetry axis")
    if not 1 <= args.l <= spec.n:
        raise ValueError(f"l must lie in 1..{spec.n}, got {args.l}")
    total = formulas.macmahon_count(side_a, side_a, side_m)
    fixed = formulas.fixed_count(spec, args.l)
    print(f"total {total}")
    print(f"fixed {fixed}")
    print(f"proportion {Fraction(fixed, total)}")
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(
        args.suite,
        max_n=args.max_n,
        max_m=args.max_m,
        max_a=args.max_a,
        max_cells=args.max_cells,
    )
    if not results:
        raise ValueError(f"suite {args.suite} ran no checks at these bounds")
    failures = 0
    for res in results:
        line = f"{res.status} {res.name}"
        if res.detail:
            line += f" ({res.detail})"
        print(line)
        if not res.ok:
            failures += 1
    skipped = sum(1 for r in results if r.skipped)
    summary = f"{args.suite}: {len(results) - failures}/{len(results)} checks passed"
    if skipped:
        summary += f", {skipped} skipped"
    print(summary)
    if failures:
        print(f"{failures} checks FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    for name, value in (("a", args.a), ("b", args.b)):
        if not math.isfinite(value):
            raise ValueError(f"need a finite {name}, got {value}")
    for n in args.n:
        if n < 1:
            raise ValueError(f"need N >= 1, got N = {n}")
        if not math.isfinite(args.a * n):
            raise ValueError(f"a*N overflows for a = {args.a}, N = {n}")
    formulas.arcsine_limit(args.a, args.b)  # raises on b outside (0, 1), then on a < 0
    rows = [SweepRow.compute(n, args.a, args.b) for n in args.n]
    if args.format == "csv":
        print(rows_to_csv(rows))
    else:
        print(rows_to_json(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hextiling",
        description="Exact rhombus-tiling counts for semi-regular hexagons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="total number of tilings")
    p_count.add_argument("--sides", nargs=2, type=int, required=True,
                         metavar=("A", "M"), help="hexagon sides (A, M)")
    p_count.set_defaults(func=_cmd_count)

    p_fixed = sub.add_parser(
        "fixed", help="tilings containing the l-th axis rhombus")
    p_fixed.add_argument("--sides", nargs=2, type=int, required=True,
                         metavar=("A", "M"))
    p_fixed.add_argument("--l", type=int, required=True,
                         help="axis position, counted from 1")
    p_fixed.set_defaults(func=_cmd_fixed)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--max-m", type=int, default=None)
    p_verify.add_argument("--max-a", type=int, default=None)
    p_verify.add_argument("--max-cells", type=int, default=None,
                          help="override the oracle cell limit")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="exact proportions along m ~ a*N, l ~ b*N vs the arcsine limit")
    p_sweep.add_argument("--a", type=float, required=True, help="ratio m/N")
    p_sweep.add_argument("--b", type=float, required=True, help="ratio l/N")
    p_sweep.add_argument("--n", nargs="+", type=int, required=True,
                         help="values of N to sample")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process for in-process callers of :func:`main`.

    Parsing leaves the parser unchanged, and each fresh parser leaves about
    30 KiB of reference cycles behind, which stay resident until the next
    full garbage collection.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    # Exact values outgrow CPython's default limit of 4300 digits for
    # int-to-str conversion; lift it while a command runs, then restore it
    # for in-process callers.  Interpreters without the limit lack the getter.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
