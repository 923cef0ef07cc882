"""Output checks against references that do not use the route under test.

``count`` and ``fixed`` totals are compared with MacMahon's product written
here through hyperfactorials; ``fixed`` and ``sweep`` proportions are compared
with ``formulas.proportion_balanced_form``, the hypergeometric route, and not
with ``proportion_nm`` / ``axis_sum``, which the CLI uses.  ``verify`` output
must show only PASS/SKIP lines and a k/k summary.  Every check runs after the
timed loop, off the clock.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

ProportionRoute = Callable[[int, int, int], Fraction]


@lru_cache(maxsize=None)
def hyperfactorial(n: int) -> int:
    """0! 1! ... (n-1)!, the empty product for n = 0."""
    return 1 if n == 0 else hyperfactorial(n - 1) * math.factorial(n - 1)


def macmahon_reference(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box, as a ratio of hyperfactorials."""
    num = hyperfactorial(a) * hyperfactorial(b) * hyperfactorial(c) * hyperfactorial(a + b + c)
    den = hyperfactorial(a + b) * hyperfactorial(b + c) * hyperfactorial(c + a)
    count, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"hyperfactorial ratio for ({a},{b},{c}) is not an integer")
    return count


def normalized(side_a: int, side_m: int) -> Tuple[int, int]:
    """(n, m) of the hexagon (A, M): even M = 2m keeps n = A, odd M = 2m-1 gives n = A-1."""
    if side_m % 2 == 0:
        return side_a, side_m // 2
    return side_a - 1, (side_m + 1) // 2


def sweep_point(n: int, a_ratio: float, b_ratio: float) -> Tuple[int, int]:
    """(m, l) sampled by ``sweep`` at N = n."""
    m = max(1, round(a_ratio * n))
    return m, min(max(1, round(b_ratio * n)), n)


def _option(argv: List[str], flag: str, count: int = 1) -> List[str]:
    i = argv.index(flag)
    return argv[i + 1:i + 1 + count]


def _check_count(argv, lines, proportion) -> Optional[str]:
    side_a, side_m = map(int, _option(argv, "--sides", 2))
    if lines != [str(macmahon_reference(side_a, side_a, side_m))]:
        return f"count --sides {side_a} {side_m}: output differs from the hyperfactorial product"
    return None


def _check_fixed(argv, lines, proportion) -> Optional[str]:
    side_a, side_m = map(int, _option(argv, "--sides", 2))
    l = int(_option(argv, "--l")[0])
    if len(lines) != 3 or [ln.split(" ")[0] for ln in lines] != ["total", "fixed", "proportion"]:
        return f"fixed: malformed output {repr(lines)[:200]}"
    total, fixed = int(lines[0].split()[1]), int(lines[1].split()[1])
    share = Fraction(lines[2].split()[1])
    if total != macmahon_reference(side_a, side_a, side_m):
        return "fixed: total differs from the hyperfactorial product"
    if share != Fraction(fixed, total):
        return "fixed: proportion is not fixed/total"
    if share != proportion(*normalized(side_a, side_m), l):
        return "fixed: proportion differs from the balanced hypergeometric form"
    return None


def _check_sweep(argv, lines, proportion) -> Optional[str]:
    a_ratio = float(_option(argv, "--a")[0])
    b_ratio = float(_option(argv, "--b")[0])
    ns = [int(x) for x in argv[argv.index("--n") + 1:] if not x.startswith("--")]
    if not lines or lines[0] != "N,m,l,proportion_exact,proportion_float,arcsine_value,abs_error":
        return "sweep: missing CSV header"
    if len(lines) != len(ns) + 1:
        return f"sweep: {len(lines) - 1} rows for {len(ns)} values of N"
    for n, row in zip(ns, lines[1:]):
        fields = row.split(",")
        m, l = sweep_point(n, a_ratio, b_ratio)
        if [int(x) for x in fields[:3]] != [n, m, l]:
            return f"sweep: row {row!r} is not at N={n}, m={m}, l={l}"
        exact = Fraction(fields[3])
        if exact != proportion(n, m, l):
            return f"sweep: N={n} proportion differs from the balanced hypergeometric form"
        if float(fields[4]) != float(f"{float(exact):.15g}"):
            return f"sweep: N={n} float column does not match the exact proportion"
    return None


def _check_verify(argv, lines, proportion) -> Optional[str]:
    suite = _option(argv, "--suite")[0]
    checks = lines[:-1]
    if not checks:
        return "verify: no checks reported"
    bad = [ln for ln in checks if not ln.startswith(("PASS ", "SKIP "))]
    if bad:
        return f"verify: {bad[0]!r}"
    k = len(checks)
    skipped = sum(1 for ln in checks if ln.startswith("SKIP "))
    want = f"{suite}: {k}/{k} checks passed" + (f", {skipped} skipped" if skipped else "")
    if lines[-1] != want:
        return f"verify: summary {lines[-1]!r}, want {want!r}"
    return None


_CHECKERS = {
    "count": _check_count,
    "fixed": _check_fixed,
    "sweep": _check_sweep,
    "verify": _check_verify,
}


def check(argv: List[str], rc, out: str, err: str,
          proportion: ProportionRoute) -> Optional[str]:
    """None when the request succeeded with correct output, else the reason.

    ``proportion(n, m, l)`` is the independent route the proportions are
    compared with; the benchmark passes ``formulas.proportion_balanced_form``.
    """
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-200:]}"
    if err:
        return f"unexpected stderr: {err.strip()[-200:]}"
    if not out.endswith("\n"):
        return "output does not end with a newline"
    try:
        return _CHECKERS[argv[0]](argv, out[:-1].split("\n"), proportion)
    except (ValueError, IndexError, ArithmeticError) as exc:
        return f"unparsable output: {exc}"
