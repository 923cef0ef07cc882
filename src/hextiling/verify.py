"""Named verification suites: each runs a grid of exact cross-checks.

Every suite returns a list of CaseResult records so callers (the command
line and the test suite) can render them however they like.  All suites are
deterministic.  Where an identity is a polynomial in m of bounded degree, it
is checked at fixed points, one more than that degree, which proves it for
every m.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple

from . import formulas, matrices, oracle
from .exact import SingularParameterError, binomial, extend_backwards, shifted_factorial
from .hexagon import (
    HexagonSpec,
    Parity,
    RegionKind,
    box_region,
    build_region,
    marked_path_family,
    path_family,
    pentagon_path_family,
)

_BOX_LIMIT = 3  # largest box side oracle-vs-theorems checks


class CaseResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.ok else "FAIL"


def _case(results: List[CaseResult], name: str, ok: bool, detail: str = ""):
    results.append(CaseResult(name, ok, detail))


def _grid(max_a, max_m) -> List[HexagonSpec]:
    """The hexagons of the oracle suites, (a, m) for a <= max_a, m <= max_m,
    in that order."""
    return [HexagonSpec(a, m) for a in range(1, max_a + 1) for m in range(1, max_m + 1)]


def _tallies(max_a, max_m, max_cells, parities=(Parity.EVEN, Parity.ODD)):
    """``{spec: (product, total, fixed)}`` for the grid hexagons with their
    parity in ``parities``, in grid order: MacMahon's product, taken once
    per hexagon, beside the total and the fixed counts of
    ``oracle.hexagon_tallies``.  Every hexagon is checked against the
    oracle's limits before the first is counted."""
    specs = [spec for spec in _grid(max_a, max_m) if spec.parity in parities]
    return {spec: (formulas.macmahon_count(spec.side_a, spec.side_a, spec.side_m), *tally)
            for spec, tally in oracle.hexagon_tallies(specs, max_cells).items()}


def _total_cases(tallies, box_limit, max_cells) -> List[CaseResult]:
    """Hexagon totals from the walk against their products, then every box
    with sides up to box_limit.  box(a, b, a) has the cells of
    hexagon(a, b), so it takes that hexagon's count when the walk holds it;
    each box is still compared with the product in its own argument
    order."""
    out: List[CaseResult] = []
    for spec, (want, got, _) in tallies.items():
        a, m = spec
        _case(out, f"hexagon({a},{m}) total", got == want, f"oracle {got} vs product {want}")
    for a in range(1, box_limit + 1):
        for b in range(1, box_limit + 1):
            for c in range(1, box_limit + 1):
                hexagon = HexagonSpec(a, b)
                if c == a and hexagon in tallies:
                    got = tallies[hexagon][1]
                else:
                    got = oracle.count_tilings(box_region(a, b, c), max_cells)
                want = formulas.macmahon_count(a, b, c)
                _case(out, f"box({a},{b},{c}) total", got == want, f"oracle {got} vs product {want}")
    return out


def _fixed_cases(tallies) -> List[CaseResult]:
    """Oracle fixed counts against the proportion times the hexagon's
    product.  The closed form is compared as a fraction, so a product that
    makes it non-integral fails the check of its position instead of
    stopping the run."""
    out: List[CaseResult] = []
    for spec, (total, _, fixed) in tallies.items():
        a, m = spec
        for l, got in fixed.items():
            want = formulas.proportion(spec, l) * total
            _case(out, f"hexagon({a},{m}) fixed l={l}", got == want,
                  f"oracle {got} vs formula {want}")
    return out


def check_totals(max_a: int = 3, max_m: int = 4, box_limit: int = 3,
                 max_cells: int = oracle.DEFAULT_CELL_LIMIT) -> List[CaseResult]:
    """Oracle tiling counts against MacMahon's product, hexagons and boxes."""
    return _total_cases(_tallies(max_a, max_m, max_cells), box_limit, max_cells)


def check_fixed_even(max_a: int = 3, max_m: int = 4,
                     max_cells: int = oracle.DEFAULT_CELL_LIMIT) -> List[CaseResult]:
    """Oracle fixed-rhombus counts against the even-side closed form."""
    return _fixed_cases(_tallies(max_a, max_m, max_cells, {Parity.EVEN}))


def check_fixed_odd(max_a: int = 3, max_m: int = 3,
                    max_cells: int = oracle.DEFAULT_CELL_LIMIT) -> List[CaseResult]:
    """Oracle fixed-rhombus counts against the odd-side closed form."""
    return _fixed_cases(_tallies(max_a, max_m, max_cells, {Parity.ODD}))


def _ciucu(spec: HexagonSpec, upper, lower):
    """Ciucu's factorization (JCTA 77, 1997) of the count of tilings that
    contain an axis rhombus: 2^(side_a-1) times the tiling count of the
    trimmed upper half times the weighted count of the lower half marked
    there.  (For odd parity the trimmed upper half is the whole upper
    half.)"""
    return 2 ** (spec.side_a - 1) * upper * lower


def check_factorization(max_a: int = 3, max_m: int = 4,
                        max_cells: int = oracle.DEFAULT_CELL_LIMIT) -> List[CaseResult]:
    """Ciucu's factorization on oracle counts: the left side the count of
    enumerated tilings that hold the rhombus at each position, the upper
    half counted once per hexagon on the frontier kernel and the lower half
    once per l.  Every hexagon is checked against the oracle's limits before
    the first enumeration, so an oversized request fails at once, on the
    first hexagon past them; a half is never larger or wider than its
    hexagon, so no half fails first.

    A hexagon's regions are built in a row, so each hexagon's cells are
    computed once for its check and once for the limit check, and its
    n left sides are tallied from one enumeration of it (see
    :mod:`hextiling.oracle`)."""
    out: List[CaseResult] = []
    specs = [spec for spec in _grid(max_a, max_m) if spec.n > 0]
    for spec in specs:
        oracle.check_limits(build_region(spec, RegionKind.FULL_HEXAGON), max_cells)
    for spec in specs:
        a, m = spec
        positions = range(1, spec.n + 1)
        fixed = [oracle.count_with_fixed_rhombus(spec, l, max_cells) for l in positions]
        upper = oracle.count_tilings(build_region(spec, RegionKind.UPPER_TRIMMED), max_cells)
        for l, got in zip(positions, fixed):
            lower = oracle.weighted_count(build_region(spec, RegionKind.LOWER_HALF, l), max_cells)
            _case(out, f"hexagon({a},{m}) factorization l={l}", got == _ciucu(spec, upper, lower))
    return out


def check_lemma5(max_n: int = 8, max_m: int = 8) -> List[CaseResult]:
    """Upper-pentagon determinant against its product formula."""
    out: List[CaseResult] = []
    for n in range(1, max_n + 1):
        for m in range(0, max_m + 1):
            det = matrices.determinant(matrices.path_matrix(pentagon_path_family(n, m)))
            want = formulas.upper_count_closed_form(n, m)
            _case(out, f"upper det n={n} m={m}", det == want, f"{det} vs {want}")
    return out


def check_lemma6(max_n: int = 7, max_m: int = 5) -> List[CaseResult]:
    """Weighted lower determinant against its closed form.

    For each (n, m) the n path matrices, one per marked position l, differ
    only in the marked row, so two path matrices hold all their rows: the
    family with no marks gives the plain rows and the family with every
    mark the marked ones, and ``matrices.marked_row_determinants`` shares
    the elimination across l.  ``formulas.lower_weighted_closed_forms``
    builds the l-independent factors of the closed form once for every l.
    """
    out: List[CaseResult] = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            plain = matrices.path_matrix(marked_path_family(n, m, ()))
            marked = matrices.path_matrix(marked_path_family(n, m, range(1, n + 1)))
            dets = matrices.marked_row_determinants(plain, marked)
            wants = formulas.lower_weighted_closed_forms(n, m)
            for l, (det, want) in enumerate(zip(dets, wants), start=1):
                det = Fraction(det, 2 ** (n - 1))
                _case(out, f"lower det n={n} m={m} l={l}", det == want, f"{det} vs {want}")
    return out


def check_symmetries(max_n: int = 6) -> List[CaseResult]:
    """Reduced-determinant symmetries in l and in m, for every m.

    Both sides of each identity are polynomials in m of degree at most
    b = C(n+1, 2) - 1, so agreement at b+1 distinct points proves it.  The
    sample points are m = (2k+1)/3 and their mirrors -n-m, for
    k = 0..floor(b/2)+1: 2(floor(b/2)+2) distinct points (the first are
    positive, the mirrors below -n), each evaluated once for every l.
    The l-reflection is compared at every point.  The m-reflection is
    compared once per mirror pair, and that covers both points of the
    pair: g(m) = det_l(-n-m) - (-1)^b det_l(m) satisfies
    g(-n-m) = -(-1)^b g(m) identically, so a zero of g at m is also a zero
    at -n-m.  Either identity thus holds at 2(floor(b/2)+2) >= b+3 points,
    so the pairs still leave a spare point: two or more beyond the b+1
    the proof needs.  Within a point the n determinants share one
    denominator and compare as integers; the two points of a pair are
    cross-multiplied.
    """
    out: List[CaseResult] = []
    for n in range(1, max_n + 1):
        bound = matrices.reduced_degree_bound(n)
        pairs = [(matrices.reduced_determinants(m, n), matrices.reduced_determinants(-n - m, n))
                 for m in (Fraction(2 * k + 1, 3) for k in range(bound // 2 + 2))]
        for l in range(n):
            ok_l = all(dets[l] == dets[n - 1 - l] for pair in pairs for dets, _ in pair)
            ok_m = all(neg[l] * den == (-1) ** bound * dets[l] * neg_den
                       for (dets, den), (neg, neg_den) in pairs)
            _case(out, f"reflect-l symmetry n={n} l={l + 1}", ok_l)
            _case(out, f"m -> -n-m symmetry n={n} l={l + 1}", ok_m)
    return out


def check_column_relations(max_n: int = 8) -> List[CaseResult]:
    """Vanishing column combinations of the reduced matrix at m = -e-1/2.

    For 1 <= k <= e <= n/2 - 1 and each marked row l <= (n+1)/2, the
    binomial-weighted block of columns collapses onto a single earlier
    column:

        sum_{j=0}^{k} C(k,j) * col(n-2e+k+j)
            = (n-e-l+1/2)_k / ((-4)^k (n-e-l+1)_k) * col(n-2e).

    The k relations for k = 1..e are linearly independent, which is what
    forces (m+e+1/2)^e to divide the determinant.  They are tested on the
    integer rows of ``matrices.reduced_rows``, read once per (n, e): each
    row sits over one denominator, so the relation holds on its numerators.
    Neither side of a row depends on l, so each row's weighted sum and its
    col(n-2e) entry are formed once per (n, e, k) and compared per l, with
    the coefficient cross-multiplied.
    """
    out: List[CaseResult] = []
    for n in range(1, max_n + 1):
        last_l = (n + 1) // 2
        for e in range(1, n // 2):
            plain, marked, _, _ = matrices.reduced_rows(Fraction(-2 * e - 1, 2), n)
            base = n - 2 * e - 1  # 0-based index of col(n-2e)
            for k in range(1, e + 1):
                weights = [binomial(k, j) for j in range(k + 1)]
                # each row as (its weighted block of columns, its col(n-2e))
                plain_sides, marked_sides = (
                    [(sum(w * x for w, x in zip(weights, row[base + k:])), row[base])
                     for row in rows]
                    for rows in (plain, marked[:last_l]))
                for l in range(1, last_l + 1):
                    coeff = shifted_factorial(n - e - l + Fraction(1, 2), k) / (
                        Fraction(-4) ** k * shifted_factorial(n - e - l + 1, k)
                    )
                    p, q = coeff.numerator, coeff.denominator
                    ok = all(block * q == p * col for block, col in
                             plain_sides[: l - 1] + [marked_sides[l - 1]] + plain_sides[l:])
                    _case(out, f"column relation n={n} l={l} e={e} k={k}", ok)
    return out


def _reduced_polynomial_values(n: int):
    """For each marked row l = 1..n in turn, the degree of the polynomial
    part P_l of the reduced determinant and its values, all over one
    denominator: ``(degree, behind, ahead)`` with ``behind[j]`` the
    numerator of P_l(-j), j = 0..2n+2, and ``ahead[j]`` that of P_l(1 + j),
    j = 0..n+1; and that denominator.

    ``ahead`` holds the samples of ``matrices.reduced_samples``; ``behind``
    comes from their difference table run backwards, and reaches the
    mirror -n-m of every sample point m and every special value point in
    [-floor(n/2), 0].
    """
    samples, den = matrices.reduced_samples(n)
    return [(*extend_backwards(ahead, 2 * n + 3), ahead) for ahead in samples], den


def check_reduced_polynomials(max_n: int = 6) -> List[CaseResult]:
    """Degree bound, signed reflection identity, and special values of the
    polynomial part P of the reduced determinant: the three facts the
    polynomial method of Lemma 6 rests on.

    P is read from its n + 2 integer samples at m = 1..n+2 alone (see
    ``matrices.reduced_samples``), and every verdict is a statement about
    values: the degree is that of the interpolant through the samples; the
    reflection P(-n-m) = (-1)^(n+1) P(m) is compared at all n + 2 sample
    points m, which decides it for the interpolant (degree <= n + 1) even
    where the degree check fails; the special values at m in
    [-floor(n/2), 0] are compared with
    ``formulas.reduced_poly_special_values`` by cross-multiplying, all l of
    one n reading one set of factorial products.  See
    check_reflection_unsigned for the strict sign-free variant of the
    reflection.
    """
    out: List[CaseResult] = []
    for n in range(1, max_n + 1):
        polys, den = _reduced_polynomial_values(n)
        sign = 1 if n % 2 else -1
        specials = formulas.reduced_poly_special_values(n)
        for l, (degree, behind, ahead) in enumerate(polys, start=1):
            _case(out, f"poly degree n={n} l={l}", degree <= n - 1, f"degree {degree}")
            # behind[n + 1:] holds P(-n-m) for m = 1..n+2
            _case(out, f"poly signed reflection n={n} l={l}",
                  behind[n + 1:] == [sign * z for z in ahead])
            ok_vals = all(z * value.denominator == value.numerator * den
                          for z, value in zip(behind, specials[l - 1]))
            _case(out, f"poly special values n={n} l={l}", ok_vals)
    return out


def check_reflection_unsigned(max_n: int = 6) -> List[CaseResult]:
    """Strict reflection identity P(m) = P(-n-m) without the parity sign,
    compared at the n + 2 sample points as check_reduced_polynomials does.

    Exact computation shows this form holds only for odd n; even n flips the
    sign.  Kept separate so the honest failure is visible in isolation.
    """
    out: List[CaseResult] = []
    for n in range(1, max_n + 1):
        polys, _ = _reduced_polynomial_values(n)
        for l, (_, behind, ahead) in enumerate(polys, start=1):
            _case(out, f"poly unsigned reflection n={n} l={l}", behind[n + 1:] == ahead)
    return out


def _path_det(spec: HexagonSpec, kind: RegionKind, axis=None) -> int:
    return matrices.determinant(matrices.path_matrix(path_family(spec, kind, axis)))


def _centre_third_by_determinants(spec: HexagonSpec, lower: int) -> bool:
    """Propp's one-third from path-matrix determinants alone.  By Ciucu's
    factorization the fixed count is ``_ciucu(spec, det U, det L_l)`` /
    2^(n-1), for the trimmed upper half U and the lower half L_l marked at
    l, whose determinant is ``lower`` (2^(n-1) times its weighted count);
    three times it must equal the total, det G of the full hexagon."""
    upper = _path_det(spec, RegionKind.UPPER_TRIMMED)
    total = _path_det(spec, RegionKind.FULL_HEXAGON)
    return 3 * _ciucu(spec, upper, lower) == 2 ** (spec.n - 1) * total


def check_corollary(max_n: int = 10) -> List[CaseResult]:
    """Propp's one-third at the central specialization (2n-1, n, n), for n
    up to min(4, max_n), by two routes: the closed-form proportion, and the
    path-matrix determinants of both hexagons it covers, (2n-1, 2n) and
    (2n, 2n-1), with no closed form.  Then the central-sum closed form and
    its two-term recurrence up to max_n."""
    out: List[CaseResult] = []
    third = Fraction(1, 3)
    for n in range(1, min(4, max_n) + 1):
        big_n, m, l = 2 * n - 1, n, n
        p = formulas.proportion_nm(big_n, m, l)
        _case(out, f"centre proportion n={n}", p == third, f"{p}")
        even, odd = HexagonSpec(big_n, 2 * m), HexagonSpec(big_n + 1, 2 * m - 1)
        # both hexagons have the lower half marked_path_family(big_n, m, {l})
        lower = _path_det(even, RegionKind.LOWER_HALF, l)
        _case(out, f"centre even count n={n}", _centre_third_by_determinants(even, lower))
        _case(out, f"centre odd count n={n}", _centre_third_by_determinants(odd, lower))
    for n in range(1, max_n + 1):
        _case(out, f"central sum closed form n={n}",
              formulas.central_axis_sum(n) == formulas.central_axis_closed_form(n))
        _case(out, f"central sum recurrence n={n}",
              formulas.central_sum_recurrence_residue(n) == 0)
    return out


def _series_forms(n: int, m: int) -> list:
    """``formulas.proportion_series_forms(n, m)`` as a list of n entries:
    the series form at each l up to the first singular one, and from there
    on the SingularParameterError that stopped the pass."""
    out = []
    try:
        for value in formulas.proportion_series_forms(n, m):
            out.append(value)
    except SingularParameterError as exc:
        out += [exc] * (n - len(out))
    return out


def check_hyp_chain(max_n: int = 5, max_m: int = 4) -> List[CaseResult]:
    """Proportion against both hypergeometric re-expressions; cells where the
    series form is singular are reported as skipped.

    The series form's parameters depend on (n, m) only, so one pass over
    the series gives it at every l; the proportion and the balanced form
    are computed per l.
    """
    out: List[CaseResult] = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            for l, series in enumerate(_series_forms(n, m), start=1):
                name = f"hyp chain n={n} m={m} l={l}"
                if isinstance(series, SingularParameterError):
                    out.append(CaseResult(name, True, f"skipped: {series}", skipped=True))
                    continue
                target = formulas.proportion_nm(n, m, l)
                _case(out, name, target == series
                      and target == formulas.proportion_balanced_form(n, m, l))
    return out


def check_convergence() -> List[CaseResult]:
    """Exact proportions approach the arcsine limit along m ~ a*n, l ~ b*n."""
    out: List[CaseResult] = []
    third = Fraction(1, 3)
    err100 = abs(formulas.proportion_nm(100, 50, 50) - third)
    err200 = abs(formulas.proportion_nm(200, 100, 100) - third)
    _case(out, "a=b=1/2 error at n=100 below 2e-2", err100 < Fraction(2, 100),
          f"error {float(err100):.6g}")
    _case(out, "a=b=1/2 error shrinks from n=100 to n=200", err200 < err100,
          f"{float(err200):.6g} < {float(err100):.6g}")
    limit = formulas.arcsine_limit(1.0, 0.25)
    err = abs(float(formulas.proportion_nm(100, 100, 25)) - limit)
    _case(out, "a=1 b=1/4 error at n=100 below 5e-2", err < 0.05,
          f"error {err:.6g}")
    return out


def check_oracle_vs_theorems(max_a: int = 3, max_m: int = 4,
                             max_cells: int = oracle.DEFAULT_CELL_LIMIT) -> List[CaseResult]:
    """Totals plus fixed-rhombus counts for both parities on one grid.

    The grid is walked once: ``_tallies`` gives every hexagon's total and
    fixed counts from ``oracle.hexagon_tallies`` beside MacMahon's product,
    taken once per hexagon, for its total and, times the proportion at each
    position, for its fixed counts.  A product that is wrong shows as FAIL
    lines, also where it leaves a fixed count non-integral.  box(a, b, a) reuses
    hexagon(a, b)'s total but takes its own product, in its own argument
    order.  Box totals stop at sides of _BOX_LIMIT whatever max_a is; a
    larger max_a is reported on stderr as bounding the hexagons only.
    """
    if max_a > _BOX_LIMIT:
        side = _BOX_LIMIT
        print(f"warning: suite oracle-vs-theorems checks boxes only up to "
              f"{side}x{side}x{side}; max_a={max_a} bounds the hexagons only",
              file=sys.stderr)
    tallies = _tallies(max_a, max_m, max_cells)
    return _total_cases(tallies, min(max_a, _BOX_LIMIT), max_cells) + _fixed_cases(tallies)


SUITES: Dict[str, Callable[..., List[CaseResult]]] = {
    "oracle-vs-theorems": check_oracle_vs_theorems,
    "lemma5": check_lemma5,
    "lemma6": check_lemma6,
    "factorization": check_factorization,
    "symmetries": check_symmetries,
    "column-relation": check_column_relations,
    "p-polynomial": check_reduced_polynomials,
    "corollary": check_corollary,
    "hyp-chain": check_hyp_chain,
    "convergence": check_convergence,
}


def run_suite(name: str, **bounds) -> List[CaseResult]:
    """Run a named suite, passing through only the bounds it understands."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    code = fn.__code__
    accepted = code.co_varnames[:code.co_argcount]
    kwargs = {}
    for key, value in bounds.items():
        if value is None:
            continue
        if key in accepted:
            kwargs[key] = value
        else:
            print(f"warning: suite {name} takes no {key}; {key}={value} ignored",
                  file=sys.stderr)
    return fn(**kwargs)
