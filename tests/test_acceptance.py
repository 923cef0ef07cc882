"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test sweeps its full parameter grid, prints a single PASS/FAIL line,
and fails with the offending cases listed.  Grids and tolerances are pinned
here; runtime budgets are asserted where one applies.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import time
from fractions import Fraction

from hextiling import verify
from hextiling.formulas import arcsine_limit, proportion_nm

F = Fraction


def _report(label: str, results, elapsed=None, budget=None):
    failures = [r for r in results if not r.ok]
    skipped = [r for r in results if r.skipped]
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {label}: {status} ({len(results) - len(failures)}/{len(results)} checks"
    if skipped:
        line += f", {len(skipped)} skipped"
    if elapsed is not None:
        line += f", {elapsed:.1f}s"
    line += ")"
    print(line)
    detail = "; ".join(f"{r.name}: {r.detail}" for r in failures[:5])
    assert not failures, f"{label}: {len(failures)} failing checks. {detail}"
    if budget is not None:
        assert elapsed < budget, f"{label} exceeded {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_totals_match_product_formula():
    t0 = time.monotonic()
    results = verify.check_totals(max_a=3, max_m=4, box_limit=3)
    _report("1 (oracle vs product formula)", results,
            time.monotonic() - t0, budget=60.0)


def test_criterion_02_fixed_counts_even_sides():
    results = verify.check_fixed_even(max_a=3, max_m=4)
    spot = [
        verify.CaseResult("spot 1-of-3", proportion_nm(1, 1, 1) == F(1, 3)),
        verify.CaseResult("spot 8-of-20", proportion_nm(2, 1, 1) == F(8, 20)),
    ]
    _report("2 (oracle vs even closed form)", results + spot)


def test_criterion_03_fixed_counts_odd_sides():
    results = verify.check_fixed_odd(max_a=3, max_m=3)
    spot = [
        verify.CaseResult(
            "spot 252-of-980",
            proportion_nm(2, 2, 1) == F(252, 980),
        )
    ]
    _report("3 (oracle vs odd closed form)", results + spot)


def test_criterion_04_one_third_at_the_centre():
    results = verify.check_corollary(max_n=10)
    _report("4 (one-third corollary, sum identity, recurrence)", results)


def test_criterion_05_upper_determinant_product():
    t0 = time.monotonic()
    results = verify.check_lemma5(max_n=8, max_m=8)
    _report("5 (upper determinant = product, n<=8, m<=8)", results,
            time.monotonic() - t0, budget=30.0)


def test_criterion_06_lower_determinant_closed_form():
    t0 = time.monotonic()
    results = verify.check_lemma6(max_n=7, max_m=5)
    _report("6 (lower determinant = closed form, n<=7, m<=5)", results,
            time.monotonic() - t0, budget=60.0)


def test_criterion_07_factorization_identity():
    results = verify.check_factorization(max_a=3, max_m=4)
    _report("7 (reflective factorization)", results)


def test_criterion_08_reduced_matrix_structure():
    results = verify.check_symmetries(max_n=6)
    results += verify.check_column_relations(max_n=8)
    results += verify.check_reduced_polynomials(max_n=6)
    _report("8 (symmetries, column relations, polynomial structure)", results)


def test_criterion_08_reflection_without_sign():
    # Stated criterion: the extracted polynomial satisfies P(m) = P(-n-m)
    # verbatim.  Exact computation (see test_matrices) shows the identity
    # only holds with the parity sign (-1)^(n+1): for even n the polynomial
    # is antisymmetric under m -> -n-m, so this check fails there honestly.
    results = verify.check_reflection_unsigned(max_n=6)
    _report("8b (unsigned reflection P(m) = P(-n-m))", results)


def test_criterion_09_hypergeometric_chain():
    results = verify.check_hyp_chain(max_n=5, max_m=4)
    skipped = [r.name for r in results if r.skipped]
    print(f"  singular cells skipped: {skipped}")
    _report("9 (proportion = both hypergeometric forms)", results)


def test_criterion_10_arcsine_convergence():
    t0 = time.monotonic()
    results = verify.check_convergence()
    elapsed = time.monotonic() - t0
    third = F(1, 3)
    err100 = abs(proportion_nm(100, 50, 50) - third)
    err200 = abs(proportion_nm(200, 100, 100) - third)
    print(f"  |p(100) - 1/3| = {float(err100):.6g}, |p(200) - 1/3| = {float(err200):.6g}, "
          f"a=1 b=1/4 limit = {arcsine_limit(1.0, 0.25):.6g}")
    _report("10 (arcsine-limit convergence)", results, elapsed, budget=30.0)
