from fractions import Fraction
from itertools import permutations

import pytest

from hextiling import verify
from hextiling.exact import SingularParameterError, extend_backwards
from hextiling.formulas import (
    arcsine_limit,
    axis_sum,
    central_axis_closed_form,
    central_axis_sum,
    central_sum_recurrence_residue,
    fixed_count,
    fixed_count_even,
    fixed_count_odd,
    fixed_counts,
    lower_weighted_closed_forms,
    macmahon_count,
    proportion,
    proportion_balanced_form,
    proportion_nm,
    proportion_series_forms,
    reduced_poly_special_values,
    upper_count_closed_form,
)
from hextiling.hexagon import HexagonSpec, marked_path_family, pentagon_path_family
from hextiling.matrices import determinant, path_matrix, reduced_samples

F = Fraction


def test_macmahon_values():
    assert macmahon_count(1, 1, 1) == 2
    assert macmahon_count(2, 2, 2) == 20
    assert macmahon_count(3, 3, 4) == 4116
    assert macmahon_count(3, 3, 3) == 980
    assert macmahon_count(0, 7, 9) == 1


def test_macmahon_symmetric_in_all_axes():
    for a in range(0, 6):
        for b in range(a, 6):
            for c in range(b, 6):
                vals = {macmahon_count(*perm) for perm in permutations((a, b, c))}
                assert len(vals) == 1


def test_axis_sum_values():
    assert axis_sum(1, 1, 1) == F(1, 2)
    assert axis_sum(2, 1, 1) == F(2, 3)
    assert axis_sum(2, 2, 1) == F(1, 4)


def test_axis_sum_validation():
    with pytest.raises(ValueError):
        axis_sum(2, 0, 1)
    with pytest.raises(ValueError):
        axis_sum(2, 1, 3)
    # n = 0 has no axis position: the same error, not a division by zero
    with pytest.raises(ValueError, match="need 1 <= l <= 0, got l = 1"):
        proportion_nm(0, 1, 1)


def test_fixed_count_even_values():
    assert fixed_count_even(1, 1, 1) == 1
    assert fixed_count_even(2, 1, 1) == 8
    assert fixed_count_even(3, 2, 2) == 1372
    assert macmahon_count(3, 3, 4) == 3 * 1372


def test_fixed_count_odd_values():
    assert fixed_count_odd(2, 2, 1) == 252
    assert fixed_count_odd(2, 2, 2) == 252
    assert macmahon_count(3, 3, 3) == 980


def test_fixed_count_matches_both_parities_on_the_default_grid():
    # the oracle-vs-theorems grid, with the literal sides written out here
    for a in range(1, 4):
        for m_side in range(1, 5):
            spec = HexagonSpec(a, m_side)
            n, m = spec.n, spec.m
            for l in range(1, n + 1):
                got = fixed_count(spec, l)
                by_parity = fixed_count_odd if m_side % 2 else fixed_count_even
                assert got == by_parity(n, m, l), (a, m_side, l)
                assert got == proportion_nm(n, m, l) * macmahon_count(a, a, m_side)
    with pytest.raises(ValueError):
        fixed_count_even(0, 1, 1)


def test_proportion_values():
    assert proportion_nm(2, 1, 1) == F(2, 5)
    assert proportion_nm(2, 2, 1) == F(9, 35)
    for n in range(1, 5):
        assert proportion_nm(2 * n - 1, n, n) == F(1, 3)


def test_proportion_same_for_both_parities():
    even = proportion(HexagonSpec(3, 4), 2)
    odd = proportion(HexagonSpec(4, 3), 2)
    assert even == odd == F(1, 3)


def test_proportion_lands_in_unit_interval():
    for n in range(1, 6):
        for m in range(1, 5):
            for l in range(1, n + 1):
                p = proportion_nm(n, m, l)
                assert 0 <= p <= 1


def test_fixed_counts_symmetric_under_reflection():
    for n in range(1, 6):
        for m in range(1, 4):
            for l in range(1, n + 1):
                assert fixed_count_even(n, m, l) == fixed_count_even(n, m, n + 1 - l)


def test_fixed_counts_take_no_product_without_positions(monkeypatch):
    # hexagon(1, 3) has no axis position, so there is nothing to multiply
    from hextiling import formulas

    def unexpected(*sides):
        raise AssertionError(f"macmahon_count{sides} taken for no position")

    monkeypatch.setattr(formulas, "macmahon_count", unexpected)
    assert fixed_counts(HexagonSpec(1, 3), []) == []


def test_upper_count_closed_form():
    assert type(upper_count_closed_form(1, 2)) is int
    assert upper_count_closed_form(1, 2) == 3
    assert upper_count_closed_form(2, 1) == 5
    assert upper_count_closed_form(3, 0) == 1
    for n in range(1, 9):
        for m in range(0, 9):
            det = determinant(path_matrix(pentagon_path_family(n, m)))
            assert det == upper_count_closed_form(n, m), (n, m)


def test_lower_weighted_closed_form():
    for m in (1, 2, 5):
        assert lower_weighted_closed_forms(1, m) == [1]
    # the matrix determinant is 2^(n-1) times the weighted count
    for n, m, l in [(2, 1, 1), (4, 3, 2)]:
        det = F(determinant(path_matrix(marked_path_family(n, m, {l}))), 2 ** (n - 1))
        assert lower_weighted_closed_forms(n, m)[l - 1] == det
    for n, m in [(0, 1), (2, 0)]:
        with pytest.raises(ValueError):
            lower_weighted_closed_forms(n, m)


def test_lower_weighted_closed_form_grid():
    for n in range(1, 7):
        for m in range(1, 5):
            closed = lower_weighted_closed_forms(n, m)
            assert len(closed) == n
            for l in range(1, n + 1):
                det = F(determinant(path_matrix(marked_path_family(n, m, {l}))), 2 ** (n - 1))
                assert det == closed[l - 1], (n, m, l)


def test_reduced_poly_special_value_base():
    assert reduced_poly_special_values(1) == [[1]]


def test_reduced_poly_special_values_match_interpolation():
    for n in range(1, 7):
        samples, den = reduced_samples(n)
        specials = reduced_poly_special_values(n)
        for l, row in enumerate(samples, start=1):
            _, behind = extend_backwards(row, n // 2 + 1)  # P(0), P(-1), ...
            assert [F(z, den) for z in behind] == specials[l - 1], (n, l)


def test_special_values_are_cut_to_zero_per_position():
    # one product per (n, mu), cut to zero from mu = min(l, n + 1 - l) on
    for n in range(1, 13):
        table = reduced_poly_special_values(n)
        assert len(table) == n
        for l, values in enumerate(table, start=1):
            assert len(values) == n // 2 + 1, (n, l)
            cut = min(l, n + 1 - l)
            assert all(value == 0 for value in values[cut:]), (n, l)
            assert all(value != 0 for value in values[:cut]), (n, l)
    # even n: mu = n/2 is past the cutoff at every l
    assert [values[-1] for values in reduced_poly_special_values(4)] == [0] * 4
    assert reduced_poly_special_values(0) == []


def test_central_sum_values():
    assert central_axis_sum(1) == F(1, 2)
    assert central_axis_sum(2) == F(7, 20)
    # closed form at n = 2: 2 * 2! * 1! * 9!! / (6! * 5!!) = 7/20
    assert central_axis_closed_form(2) == F(2 * 2 * 945, 720 * 15)


def test_central_sum_identity_and_recurrence():
    for n in range(1, 11):
        assert central_axis_sum(n) == central_axis_closed_form(n)
        assert central_sum_recurrence_residue(n) == 0


def test_hyp_chain_values():
    by_name = {r.name: r for r in verify.check_hyp_chain(max_n=5, max_m=4)}
    for n, m, l in [(3, 2, 2), (2, 1, 1)] + [(5, 3, l) for l in range(1, 6)]:
        result = by_name[f"hyp chain n={n} m={m} l={l}"]
        assert result.ok and not result.skipped, (n, m, l)
    assert proportion_nm(3, 2, 2) == F(1, 3)
    assert proportion_nm(2, 1, 1) == F(2, 5)


def test_hyp_chain_singular_cells():
    # even n with l >= n/2 + 2 drives a lower parameter of the series form
    # through zero; nothing upstream of it is singular
    values, error = _series_outcomes(4, 2)
    assert values == [proportion_nm(4, 2, l) for l in range(1, 4)] and error
    assert proportion_balanced_form(4, 2, 4) == proportion_nm(4, 2, 4)


def _series_outcomes(n, m):
    """``proportion_series_forms(n, m)`` up to its end or its first error,
    and the error's message (None if it ran to the end)."""
    values = []
    try:
        for value in proportion_series_forms(n, m):
            values.append(value)
    except SingularParameterError as exc:
        return values, str(exc)
    return values, None


def test_series_forms_match_proportion_up_to_the_singular_position():
    for n in range(1, 13):
        for m in range(1, 9):
            values, error = _series_outcomes(n, m)
            # the series is singular exactly at even n, l >= n/2 + 2: a
            # lower parameter -n/2 vanishes at step n/2 + 1
            regular = n if n % 2 else min(n, n // 2 + 1)
            assert values == [proportion_nm(n, m, l) for l in range(1, regular + 1)], (n, m)
            want = f"denominator parameter {-n // 2} vanishes at step {n // 2 + 1}"
            assert error == (None if regular == n else want), (n, m)
    assert _series_outcomes(4, 2)[1] == "denominator parameter -2 vanishes at step 3"


@pytest.mark.parametrize("n, m", [(0, 1), (3, 0), (4, -1)])
def test_series_forms_reject_what_axis_sum_rejects(n, m):
    with pytest.raises(ValueError) as want:
        axis_sum(n, m, 1)
    with pytest.raises(ValueError) as got:
        proportion_series_forms(n, m)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("form", [proportion_balanced_form])
@pytest.mark.parametrize("n, m, l", [(3, 2, 0), (3, 2, 4), (3, 0, 2), (4, 0, 5)])
def test_sum_forms_reject_what_axis_sum_rejects(form, n, m, l):
    # l = 0, l = n + 1 and m = 0 fail before any arithmetic, with the
    # checks and messages of axis_sum (l is checked first)
    with pytest.raises(ValueError) as want:
        axis_sum(n, m, l)
    with pytest.raises(ValueError) as got:
        form(n, m, l)
    assert str(got.value) == str(want.value)


def test_proportion_matches_balanced_form_at_sweep_sizes():
    # the differential test of the axis sum stops at n = 40; sweep reaches
    # n in the hundreds
    for n, m, l in [(400, 100, 100), (400, 200, 200), (301, 150, 75), (400, 1, 400)]:
        assert proportion_nm(n, m, l) == proportion_balanced_form(n, m, l)


def test_arcsine_limit_values():
    assert abs(arcsine_limit(0.5, 0.5) - 1 / 3) < 1e-14
    assert arcsine_limit(0.0, 0.5) == 1.0
    assert arcsine_limit(3.0, 1e-9) < 1e-4
    with pytest.raises(ValueError):
        arcsine_limit(0.5, 0.0)
    with pytest.raises(ValueError):
        arcsine_limit(-0.1, 0.5)


def test_arcsine_limit_rejects_nan_a():
    # NaN fails every comparison, so it must not slip past the a >= 0 check
    with pytest.raises(ValueError, match="need a >= 0"):
        arcsine_limit(float("nan"), 0.5)


def test_integrality_guard():
    # every grid point must produce an integer count; a formula typo would
    # raise ArithmeticError here
    for n in range(1, 5):
        for m in range(1, 4):
            for l in range(1, n + 1):
                fixed_count_even(n, m, l)
                fixed_count_odd(n, m, l)
