"""Differential tests: each integer-first exact kernel against the
term-by-term Fraction construction it replaced, and each path matrix
against its entries typed out by hand, kept here as the references.

The references build on nothing that was rewritten: only ``Fraction``,
``math``, ``binomial``, ``reciprocal_factorial`` and ``Polynomial``
arithmetic.  (The determinant is checked against the permutation expansion
in ``test_matrices.py``.)
"""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

from hextiling.exact import (
    Polynomial,
    binomial,
    lagrange_interpolate,
    reciprocal_factorial,
    shifted_factorial,
)
from hextiling.formulas import axis_sum
from hextiling.matrices import (
    lower_weighted_matrix,
    reduced_lower_matrix,
    upper_count_matrix,
)

F = Fraction


def _reference_shifted_factorial(a, k):
    """One Fraction product per factor."""
    a = F(a)
    out = F(1)
    for t in range(k):
        out *= a + t
    return out


def _reference_lagrange(points):
    """One Polynomial product per basis factor, for every node."""
    xs = [F(x) for x, _ in points]
    total = Polynomial()
    for i, (xi, yi) in enumerate(points):
        xi = F(xi)
        basis = Polynomial([1])
        denom = F(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = basis * Polynomial([-xj, 1])
            denom *= xi - xj
        total = total + basis * (F(yi) / denom)
    return total


def _reference_upper_count(n, m):
    """The binomial entries typed out by hand."""
    return [
        [binomial(n + m - i + 1, m + i - j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def _reference_lower_weighted(n, m, l):
    """Each entry as a chain of Fraction products of factorial reciprocals."""
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            top = F(math.factorial(n + m - i))
            if i == l:
                entry = (top * reciprocal_factorial(m + i - j)
                         * reciprocal_factorial(n + j - 2 * i))
            else:
                entry = (top * reciprocal_factorial(m + i - j)
                         * reciprocal_factorial(n + j - 2 * i + 1)
                         * (m + F(n - j + 1, 2)))
            row.append(entry)
        rows.append(row)
    return rows


def _reference_reduced_lower(m, n, l):
    """Each entry as a chain of Fraction products of shifted factorials."""
    sf = _reference_shifted_factorial
    m = F(m)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            lead = sf(m + i - j + 1, j - 1)
            if i == l:
                entry = lead * sf(n + j - 2 * i + 1, n - j + 1)
            else:
                entry = lead * sf(n + j - 2 * i + 2, n - j) * (n + 2 * m - j + 1) / 2
            row.append(entry)
        rows.append(row)
    return rows


def _reference_axis_sum(n, m, l):
    """Every term built from scratch: O(l^2) factors."""
    sf = _reference_shifted_factorial
    total = F(0)
    for e in range(l):
        term = F((-1) ** e * binomial(n, e) * (n - 2 * e))
        term *= sf(F(1, 2), e)
        term /= (m + e) * (m + n - e)
        term /= sf(F(1, 2) - n, e)
        total += term
    return total


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _n_and_l(draw, max_n):
    n = draw(st.integers(1, max_n))
    return n, draw(st.integers(1, n))


@given(st.one_of(_rationals, st.integers(-12, 12)), st.integers(0, 12))
def test_shifted_factorial_matches_reference(a, k):
    # integer bases <= 0 put a zero factor inside the product
    assert shifted_factorial(a, k) == _reference_shifted_factorial(a, k)


@given(st.lists(st.tuples(_rationals, _rationals), max_size=8,
                unique_by=lambda pt: pt[0]))
def test_lagrange_matches_reference(points):
    assert lagrange_interpolate(points) == _reference_lagrange(points)


@given(st.integers(1, 8), st.integers(0, 12))
def test_upper_count_matrix_matches_reference(n, m):
    assert upper_count_matrix(n, m) == _reference_upper_count(n, m)


@given(_n_and_l(6), st.integers(1, 12))
def test_lower_weighted_matrix_matches_reference(nl, m):
    n, l = nl
    assert lower_weighted_matrix(n, m, l) == _reference_lower_weighted(n, m, l)


@given(_n_and_l(6), st.fractions(min_value=-10, max_value=10, max_denominator=9))
def test_reduced_lower_matrix_matches_reference(nl, m):
    n, l = nl
    assert reduced_lower_matrix(m, n, l) == _reference_reduced_lower(m, n, l)


@given(_n_and_l(40), st.integers(1, 40))
def test_axis_sum_matches_reference(nl, m):
    n, l = nl
    assert axis_sum(n, m, l) == _reference_axis_sum(n, m, l)
