"""Exact matrices and determinants for the lattice-path counting engine.

The three matrix families below encode nonintersecting lattice-path counts
(Lindstrom-Gessel-Viennot): a binomial matrix whose determinant counts
tilings of the trimmed upper pentagon, a factorial matrix with half-integer
weights whose determinant is the weighted count of the lower half-region,
and the row-rescaled polynomial version of the latter whose entries are
shifted factorials in a rational parameter m.

Determinants are computed by fraction-free Bareiss elimination over integers
after clearing row denominators, with a deterministic pivot rule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

from .exact import (
    Polynomial,
    _rising_product,
    binomial,
    lagrange_interpolate,
    shifted_factorial,
)

Matrix = List[List[Fraction]]


def determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination.

    Each row is scaled to integers first (the scale product is divided back
    out at the end), then the Bareiss recurrence runs with exact integer
    divisions.  Zero pivots are repaired by swapping with the first row below
    that has a nonzero entry in the pivot column, flipping the tracked sign;
    if none exists the determinant is zero.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)

    scale = 1
    mat: List[List[int]] = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in fracs))
        scale *= den
        mat.append([x.numerator * (den // x.denominator) for x in fracs])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, n):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = mat[k][k]
        row_k = mat[k]
        for i in range(k + 1, n):
            row_i = mat[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                # exact by Sylvester's identity: prev divides the numerator
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * mat[-1][-1], scale)


def upper_count_matrix(n: int, m: int) -> List[List[int]]:
    """Binomial path matrix for the trimmed upper pentagon, size n x n.

    Entry (i, j) counts the lattice paths from start j to end i of the
    pentagon's path family; its determinant is the region's tiling count.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return [
        [binomial(n + m - i + 1, m + i - j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def lower_weighted_matrix(n: int, m: int, l: int) -> Matrix:
    """Weighted path matrix for the lower half-region, size n x n.

    Row l belongs to the marked path ending one row higher; every other row
    carries the half-integer weight for paths that end with a vertical step.
    Factorial reciprocals of negative arguments are zero, matching the count
    of impossible paths.
    """
    if not 1 <= l <= n:
        raise ValueError("marked row out of range")
    if m < 1:
        raise ValueError("need m >= 1")
    rows = []
    for i in range(1, n + 1):
        top = math.factorial(n + m - i)
        row = []
        for j in range(1, n + 1):
            left, right = m + i - j, n + j - 2 * i
            if i != l:
                right += 1
            if left < 0 or right < 0:
                # 1/k! == 0 for k < 0: no path joins the two endpoints
                row.append(Fraction(0))
                continue
            num, den = top, math.factorial(left) * math.factorial(right)
            if i != l:
                # half-integer weight m + (n-j+1)/2 of a path ending vertically
                num, den = num * (2 * m + n - j + 1), 2 * den
            row.append(Fraction(num, den))
        rows.append(row)
    return rows


def row_scale_product(n: int, m: int) -> Fraction:
    """Product of the factors pulled out of each row to pass from the
    weighted path matrix to its shifted-factorial version."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= Fraction(
            math.factorial(n + m - i),
            math.factorial(m + i - 1) * math.factorial(2 * n - 2 * i + 1),
        )
    return out


def reduced_lower_matrix(m, n: int, l: int) -> Matrix:
    """Row-rescaled lower matrix with entries polynomial in a rational m.

    Equal to the weighted path matrix divided row-wise by the factors of
    :func:`row_scale_product`; the parameter m may be any rational, which is
    what makes the determinant a polynomial in m.
    """
    if not 1 <= l <= n:
        raise ValueError("marked row out of range")
    m = Fraction(m)
    p, q = m.numerator, m.denominator
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            # (m+i-j+1)_{j-1} = lead / q**(j-1)
            lead = _rising_product(p + (i - j + 1) * q, q, j - 1)
            if i == l:
                entry = Fraction(
                    lead * _rising_product(n + j - 2 * i + 1, 1, n - j + 1),
                    q ** (j - 1),
                )
            else:
                # times (n+j-2i+2)_{n-j} and (n+2m-j+1)/2, with m = p/q
                entry = Fraction(
                    lead
                    * _rising_product(n + j - 2 * i + 2, 1, n - j)
                    * ((n - j + 1) * q + 2 * p),
                    2 * q**j,
                )
            row.append(entry)
        rows.append(row)
    return rows


def reduced_prefactor(m, n: int) -> Fraction:
    """The forced shifted-factorial divisor of the reduced determinant."""
    m = Fraction(m)
    out = Fraction(1)
    for i in range(1, n // 2 + 1):
        out *= shifted_factorial(m + i, n - 2 * i + 1)
        out *= shifted_factorial(m + i + Fraction(1, 2), n - 2 * i)
    return out


def _column(mat: Matrix, j: int) -> List[Fraction]:
    """1-based column extraction."""
    return [row[j - 1] for row in mat]


def check_column_relation(n: int, l: int, e: int, k: int) -> bool:
    """Verify one vanishing linear combination of columns at m = -e - 1/2.

    For admissible (e, k) the binomial-weighted block of columns of the
    reduced matrix at m = -e-1/2 collapses onto a single earlier column:

        sum_{j=0}^{k} C(k,j) * col(n-2e+k+j)
            = (n-e-l+1/2)_k / ((-4)^k (n-e-l+1)_k) * col(n-2e).

    The k relations for k = 1..e are linearly independent, which is what
    forces (m+e+1/2)^e to divide the determinant.
    """
    if not 1 <= e <= n // 2 - 1:
        raise ValueError("need 1 <= e <= floor(n/2) - 1")
    if not 1 <= k <= e:
        raise ValueError("need 1 <= k <= e")
    if not 1 <= l <= (n + 1) // 2:
        raise ValueError("need 1 <= l <= floor((n+1)/2)")
    mat = reduced_lower_matrix(Fraction(-2 * e - 1, 2), n, l)
    combo = [Fraction(0)] * n
    for j in range(k + 1):
        col = _column(mat, n - 2 * e + k + j)
        w = binomial(k, j)
        for r in range(n):
            combo[r] += w * col[r]
    coeff = shifted_factorial(n - e - l + Fraction(1, 2), k) / (
        Fraction(-4) ** k * shifted_factorial(n - e - l + 1, k)
    )
    base = _column(mat, n - 2 * e)
    return all(combo[r] == coeff * base[r] for r in range(n))


def extract_reduced_polynomial(n: int, l: int) -> Polynomial:
    """Interpolate the polynomial part of the reduced determinant.

    Samples the determinant at n positive integer values of m where the
    forced prefactor is nonzero, divides it out pointwise, and Lagrange
    interpolates; the result has degree at most n - 1.
    """
    if not 1 <= l <= n:
        raise ValueError("marked row out of range")
    points = []
    m_val = 0
    while len(points) < n:
        m_val += 1
        pref = reduced_prefactor(m_val, n)
        if pref == 0:
            continue
        det = determinant(reduced_lower_matrix(m_val, n, l))
        points.append((Fraction(m_val), det / pref))
    return lagrange_interpolate(points)
