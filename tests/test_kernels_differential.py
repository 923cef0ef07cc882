"""Differential tests: each rewritten kernel against a reference that
builds the same value another way.

- ``binomial`` and ``_rising_product`` against the integer loops they
  replaced: the falling product n(n-1)...(n-k+1) // k! and one
  multiplication per factor.
- Each integer-first exact kernel against a term-by-term Fraction
  construction of the same value (the axis sum and the three forms of the
  proportion among them, the series form at every position of one
  (n, m), and the hypergeometric partial sums at every length), the
  reference ``Polynomial``'s evaluation and arithmetic against plain
  lists of Fraction coefficients, and the backward
  difference table of ``extend_backwards`` against Lagrange interpolation
  over ``Fraction``.
- Each path matrix against its entries typed out by hand.
- The integer Bareiss ``determinant``, and the Bareiss steps shared
  across row-replaced matrices, directly and through
  ``marked_row_determinants``, against a Gaussian elimination over
  ``Fraction`` that swaps rows where they swap columns.
- The oracle's iterative search against the three recursive searches it
  replaced, kept here as the references.
- The oracle's neighbor lists, in both of the counters' scan orders,
  against ``cell_neighbors`` below, which lists all three neighbors of a
  cell from its coordinates alone; and its counts, weighted counts and
  hexagon tallies in each scan order against the other and the references.
- The per-column hexagon builder against the row-by-row parity loop it
  replaced, and the oracle's one-pass hexagon tally against the count of
  the hexagon less each axis rhombus's two cells.

The references build on nothing rewritten but ``binomial``, which is
checked here against the loop it replaced: only ``Fraction`` (the
polynomial references work on plain lists of ``Fraction`` coefficients,
not on ``Polynomial``), ``math``, ``binomial``, the rational elimination
below and the cell geometry of ``cell_neighbors``.  (The determinant is
also checked against the permutation expansion in ``test_matrices.py``.)
The closed forms, the hypergeometric forms of the proportion and the
samples of the reduced determinant's polynomial part are checked against
the one-``Fraction``-per-factor versions they replaced, also kept here.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hextiling import oracle
from hextiling.exact import (
    Polynomial,
    SingularParameterError,
    _rising_product,
    binomial,
    extend_backwards,
    hypergeometric_partial_sums,
    hypergeometric_sum,
    shifted_factorial,
)
from hextiling.formulas import (
    axis_sum,
    lower_weighted_closed_forms,
    macmahon_count,
    proportion_balanced_form,
    proportion_nm,
    proportion_series_forms,
    reduced_poly_special_values,
)
from hextiling.hexagon import (
    Cell,
    HexagonSpec,
    Region,
    RegionKind,
    axis_rhombus_cells,
    box_region,
    build_region,
    hexagon_cells,
    marked_path_family,
    pentagon_path_family,
)
from hextiling.matrices import (
    _bareiss,
    determinant,
    marked_row_determinants,
    path_matrix,
    reduced_determinants,
    reduced_prefactor,
    reduced_rows,
    reduced_samples,
)
from hextiling.oracle import (
    DEFAULT_CELL_LIMIT,
    RegionTooLargeError,
    count_tilings,
    count_with_fixed_rhombus,
    enumerate_tilings,
    hexagon_tally,
    weighted_count,
)

F = Fraction


def _reference_binomial(n, k):
    """The falling product n(n-1)...(n-k+1) // k!, which holds for negative
    n too, over the shorter of k and n - k when n >= 0."""
    if n >= 0 and 2 * k > n:
        k = n - k
    if k < 0:
        return 0
    out = 1
    for t in range(k):
        out *= n - t
    # k consecutive integers are always divisible by k!
    return out // math.factorial(k)


def _reference_rising_product(p, q, k):
    """p(p+q)(p+2q)...(p+(k-1)q), one multiplication per factor."""
    out = 1
    for t in range(k):
        out *= p + t * q
    return out


def _reference_shifted_factorial(a, k):
    """One Fraction product per factor."""
    a = F(a)
    out = F(1)
    for t in range(k):
        out *= a + t
    return out


def _trimmed(coeffs):
    """A Fraction coefficient list, lowest degree first, as a tuple without
    trailing zeros: the form ``Polynomial.coeffs`` takes."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _reference_product(a, b):
    """Product of two Fraction coefficient lists, term by term."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _reference_lagrange(points):
    """Coefficients of the interpolating polynomial: one product of
    Fraction coefficient lists per basis factor, for every node."""
    xs = [F(x) for x, _ in points]
    total = [F(0)] * len(xs)
    for i, (_, yi) in enumerate(points):
        basis, denom = [F(1)], F(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = _reference_product(basis, [-xj, F(1)])
                denom *= xs[i] - xj
        for k, c in enumerate(basis):
            total[k] += c * F(yi) / denom
    return _trimmed(total)


def _reference_polynomial_value(poly, x):
    """The term-by-term sum of c_k x^k over Fractions."""
    x = F(x)
    return sum((c * x**k for k, c in enumerate(poly.coeffs)), F(0))


def _reference_compose_affine(poly, shift, slope):
    """Coefficients of p(shift + slope*x) by Horner over Fraction coefficient
    lists: one product and one sum per coefficient."""
    lin = [F(shift), F(slope)]
    out = [F(0)]
    for c in reversed(poly.coeffs):
        out = _reference_product(out, lin)
        out[0] += c
    return _trimmed(out)


def _reference_hypergeometric_sum(nums, dens, z, term_count):
    """Every term built from scratch as a chain of Fraction products, after
    the same scan for the first vanishing denominator factor: step e in
    order, and within a step the parameters in order."""
    nums, dens = [F(a) for a in nums], [F(b) for b in dens]
    for e in range(1, term_count):
        for b in dens:
            if b + e - 1 == 0:
                raise SingularParameterError(
                    f"denominator parameter {b} vanishes at step {e}")
    sf = _reference_shifted_factorial
    total = F(0)
    for e in range(term_count):
        term = F(z) ** e / math.factorial(e)
        for a in nums:
            term *= sf(a, e)
        for b in dens:
            term /= sf(b, e)
        total += term
    return total


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of the
    SingularParameterError it raised."""
    try:
        return fn(*args)
    except SingularParameterError as exc:
        return type(exc), str(exc)


def _rational_determinant(rows):
    """Gaussian elimination over Fractions, swapping in the first row below
    with a nonzero entry when a pivot is zero."""
    mat = [[F(x) for x in row] for row in rows]
    n = len(mat)
    det = F(1)
    for k in range(n):
        swap = next((r for r in range(k, n) if mat[r][k]), None)
        if swap is None:
            return F(0)
        if swap != k:
            mat[k], mat[swap] = mat[swap], mat[k]
            det = -det
        det *= mat[k][k]
        for i in range(k + 1, n):
            factor = mat[i][k] / mat[k][k]
            for j in range(k, n):
                mat[i][j] -= factor * mat[k][j]
    return det


def _reference_upper_count(n, m):
    """The binomial entries typed out by hand."""
    return [
        [binomial(n + m - i + 1, m + i - j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def reciprocal_factorial(n: int) -> Fraction:
    """1/n!, with 1/n! == 0 for negative n (the impossible-path convention)."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def _reference_lower_weighted(n, m, l):
    """Each entry as a chain of Fraction products of factorial reciprocals;
    every row but the marked one doubled, as ``path_matrix`` builds it."""
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            top = F(math.factorial(n + m - i))
            if i == l:
                entry = (top * reciprocal_factorial(m + i - j)
                         * reciprocal_factorial(n + j - 2 * i))
            else:
                entry = (2 * top * reciprocal_factorial(m + i - j)
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


def _reference_proportion_nm(n, m, l):
    """The axis sum times the binomial prefactor, each its own Fraction."""
    pref = F(m * binomial(m + n, m) * binomial(m + n - 1, m), binomial(2 * m + 2 * n - 1, 2 * m))
    return _reference_axis_sum(n, m, l) * pref


def _reference_series_form(n, m, l):
    """The series form as one Fraction per factor and per parameter."""
    sf = _reference_shifted_factorial
    pref = F(math.factorial(2 * n - 1))
    pref *= sf(m + 1, n - 1) ** 2
    pref /= F(math.factorial(n - 1)) ** 2
    pref /= sf(2 * m + 1, 2 * n - 1)
    series = _reference_hypergeometric_sum(
        [-n, 1 - F(n, 2), m, -m - n, F(1, 2)],
        [-F(n, 2), 1 - m - n, 1 + m, F(1, 2) - n],
        1,
        l,
    )
    return pref * series


def _reference_balanced_form(n, m, l):
    """The balanced form as one Fraction per factor and per parameter."""
    pref = F(
        math.factorial(2 * l)
        * math.factorial(2 * m)
        * math.factorial(m + n - 1)
        * math.factorial(m + n)
        * math.factorial(2 * n - 2 * l + 2),
        4 * (l + m - 1) * (m + n - l + 1),
    )
    pref /= (
        math.factorial(l - 1)
        * math.factorial(l)
        * math.factorial(m - 1)
        * math.factorial(m)
        * math.factorial(n - l)
        * math.factorial(n - l + 1)
        * math.factorial(2 * m + 2 * n - 1)
    )
    series = _reference_hypergeometric_sum(
        [1 - l, 1, 1, F(3, 2) - l + n],
        [F(3, 2), 2 - l - m, 2 - l + m + n],
        1,
        l,
    )
    return pref * series


def _reference_reduced_prefactor(m, n):
    """One Fraction product per shifted factorial."""
    sf = _reference_shifted_factorial
    m = F(m)
    out = F(1)
    for i in range(1, n // 2 + 1):
        out *= sf(m + i, n - 2 * i + 1)
        out *= sf(m + i + F(1, 2), n - 2 * i)
    return out


def _reference_row_scale_product(n, m):
    out = F(1)
    for i in range(1, n + 1):
        out *= F(math.factorial(n + m - i),
                 math.factorial(m + i - 1) * math.factorial(2 * n - 2 * i + 1))
    return out


def _reference_closed_constant(n):
    out = F(2) ** ((n - 1) * (n - 2) // 2)
    for j in range(1, n + 1):
        out *= math.factorial(2 * j - 1)
    out /= math.factorial(n)
    for i in range(1, n // 2 + 1):
        out /= _reference_shifted_factorial(2 * i, 2 * n - 4 * i + 1)
    return out


def _reference_lower_weighted_closed_form(n, m, l):
    value = _reference_row_scale_product(n, m) * _reference_reduced_prefactor(m, n)
    value *= _reference_closed_constant(n)
    value *= _reference_shifted_factorial(m, n + 1)
    value *= _reference_axis_sum(n, m, l)
    return value


def _reference_reduced_poly_value(m_val, n, l):
    """Every factor of the special-value product as its own Fraction."""
    sf = _reference_shifted_factorial
    lr = max(l, n + 1 - l)
    mu = -m_val
    if mu >= n + 1 - lr:
        return F(0)
    sign = -1 if (mu * n + (mu * mu - mu) // 2) % 2 else 1
    value = sign * F(2) ** ((mu * mu + mu) // 2 - n + 1)
    value *= sf(mu, mu)
    for j in range(1, n - mu + 1):
        value *= math.factorial(2 * j - 1)
    for k in range(1, mu + 1):
        value *= F(math.factorial(k - 1)) ** 2
        value *= math.factorial(n + k - 2 * mu - 1)
        value *= sf(F(mu - k + 1, 2), k - 1)
        value *= sf(k - n, n - mu)
    for i in range(1, mu + 1):
        value /= math.factorial(n - mu - i) * math.factorial(mu - i)
    for i in range(mu + 1, n // 2 + 1):
        value /= sf(i - mu, n - 2 * i + 1)
    for i in range(1, n // 2 + 1):
        value /= sf(i - mu + F(1, 2), n - 2 * i)
    return value


def _reference_reduced_polynomial(n, l):
    """One marked row l at a time: the Fraction matrix typed out by hand at
    m = 1..n, its determinant over the reference prefactor, interpolated
    by the reference Lagrange construction."""
    points = []
    for m in range(1, n + 1):
        det = _rational_determinant(_reference_reduced_lower(m, n, l))
        points.append((F(m), det / _reference_reduced_prefactor(m, n)))
    return _reference_lagrange(points)


def cell_neighbors(cell: Cell) -> tuple:
    """The up-to-three cells sharing an edge with ``cell`` on the full grid."""
    r2, s, orient = cell
    if orient == "right":
        return (
            Cell(r2, s - 1, "left"),
            Cell(r2 - 1, s, "left"),
            Cell(r2 + 1, s, "left"),
        )
    return (
        Cell(r2, s + 1, "right"),
        Cell(r2 - 1, s, "right"),
        Cell(r2 + 1, s, "right"),
    )


def _prepare(region: Region, max_cells: int, order=None):
    cells = sorted(region.cells, key=order)
    if len(cells) > max_cells:
        raise RegionTooLargeError(
            f"region has {len(cells)} cells, exceeding the limit of {max_cells}"
        )
    index = {c: i for i, c in enumerate(cells)}
    neighbors = [
        tuple(sorted(index[n] for n in cell_neighbors(c) if n in index))
        for c in cells
    ]
    return cells, neighbors


def _reference_enumerate_tilings(region: Region, max_cells: int = DEFAULT_CELL_LIMIT,
                                 order=None):
    """Yield every tiling of ``region`` exactly once, in the lexicographic
    order of its pairing choices with the cells sorted by the key ``order``
    (row-major by default).

    A region with an odd number of cells yields nothing; the empty region
    yields the single empty tiling.
    """
    cells, neighbors = _prepare(region, max_cells, order)
    total = len(cells)
    if total % 2 == 1:
        return iter(())

    def gen():
        covered = bytearray(total)
        pairs = []

        def rec(lo: int):
            while lo < total and covered[lo]:
                lo += 1
            if lo == total:
                yield frozenset((cells[i], cells[j]) for i, j in pairs)
                return
            covered[lo] = 1
            for j in neighbors[lo]:
                if not covered[j]:
                    covered[j] = 1
                    pairs.append((lo, j))
                    yield from rec(lo + 1)
                    pairs.pop()
                    covered[j] = 0
            covered[lo] = 0

        yield from rec(0)

    return gen()


def _reference_count_tilings(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> int:
    """Number of tilings of ``region`` (same search as enumerate_tilings)."""
    cells, neighbors = _prepare(region, max_cells)
    total = len(cells)
    if total % 2 == 1:
        return 0
    covered = bytearray(total)

    def rec(lo: int) -> int:
        while lo < total and covered[lo]:
            lo += 1
        if lo == total:
            return 1
        count = 0
        covered[lo] = 1
        for j in neighbors[lo]:
            if not covered[j]:
                covered[j] = 1
                count += rec(lo + 1)
                covered[j] = 0
        covered[lo] = 0
        return count

    return rec(0)


def _reference_weighted_count(
    region: Region, max_cells: int = DEFAULT_CELL_LIMIT
) -> Fraction:
    """Weighted tiling count: each tiling contributes (1/2)^k where k is the
    number of its rhombi drawn from ``region.weighted_pairs``.

    With no weighted pairs this is the plain count (as a Fraction).
    """
    cells, neighbors = _prepare(region, max_cells)
    total = len(cells)
    if total % 2 == 1:
        return Fraction(0)
    index = {c: i for i, c in enumerate(cells)}
    weighted = {
        (index[a], index[b]) for a, b in region.weighted_pairs
        if a in index and b in index
    }
    covered = bytearray(total)
    acc = Fraction(0)

    def rec(lo: int, halvings: int):
        nonlocal acc
        while lo < total and covered[lo]:
            lo += 1
        if lo == total:
            acc += Fraction(1, 2**halvings)
            return
        covered[lo] = 1
        for j in neighbors[lo]:
            if not covered[j]:
                covered[j] = 1
                rec(lo + 1, halvings + ((lo, j) in weighted))
                covered[j] = 0
        covered[lo] = 0

    rec(0, 0)
    return acc


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# rationals as callers pass them: plain ints as well as Fractions
_params = st.one_of(_rationals, st.integers(-12, 12))


@st.composite
def _n_and_l(draw, max_n):
    n = draw(st.integers(1, max_n))
    return n, draw(st.integers(1, n))


@st.composite
def _punctured_regions(draw):
    """A box with sides up to 3 or a weighted lower half, minus a random
    subset of its cells, so odd, disconnected and dead-end regions occur."""
    if draw(st.booleans()):
        region = box_region(*draw(st.tuples(*[st.integers(1, 3)] * 3)))
    else:
        n, m_side = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        region = build_region(HexagonSpec(n + m_side % 2, m_side), RegionKind.LOWER_HALF,
                              draw(st.integers(1, n)))
    deleted = draw(st.sets(st.sampled_from(sorted(region.cells))))
    return Region(region.cells - deleted, region.weighted_pairs)


def test_binomial_matches_falling_product():
    # the whole integer grid: k > n gives 0, negative n follows the polynomial
    # (-1)^k C(k-n-1, k); the large rows need the short side, n - k
    for n in [*range(-12, 40), 10**5 + 10, 10**6]:
        for k in [*range(-3, 45), n - 3, n - 1, n, n + 1]:
            assert binomial(n, k) == _reference_binomial(n, k), (n, k)


def test_rising_product_matches_reference():
    # negative p puts a zero factor inside the product; k <= 0 is empty
    for p in range(-12, 13):
        for q in (1, 2, 3):
            for k in range(-2, 13):
                assert _rising_product(p, q, k) == _reference_rising_product(p, q, k), (p, q, k)


@given(st.one_of(_rationals, st.integers(-12, 12)), st.integers(0, 12))
def test_shifted_factorial_matches_reference(a, k):
    # integer bases <= 0 put a zero factor inside the product
    assert shifted_factorial(a, k) == _reference_shifted_factorial(a, k)


# mostly small samples, so that low degrees and zero runs come up
_samples = st.lists(st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12)),
                    min_size=1, max_size=12)


@given(_samples)
def test_extend_backwards_matches_reference(samples):
    # n samples at x = 0..n-1: the degree, and the values at x = -1 down
    # to -(2n+3), against the Fraction interpolant through them
    coeffs = _reference_lagrange(list(enumerate(samples)))
    count = 2 * len(samples) + 3
    assert extend_backwards(samples, count) == (
        len(coeffs) - 1,
        [sum(c * x**k for k, c in enumerate(coeffs)) for x in range(-1, -count - 1, -1)])


def test_extend_backwards_of_zero_samples():
    for size in range(1, 13):
        assert extend_backwards([0] * size, 2 * size + 3) == (-1, [0] * (2 * size + 3))


# x = 0, integers, non-integral rationals and floats, which must be read as
# the exact binary fractions they store
_points = st.one_of(
    st.just(0),
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
        lambda x: x.denominator > 1),
    st.floats(min_value=-30, max_value=30),
)


@given(st.lists(_rationals, max_size=8), _points)
def test_polynomial_call_matches_term_by_term_sum(coeffs, x):
    poly = Polynomial(coeffs)
    value = poly(x)
    assert type(value) is Fraction
    assert value == _reference_polynomial_value(poly, x)


def test_polynomial_call_edge_cases():
    assert Polynomial()(F(3, 7)) == 0 == Polynomial([0, 0])(2.5)
    assert Polynomial([F(5, 3), 4])(0) == F(5, 3)
    assert Polynomial([0, 1])(0.1) == F(0.1) != F(1, 10)
    assert Polynomial([F(1, 2), 0, F(-1, 3)])(F(3, 2)) == F(1, 2) - F(3, 4)


@given(st.lists(_rationals, max_size=8), st.lists(_rationals, max_size=8), _rationals)
def test_polynomial_sums_and_scalar_products_match_reference(a, b, scalar):
    # coefficient lists of either length, added and subtracted term by term
    p, q = Polynomial(a), Polynomial(b)
    padded = [a + [F(0)] * (len(b) - len(a)), b + [F(0)] * (len(a) - len(b))]
    assert (p + q).coeffs == _trimmed(x + y for x, y in zip(*padded))
    assert (p - q).coeffs == _trimmed(x - y for x, y in zip(*padded))
    assert (-p).coeffs == _trimmed(-x for x in a)
    assert (scalar * p).coeffs == (p * scalar).coeffs == _trimmed(scalar * x for x in a)


@given(st.lists(_rationals, max_size=8), _rationals, _rationals)
def test_compose_affine_matches_reference(coeffs, shift, slope):
    poly = Polynomial(coeffs)
    assert (poly.compose_affine(shift, slope).coeffs
            == _reference_compose_affine(poly, shift, slope))


@given(st.lists(_params, max_size=4), st.lists(_params, max_size=3),
       _params, st.integers(0, 10))
def test_hypergeometric_sum_matches_reference(nums, dens, z, term_count):
    # a nonpositive integer among dens makes some draws singular; both sides
    # must then raise the same error at the same step
    assert (_outcome(hypergeometric_sum, nums, dens, z, term_count)
            == _outcome(_reference_hypergeometric_sum, nums, dens, z, term_count))


@given(st.lists(_params, max_size=4), st.lists(_params, max_size=3),
       st.integers(0, 6), st.data())
def test_hypergeometric_sum_singular_step_matches_reference(nums, dens, k, data):
    # the lower parameter -k vanishes at step k+1, inside the range; the
    # message names it the same way whether it is an int or a Fraction
    where = data.draw(st.integers(0, len(dens)))
    term_count = data.draw(st.integers(k + 2, 10))
    outcomes = []
    for vanishing in (-k, F(-k)):
        with_it = dens[:where] + [vanishing] + dens[where:]
        outcomes.append(_outcome(hypergeometric_sum, nums, with_it, 1, term_count))
    kind, message = outcomes[0]
    assert kind is SingularParameterError
    assert outcomes[1] == (kind, message)
    assert (kind, message) == _outcome(_reference_hypergeometric_sum, nums,
                                       dens[:where] + [F(-k)] + dens[where:], 1, term_count)


def _partial_sums(nums, dens, z, term_count):
    """The kernel's partial sums as Fractions, up to its end or its first
    error, and the type and message of that error (None if none)."""
    sums = []
    try:
        for num, den in hypergeometric_partial_sums(nums, dens, z, term_count):
            sums.append(F(num, den))
    except SingularParameterError as exc:
        return sums, (type(exc), str(exc))
    return sums, None


@given(st.lists(_params, max_size=4), st.lists(_params, max_size=3),
       _params, st.integers(0, 10))
def test_hypergeometric_partial_sums_match_reference(nums, dens, z, term_count):
    # the sum of every length comes out, up to the first singular step if
    # one falls inside the range; the next length raises what the
    # reference and hypergeometric_sum raise
    sums, error = _partial_sums(nums, dens, z, term_count)
    assert sums == [_reference_hypergeometric_sum(nums, dens, z, length)
                    for length in range(1, len(sums) + 1)]
    if error is None:
        assert len(sums) == term_count
    else:
        assert len(sums) < term_count
        for fn in (_reference_hypergeometric_sum, hypergeometric_sum):
            assert _outcome(fn, nums, dens, z, len(sums) + 1) == error


@given(st.lists(_params, max_size=4), st.lists(_params, max_size=3), _params,
       st.integers(0, 6), st.data())
def test_hypergeometric_partial_sums_stop_at_the_singular_step(nums, dens, z, k, data):
    # the lower parameter -k vanishes at step k+1 (another one may vanish
    # earlier): the sums of lengths 1..e come out for the first singular
    # step e, and length e + 1 raises the message the reference raises
    where = data.draw(st.integers(0, len(dens)))
    dens = dens[:where] + [-k] + dens[where:]
    term_count = data.draw(st.integers(k + 2, 10))
    sums, error = _partial_sums(nums, dens, z, term_count)
    assert error is not None and 1 <= len(sums) <= k + 1
    assert sums == [_reference_hypergeometric_sum(nums, dens, z, length)
                    for length in range(1, len(sums) + 1)]
    assert _outcome(_reference_hypergeometric_sum, nums, dens, z, len(sums) + 1) == error
    assert error[1].endswith(f"vanishes at step {len(sums)}")


def test_hypergeometric_partial_sums_examples():
    # 1 + 1 + 1/2 + 1/6: the partial sums of exp(1), as integer pairs
    assert [F(p, q) for p, q in hypergeometric_partial_sums([], [], 1, 4)] == [
        1, 2, F(5, 2), F(8, 3)]
    assert list(hypergeometric_partial_sums([1], [2], 1, 0)) == []
    sums = hypergeometric_partial_sums([1], [-1], 1, 5)
    assert [F(p, q) for p, q in (next(sums), next(sums))] == [1, 0]
    with pytest.raises(SingularParameterError, match="parameter -1 vanishes at step 2"):
        next(sums)
    with pytest.raises(ValueError, match="term_count must be nonnegative"):
        next(hypergeometric_partial_sums([], [], 1, -1))


def test_hypergeometric_sum_reads_float_parameters_exactly():
    # a float is read as the binary fraction it stores, as Fraction() does
    assert (hypergeometric_sum([0.5, -3], [1.25], 0.1, 4)
            == hypergeometric_sum([F(1, 2), -3], [F(5, 4)], F(0.1), 4)
            == _reference_hypergeometric_sum([F(1, 2), -3], [F(5, 4)], F(0.1), 4))
    assert (_outcome(hypergeometric_sum, [1], [-2.0], 1, 4)
            == _outcome(hypergeometric_sum, [1], [F(-2)], 1, 4)
            == (SingularParameterError, "denominator parameter -2 vanishes at step 3"))


@st.composite
def _integer_matrices(draw):
    """Square integer matrices, small and large entries mixed.  Some draws
    zero the leading column above a random row, so the first pivot is 0
    and needs a swap; some replace a row by a combination of the rows, so the
    matrix is singular."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**30, 10**30))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "zero pivot", "singular"]))
    if shape == "zero pivot":
        for row in rows[:draw(st.integers(1, n))]:
            row[0] = 0
    elif shape == "singular":
        i = draw(st.integers(0, n - 1))
        coeffs = [0 if r == i else draw(st.integers(-3, 3)) for r in range(n)]
        rows[i] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return rows


@given(_integer_matrices())
def test_determinant_matches_rational_elimination(rows):
    det = determinant(rows)
    assert type(det) is int
    assert det == _rational_determinant(rows)


# rational m, and the roots of the prefactor: the integers -1..-floor(n/2)
# and the half-integers -i-1/2 down to -(n-1)/2
_reduced_m = st.one_of(
    _rationals,
    st.integers(-8, 1),
    st.integers(-8, 1).map(lambda k: F(2 * k - 1, 2)),
)


@st.composite
def _row_replacements(draw):
    """A square matrix with entries in [-3, 3], so that zero pivots and
    singular matrices are common, and one replacement row for each row."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    marked = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return rows, marked


@given(_row_replacements())
def test_shared_elimination_matches_determinant_of_each_replaced_matrix(case):
    rows, marked = case
    want = [_rational_determinant(rows[:k] + [row] + rows[k + 1:]) for k, row in enumerate(marked)]
    # the public entry point; zero pivots are repaired by column swaps
    assert marked_row_determinants(rows, marked) == want
    # the private loop, which carries the replacements of every row but the
    # first and finishes every matrix, whatever pivots it meets
    shared = _bareiss([row[:] for row in rows], 1, [row[:] for row in marked[1:]])
    assert shared == [_rational_determinant(rows)] + want[1:]


@given(st.integers(1, 7), _reduced_m)
def test_reduced_determinants_match_determinant_of_each_marked_matrix(n, m):
    plain, marked, plain_den, marked_den = reduced_rows(m, n)
    den = plain_den ** (n - 1) * marked_den
    assert reduced_determinants(m, n) == (
        [determinant(plain[:l] + [marked[l]] + plain[l + 1:]) for l in range(n)], den)


@given(st.integers(1, 8), st.integers(0, 12))
def test_upper_count_matrix_matches_reference(n, m):
    assert path_matrix(pentagon_path_family(n, m)) == _reference_upper_count(n, m)


@given(_n_and_l(6), st.integers(1, 12))
def test_lower_weighted_matrix_matches_reference(nl, m):
    n, l = nl
    assert path_matrix(marked_path_family(n, m, {l})) == _reference_lower_weighted(n, m, l)


@given(st.integers(1, 6), st.fractions(min_value=-10, max_value=10, max_denominator=9))
def test_reduced_lower_matrix_matches_reference(n, m):
    # both versions of every integer row, over their denominators
    plain, marked, plain_den, marked_den = reduced_rows(m, n)
    for l in range(1, n + 1):
        rows = [[F(x, marked_den) for x in marked[i]] if i == l - 1
                else [F(x, plain_den) for x in plain[i]] for i in range(n)]
        assert rows == _reference_reduced_lower(m, n, l), l


@given(_n_and_l(7), _reduced_m)
def test_reduced_determinant_and_prefactor_match_reference(nl, m):
    n, l = nl
    dets, den = reduced_determinants(m, n)
    assert F(dets[l - 1], den) == _rational_determinant(_reference_reduced_lower(m, n, l))
    assert reduced_prefactor(m, n) == _reference_reduced_prefactor(m, n)


def test_prefactor_roots_give_zero_determinants():
    for n in range(2, 8):
        roots = [F(-i - t) for i in range(1, n // 2 + 1) for t in range(n - 2 * i + 1)]
        roots += [F(-2 * i - 2 * t - 1, 2)
                  for i in range(1, n // 2 + 1) for t in range(n - 2 * i)]
        for m in roots:
            assert reduced_prefactor(m, n) == 0 == _reference_reduced_prefactor(m, n)
            assert reduced_determinants(m, n)[0] == [0] * n


def test_reduced_samples_match_per_row_reference():
    # the reference interpolates through m = 1..n only, so the two spare
    # samples also check that the polynomial part has degree <= n - 1
    for n in range(1, 8):
        samples, den = reduced_samples(n)
        for l, row in enumerate(samples, start=1):
            coeffs = _reference_reduced_polynomial(n, l)
            assert [F(z, den) for z in row] == [
                sum(c * m**k for k, c in enumerate(coeffs)) for m in range(1, n + 3)], (n, l)


def test_reduced_poly_special_values_match_reference_on_their_whole_domain():
    for n in range(1, 10):
        table = reduced_poly_special_values(n)
        assert len(table) == n
        for l, values in enumerate(table, start=1):
            assert len(values) == n // 2 + 1, (n, l)
            for mu, value in enumerate(values):
                assert value == _reference_reduced_poly_value(-mu, n, l), (n, l, mu)


@given(st.integers(1, 12), st.integers(0, 20))
def test_row_scale_product_is_free_of_m(n, m):
    # its factorials (m+i-1)! and (n+m-i)! both run over m!, ..., (m+n-1)!,
    # which is why the closed form of Lemma 6 leaves the row scale out
    odd = math.prod(math.factorial(2 * j - 1) for j in range(1, n + 1))
    assert _reference_row_scale_product(n, m) == F(1, odd)


@given(st.integers(1, 10), st.integers(1, 10))
def test_lower_weighted_closed_form_matches_reference(n, m):
    # every marked position l of one (n, m) at once
    assert (lower_weighted_closed_forms(n, m)
            == [_reference_lower_weighted_closed_form(n, m, l) for l in range(1, n + 1)])


@given(_n_and_l(40), st.integers(1, 40))
def test_axis_sum_matches_reference(nl, m):
    n, l = nl
    assert axis_sum(n, m, l) == _reference_axis_sum(n, m, l)


@given(_n_and_l(14), st.integers(1, 14))
def test_proportion_forms_match_reference(nl, m):
    n, l = nl
    assert proportion_nm(n, m, l) == _reference_proportion_nm(n, m, l)
    assert proportion_balanced_form(n, m, l) == _reference_balanced_form(n, m, l)


@given(st.integers(1, 14), st.integers(1, 14))
def test_series_forms_match_reference_position_by_position(n, m):
    # the series form is singular for even n and l >= n/2 + 2: the forms
    # must stop at the first such l with the reference's error and message
    forms = proportion_series_forms(n, m)
    for l in range(1, n + 1):
        want = _outcome(_reference_series_form, n, m, l)
        assert _outcome(next, forms) == want, (n, m, l)
        if isinstance(want, tuple):
            break
    assert next(forms, None) is None


# A dead end, where every higher neighbor of the lowest uncovered cell is
# already covered, is rare in these regions; 300 draws reach one reliably.
@settings(max_examples=300)
@given(_punctured_regions())
def test_oracle_search_matches_recursive_reference(region):
    assert count_tilings(region) == _reference_count_tilings(region)
    assert weighted_count(region) == _reference_weighted_count(region)
    for order in _ORDERS:
        with _scanning(order):
            got = list(enumerate_tilings(region))
        assert got == list(_reference_enumerate_tilings(region, order=order))


# The candidate scan orders of every kernel, as sort keys of cells:
# row-major (row2, col, orient) and column-major.
_ORDERS = [None, lambda cell: (cell.col, cell.row2, cell.orient)]


@contextmanager
def _scanning(order):
    """Every oracle kernel scans in ``order`` instead of choosing one (and
    checks no limit, which choosing does)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_scan_order", lambda cells, max_cells: order)
        yield


def _in_every_order(count, region):
    """``count(region)`` with the kernels held to each candidate order."""
    values = []
    for order in _ORDERS:
        with _scanning(order):
            values.append(count(region))
    return values


@given(_punctured_regions())
def test_counts_agree_in_every_scan_order_on_punctured_regions(region):
    count = _reference_count_tilings(region)
    assert _in_every_order(count_tilings, region) == [count] * len(_ORDERS)
    weighted = _reference_weighted_count(region)
    assert _in_every_order(weighted_count, region) == [weighted] * len(_ORDERS)


def test_box_counts_agree_in_every_scan_order():
    # 125 boxes, degenerate ones included; the product is the reference,
    # since the recursive search is too slow for box(4, 4, 4)
    for a in range(5):
        for b in range(5):
            for c in range(5):
                region = box_region(a, b, c)
                got = _in_every_order(count_tilings, region)
                assert got == [macmahon_count(a, b, c)] * len(_ORDERS), (a, b, c)
                assert got[0] <= 2 ** (len(region.cells) // 2), (a, b, c)


@given(_punctured_regions())
def test_count_is_at_most_two_to_the_half_cell_count(region):
    # the field width of the packed tally rests on this bound: each scan
    # cell has at most two later partners, and a tiling makes one such
    # choice per pair (boxes are checked in the test above)
    assert count_tilings(region) <= 2 ** (len(region.cells) // 2)


def test_lower_half_weighted_counts_agree_in_every_scan_order():
    # every lower half of every hexagon with a <= 3 and side_m <= 5
    for a in range(1, 4):
        for m_side in range(0, 6):
            spec = HexagonSpec(a, m_side)
            for l in range(1, spec.n + 1):
                region = build_region(spec, RegionKind.LOWER_HALF, l)
                want = _reference_weighted_count(region)
                got = _in_every_order(weighted_count, region)
                assert got == [want] * len(_ORDERS), (spec, l)
                # a weighted pair counts in whichever order its cells come
                flipped = Region(region.cells, frozenset((b, a) for a, b in region.weighted_pairs))
                assert _in_every_order(weighted_count, flipped) == got, (spec, l)


def _measured_peak(region, order) -> int:
    """Most states the frontier holds at once when the kernels scan
    ``region`` in ``order``: the kernel's step on state sets alone."""
    with _scanning(order):
        _, _, later = oracle._prepare(region, len(region.cells))
    states, peak = {0}, 1
    for lo, choices in enumerate(later):
        bits = [1 << (j - lo) for _, j in choices]
        states = {mask >> 1 for mask in states if mask & 1} | {
            (mask | bit) >> 1 for mask in states if not mask & 1 for bit in bits if not mask & bit}
        peak = max(peak, len(states))
    return peak


def test_state_estimate_is_never_below_the_measured_peak():
    # every box with sides up to 5, and every lower half of the hexagons
    # with a <= 4 and side_m <= 6, in both orders; row-major peaks past
    # 5000 states are too slow to measure
    regions = {("box", a, b, c): box_region(a, b, c)
               for a in range(6) for b in range(6) for c in range(6)}
    regions.update({("lower half", a, m_side, l): build_region(
        HexagonSpec(a, m_side), RegionKind.LOWER_HALF, l)
        for a in range(1, 5) for m_side in range(7)
        for l in range(1, HexagonSpec(a, m_side).n + 1)})
    for name, region in regions.items():
        for order in _ORDERS:
            estimate, _ = oracle._peak_states(region.cells, order)
            if estimate <= 5000:
                assert _measured_peak(region, order) <= estimate, (name, order)
    # colour balance makes the estimate exact here in either order; a bound
    # on the longest line alone would give C(22, 11) = 705432 for
    # box(20, 2, 20) column-major, and C(12, 6) = 924 for box(2, 10, 10)
    # row-major
    lower_half = build_region(HexagonSpec(6, 17), RegionKind.LOWER_HALF, 1)
    for order, region, peak in [
        (_ORDERS[1], box_region(20, 2, 20), 231),
        (_ORDERS[1], box_region(6, 6, 6), 924),
        (_ORDERS[1], box_region(2, 9, 7), 220),
        (_ORDERS[0], box_region(2, 10, 10), 66),
        (_ORDERS[0], box_region(2, 14, 14), 120),
        (_ORDERS[0], box_region(1, 8, 8), 9),
        (_ORDERS[0], lower_half, 924),
    ]:
        assert oracle._peak_states(region.cells, order)[0] == peak
        assert _measured_peak(region, order) == peak


@given(_punctured_regions())
def test_state_estimate_holds_on_punctured_regions(region):
    # the colour-balance argument needs no shape: any set of cells will do,
    # in either order
    for order in _ORDERS:
        assert _measured_peak(region, order) <= oracle._peak_states(region.cells, order)[0]


def _lower_halves():
    return [build_region(HexagonSpec(a, m_side), RegionKind.LOWER_HALF, 2)
            for a, m_side in [(3, 4), (4, 3)]]


def test_enumeration_matches_recursive_reference_past_the_draws():
    # larger than the punctured draws, so many lower-half fills share an
    # upper-half frontier; the order must still be the search order
    for region in [build_region(HexagonSpec(3, 4), RegionKind.FULL_HEXAGON),
                   build_region(HexagonSpec(2, 5), RegionKind.FULL_HEXAGON), *_lower_halves()]:
        got = list(enumerate_tilings(region))
        assert got == list(_reference_enumerate_tilings(region))
        assert len(got) == count_tilings(region)


def test_wide_hexagon_enumerates_in_column_major_order():
    # hexagon(5, 1) has 10 columns, each of at most 6 cells, and rows of
    # 10, so it scans column-major, and its tilings come in that order
    region = build_region(HexagonSpec(5, 1), RegionKind.FULL_HEXAGON)
    column_major = _ORDERS[1]
    got = list(enumerate_tilings(region))
    assert got == list(_reference_enumerate_tilings(region, order=column_major))
    assert got != list(_reference_enumerate_tilings(region))
    assert len(got) == macmahon_count(5, 1, 5)


def _assert_later_matches_cell_neighbors(region):
    for order in _ORDERS:
        with _scanning(order):
            cells, index, later = oracle._prepare(region, DEFAULT_CELL_LIMIT)
        ref_cells, neighbors = _prepare(region, DEFAULT_CELL_LIMIT, order)
        assert cells == tuple(ref_cells)
        assert index == {c: i for i, c in enumerate(cells)}
        assert later == tuple(tuple((i, j) for j in near if j > i)
                              for i, near in enumerate(neighbors))


def test_later_matches_cell_neighbors():
    regions = [build_region(HexagonSpec(a, m), RegionKind.FULL_HEXAGON)
               for a in range(1, 4) for m in range(1, 5)]
    regions += [box_region(a, b, c) for a, b, c in [(1, 2, 3), (3, 1, 2), (2, 3, 1)]]
    for a, m_side in [(3, 4), (3, 3), (1, 1)]:
        spec = HexagonSpec(a, m_side)
        full = build_region(spec, RegionKind.FULL_HEXAGON).cells
        # the untrimmed upper half, then the trimmed one
        regions += [Region(frozenset(c for c in full if c.row2 > m_side)),
                    build_region(spec, RegionKind.UPPER_TRIMMED)]
    regions += _lower_halves()
    for region in regions:
        _assert_later_matches_cell_neighbors(region)


@given(_punctured_regions())
def test_later_matches_cell_neighbors_on_punctured_regions(region):
    _assert_later_matches_cell_neighbors(region)


def _reference_hexagon_cells(a, b, c):
    """Every row2 between each column's bounds, kept when its parity fits."""

    def top2(col):
        return 2 * b + (col if col <= a else 2 * a - col)

    def bot2(col):
        return -(col if col <= c else 2 * c - col)

    cells = []
    for s in range(a + c):
        lo = max(bot2(s) + 1, bot2(s + 1))
        hi = min(top2(s) - 1, top2(s + 1))
        for r2 in range(lo, hi + 1):
            if (r2 + s) % 2 == 1:
                cells.append(Cell(r2, s, "right"))
        lo = max(bot2(s + 1) + 1, bot2(s))
        hi = min(top2(s + 1) - 1, top2(s))
        for r2 in range(lo, hi + 1):
            if (r2 + s) % 2 == 0:
                cells.append(Cell(r2, s, "left"))
    return frozenset(cells)


def test_hexagon_cells_match_parity_loop():
    for a in range(7):
        for b in range(7):
            for c in range(7):
                assert hexagon_cells(a, b, c) == _reference_hexagon_cells(a, b, c), (a, b, c)


def _count_without(spec, l, max_cells=DEFAULT_CELL_LIMIT):
    """Tilings of the hexagon that contain the l-th axis rhombus, as the
    count of the hexagon less the rhombus's two cells."""
    cells = build_region(spec, RegionKind.FULL_HEXAGON).cells
    return count_tilings(Region(cells - set(axis_rhombus_cells(spec, l))), max_cells)


def test_hexagon_tally_matches_count_per_position():
    # every hexagon with a <= 3 and side_m <= 5 (18 of them), so no draw is
    # needed; a = 1 with odd side_m has no axis position
    for a in range(1, 4):
        for m_side in range(0, 6):
            spec = HexagonSpec(a, m_side)
            want = (count_tilings(build_region(spec, RegionKind.FULL_HEXAGON)),
                    {l: _count_without(spec, l) for l in range(1, spec.n + 1)})
            assert _in_every_order(hexagon_tally, spec) == [want] * len(_ORDERS), spec
            assert want[1] == {l: count_with_fixed_rhombus(spec, l)
                               for l in range(1, spec.n + 1)}, spec


def test_hexagon_tally_matches_count_per_position_past_the_default_limit():
    # hexagons wider than they are tall scan column-major, the others
    # row-major; the count of the hexagon less the rhombus stays the
    # reference in whatever order it scans
    for spec in [HexagonSpec(5, 2), HexagonSpec(4, 5), HexagonSpec(5, 5), HexagonSpec(6, 3)]:
        total, fixed = hexagon_tally(spec, max_cells=200)
        assert total == macmahon_count(spec.side_a, spec.side_a, spec.side_m), spec
        assert fixed == {l: _count_without(spec, l, 200)
                         for l in range(1, spec.n + 1)}, spec
