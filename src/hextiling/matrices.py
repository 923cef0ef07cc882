"""Exact matrices and determinants for the lattice-path counting engine.

Every matrix here is a list of integer rows.  :func:`path_matrix` turns a
path family from :mod:`hextiling.hexagon` into its Lindstrom-Gessel-Viennot
matrix of path counts, and is the one way to build the matrix of a region:
``path_matrix(path_family(spec, kind, axis))`` for each of the three region
kinds.  The full hexagon and the trimmed upper half have plain counts, whose
determinants are their tiling counts; the lower half-region has weight 1/2
on paths ending vertically, and its rows hold twice their weighted counts,
so that its determinant is 2^(n-1) times its weighted count.  The
row-rescaled version of the lower matrix has entries that are shifted
factorials in a rational parameter m; it is built from its own formula,
because lattice paths exist only for integer m.

The reduced lower matrix at a sample point m is built once as integer rows,
each over one row denominator, carrying its rising products from one entry
of a row to the next; both versions of every row (unmarked and marked) come
out of the same pass, :func:`reduced_rows`.  The ``column-relation`` suite
of :mod:`hextiling.verify` tests its column relations on those rows.

Both marked matrices, the weighted lower path matrix and the reduced lower
matrix, come as two row sets: n plain rows and n marked rows, matrix l
being the plain rows with row l taken from the marked ones.
:func:`marked_row_determinants` is the one way to take the determinants
of such a set: the plain rows are eliminated once, with the marked rows
carried through the same Bareiss steps, and matrix l is finished from
that shared state.  The ``lemma6`` suite calls it on the path matrices of
the lower family with no marks and with every mark, and
:func:`reduced_determinants` on the reduced rows at m, for every l from
one build, as n integer numerators over the point's one denominator, the
product of the row denominators.  It is the one reader of the reduced
determinant: the ``symmetries`` suite compares the numerators of one point
as integers and those of two points by cross-multiplying, and
:func:`reduced_samples` folds that denominator and the forced prefactor
into one scale per point, so that the polynomial part comes out as n + 2
integer samples per l over one denominator, from which the
``p-polynomial`` suite reads every verdict.
Determinants are computed by fraction-free Bareiss elimination on
integers; one private loop does every elimination, and it can resume from
the divisor that earlier steps left.  Its one pivot rule swaps a zero
pivot's column with the first later column that has a nonzero entry in
the pivot row: matrices that share their columns move alike, so no
matrix of a marked row set is left to another path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import List, Sequence, Tuple

from .exact import _over_common_denominator, _ratio, _rising_product
from .hexagon import PathFamilySpec

Matrix = List[List[int]]


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix via fraction-free Bareiss
    elimination.

    Every entry is copied through ``operator.index``, so a ``Fraction``
    raises ``TypeError`` instead of reaching the floor division of the
    recurrence, which would truncate it.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    return _bareiss([[index(x) for x in row] for row in rows])[0]


def _bareiss(mat: Matrix, prev: int = 1, carried: Matrix = ()) -> List[int]:
    """Fraction-free Bareiss elimination of the square integer rows ``mat``
    in place, resumed with divisor ``prev``.

    If ``mat`` is the trailing block that earlier steps left, with ``prev``
    the last of their pivots, the first value returned is the determinant
    of the whole matrix up to the sign of the earlier column swaps (with
    prev = 1, the determinant of ``mat``).  Each step divides by the pivot
    of the step before, exactly by Sylvester's identity.  A zero pivot is
    repaired by swapping its column with the first later column that has a
    nonzero entry in the pivot row, in every row still being eliminated,
    flipping the tracked sign; if none exists the pivot row depends on the
    rows above it and the determinant is zero.

    The values after the first are the determinants of ``mat`` with row k
    replaced by ``carried[k-1]``, for k = 1, ..., len(carried).  That
    matrix shares the rows above row k, so its first k steps are those of
    ``mat``: ``carried[k-1]`` goes through them in place with the rows
    below the pivot, and the block it then forms with the rows below it is
    finished by a recursive call.  Those matrices share their columns, so
    a column swap moves them all alike; when a pivot row is zero, every
    matrix not yet finished holds it with the rows above it, and is 0.
    """
    n = len(mat)
    sign = 1
    out = [0] * (len(carried) + 1)
    for k in range(n):
        if 0 < k <= len(carried):
            block = [carried[k - 1][k:]] + [row[k:] for row in mat[k + 1:]]
            out[k] = sign * _bareiss(block, prev)[0]
        if k == n - 1:
            break
        row_k = mat[k]
        if row_k[k] == 0:
            c = next((j for j in range(k + 1, n) if row_k[j]), None)
            if c is None:
                return out
            for row in (*mat[k:], *carried[k:]):
                row[k], row[c] = row[c], row[k]
            sign = -sign
        pivot = row_k[k]
        for row_i in (*mat[k + 1:], *carried[k:]):
            lead = row_i[k]
            for j in range(k + 1, n):
                # exact by Sylvester's identity: prev divides the numerator
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    out[0] = sign * mat[-1][-1]
    return out


def marked_row_determinants(plain: Sequence[Sequence[int]],
                            marked: Sequence[Sequence[int]]) -> List[int]:
    """Determinants of the n integer matrices that differ from each other
    only in their marked rows: matrix l is ``plain`` with row l replaced by
    ``marked[l]``, for l = 1..n in turn.

    Matrix l shares the plain rows above row l with every later one, so
    the plain rows are eliminated once, carrying each marked row through
    the same Bareiss steps, and matrix l is finished from that shared
    state after l - 1 steps.  A zero pivot among the shared plain rows is
    repaired by a column swap, which moves every matrix alike, so the
    shared elimination always finishes all of them.  Matrix 1 shares
    nothing and goes through :func:`determinant`.  Entries go through
    ``operator.index``, as in :func:`determinant`.
    """
    n = len(plain)
    if len(marked) != n:
        raise ValueError("need one marked row per plain row")
    if not n:
        return []
    first = determinant([marked[0], *plain[1:]])  # also checks the rows it holds
    rows = [list(map(index, plain[0])), *map(list, plain[1:])]
    carried = [list(map(index, row)) for row in marked[1:]]
    for row in (rows[0], *carried):
        if len(row) != n:
            raise ValueError("need rows of length n")
    shared = _bareiss(rows, 1, carried)
    shared[0] = first
    return shared


def path_matrix(family: PathFamilySpec) -> Matrix:
    """Lindstrom-Gessel-Viennot matrix of a path family, as integer rows.

    Entry (i, j) counts the right/down paths from start j to end i.  For an
    end flagged half-weight, a path whose last step is vertical counts 1/2;
    there are C(t-1, r) such paths among the C(t, r) with r right steps of
    t.  The row of such an end holds twice its weighted counts,
    2 C(t, r) - C(t-1, r), or 2 C(t, r) when the path has no down step, so
    the determinant is 2^h times the weighted count for h flagged ends.
    """
    rows = []
    for (ex, ey), half in zip(family.ends, family.half_weight_if_vertical_end):
        row = []
        for sx, sy in family.starts:
            right, down = ex - sx, sy - ey
            if right < 0 or down < 0:
                row.append(0)
            elif half and down:
                row.append(2 * math.comb(right + down, right) - math.comb(right + down - 1, right))
            else:
                row.append((2 if half else 1) * math.comb(right + down, right))
        rows.append(row)
    return rows


def reduced_rows(m, n: int) -> tuple:
    """Integer rows of the reduced lower matrix at m, in both versions.

    Returns ``(plain, marked, plain_den, marked_den)``: row i of the matrix
    is ``plain[i-1]`` over ``plain_den`` = 2 q^n when i is not the marked
    row, and ``marked[i-1]`` over ``marked_den`` = q^(n-1) when it is, for
    m = p/q.  Entry j of row i is (m+i-j+1)_{j-1} times
    (n+j-2i+2)_{n-j} (n+2m-j+1)/2 (plain) or (n+j-2i+1)_{n-j+1} (marked).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    p, q = _ratio(m)
    q_powers = [1]
    for _ in range(n):
        q_powers.append(q_powers[-1] * q)
    plain, marked = [], []
    for i in range(1, n + 1):
        # tails[j] = (n+j-2i+2)_{n-j}, the next one times its lowest factor
        tails = [0] * (n + 1)
        tail = 1
        for j in range(n, -1, -1):
            tails[j] = tail
            tail *= n + j - 2 * i + 1
        plain_row, marked_row = [], []
        # lead = q**(j-1) (m+i-j+1)_{j-1} = prod_{s=i-j+1}^{i-1} (p + s q)
        lead = 1
        for j in range(1, n + 1):
            scaled = lead * q_powers[n - j]
            # (n+2m-j+1)/2 = ((n-j+1) q + 2p) / (2q)
            plain_row.append(scaled * tails[j] * ((n - j + 1) * q + 2 * p))
            # tails[j-1] = (n+j-2i+1)_{n-j+1}
            marked_row.append(scaled * tails[j - 1])
            lead *= p + (i - j) * q
        plain.append(plain_row)
        marked.append(marked_row)
    return plain, marked, 2 * q_powers[n], q_powers[n - 1]


def reduced_degree_bound(n: int) -> int:
    """Degree bound C(n+1, 2) - 1 in m of the reduced determinant: entry j
    of a row has degree j in m, and j - 1 in the marked row."""
    return n * (n + 1) // 2 - 1


def reduced_determinants(m, n: int) -> Tuple[List[int], int]:
    """Determinant of the reduced lower matrix at m for each marked row
    l = 1..n in turn, as ``(dets, den)``: n integer numerators over the one
    denominator of the point, the product of the row denominators.

    All n come from one build of the integer rows and one
    :func:`marked_row_determinants`, and they share their denominator, so
    two of them compare as integers; two points compare by cross-multiplying.
    """
    plain, marked, plain_den, marked_den = reduced_rows(m, n)
    return marked_row_determinants(plain, marked), plain_den ** (n - 1) * marked_den


def reduced_prefactor(m, n: int) -> Fraction:
    """The forced shifted-factorial divisor of the reduced determinant,
    prod_i (m+i)_{n-2i+1} (m+i+1/2)_{n-2i}."""
    p, q = _ratio(m)
    num, den = 1, 1
    for i in range(1, n // 2 + 1):
        # m + i = (p + i q)/q and m + i + 1/2 = (2p + (2i+1) q)/(2q)
        num *= _rising_product(p + i * q, q, n - 2 * i + 1)
        num *= _rising_product(2 * p + (2 * i + 1) * q, 2 * q, n - 2 * i)
        den *= q ** (n - 2 * i + 1) * (2 * q) ** (n - 2 * i)
    return Fraction(num, den)


def reduced_samples(n: int) -> Tuple[List[List[int]], int]:
    """The polynomial part P_l of the reduced determinant at m = 1..n+2, for
    each marked row l = 1..n in turn, as ``(samples, den)``: P_l(m) is
    ``samples[l-1][m-1] / den`` for one positive integer ``den``.

    The prefactor has no roots at these points, and P_l has degree at most
    n - 1, so the two spare samples let a degree check fail.  Each point
    builds its prefactor and its integer determinants once, for all l.
    Dividing by the row denominators and the prefactor does not depend on
    l, so it is one scale per point; the scales are put over one
    denominator, and every sample is an integer determinant times its
    point's scale numerator.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    scales, columns = [], []
    for m in range(1, n + 3):
        pref = reduced_prefactor(m, n)
        dets, den = reduced_determinants(m, n)
        scales.append(Fraction(pref.denominator, den * pref.numerator))
        columns.append(dets)
    nums, den = _over_common_denominator(scales)
    return [[dets[l] * num for dets, num in zip(columns, nums)] for l in range(n)], den
