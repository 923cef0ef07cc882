import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from hextiling.exact import Polynomial, extend_backwards
from hextiling.formulas import fixed_count, macmahon_count
from hextiling.hexagon import (
    HexagonSpec,
    RegionKind,
    box_path_family,
    marked_path_family,
    path_family,
    pentagon_path_family,
)
from hextiling.matrices import (
    determinant,
    marked_row_determinants,
    path_matrix,
    reduced_degree_bound,
    reduced_determinants,
    reduced_prefactor,
    reduced_rows,
    reduced_samples,
)

F = Fraction


def _interpolant(samples, den):
    """The Polynomial through (m, samples[m-1] / den), m = 1, 2, ...: the
    Lagrange formula over Fraction coefficient lists, the reference for the
    values ``extend_backwards`` reads off the samples."""
    xs = range(1, len(samples) + 1)
    coeffs = [F(0)] * len(samples)
    for xi, z in zip(xs, samples):
        basis, scale = [F(1)], F(z, den)
        for xj in xs:
            if xj != xi:
                # times (x - xj) / (xi - xj)
                basis = [b - xj * a for a, b in zip(basis + [0], [0] + basis)]
                scale /= xi - xj
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    return Polynomial(coeffs)


def _cofactor_det(rows):
    """Permanent-style reference determinant: sum over permutations."""
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        prod = F(sign)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += prod
    return total


def test_determinant_identity():
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    assert determinant(eye) == 1


def test_determinant_small():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[7]]) == 7
    assert determinant([]) == 1
    assert type(determinant([[1, 2], [3, 4]])) is int


def test_determinant_rejects_fraction_entries():
    # Bareiss floors its exact divisions, so a Fraction entry must be
    # refused, not rounded; an integral Fraction is refused as well
    for rows in ([[F(1, 2)]], [[2, 1], [1, F(3, 2)]], [[1, 0], [0, F(3)]]):
        with pytest.raises(TypeError):
            determinant(rows)


def test_determinant_singular_and_pivoting():
    assert determinant([[0, 0], [1, 1]]) == 0
    # zero leading pivot forces a column swap
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 2, 1], [3, 0, 0], [0, 0, 1]]) == -6


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_matches_permutation_expansion():
    rng = random.Random(424242)
    for _ in range(50):
        rows = [
            [rng.randint(-9, 9) for _ in range(4)]
            for _ in range(4)
        ]
        assert determinant(rows) == _cofactor_det(rows)


def _walk_weight(x, y, end, half, last_down=False):
    """Twice the weighted number of right/down paths from (x, y) to ``end``
    if ``half``, else their number, walked step by step: on a ``half`` end
    each path adds 2, or 1 if it ends down."""
    if (x, y) == end:
        return (1 if last_down else 2) if half else 1
    total = 0
    if x < end[0]:
        total += _walk_weight(x + 1, y, end, half)
    if y > end[1]:
        total += _walk_weight(x, y - 1, end, half, last_down=True)
    return total


def _walked_matrix(family):
    return [
        [_walk_weight(sx, sy, end, half) for sx, sy in family.starts]
        for end, half in zip(family.ends, family.half_weight_if_vertical_end)
    ]


def test_path_matrix_matches_walked_paths():
    for n in range(0, 6):
        for m in range(0, 5):
            family = pentagon_path_family(n, m)
            assert path_matrix(family) == _walked_matrix(family), (n, m)
            for l in range(1, n + 1):
                family = marked_path_family(n, m, {l})
                assert path_matrix(family) == _walked_matrix(family), (n, m, l)
    for a in range(0, 5):
        for b in range(0, 5):
            for c in range(0, 5):
                family = box_path_family(a, b, c)
                assert path_matrix(family) == _walked_matrix(family), (a, b, c)


def test_box_path_determinant_is_macmahon_count():
    # a == 0 is the empty family, whose determinant is 1
    for a in range(0, 7):
        for b in range(0, 7):
            for c in range(0, 7):
                det = determinant(path_matrix(box_path_family(a, b, c)))
                assert det == macmahon_count(a, b, c), (a, b, c)


def test_upper_count_matrix_values():
    assert path_matrix(pentagon_path_family(1, 2)) == [[3]]
    mat = path_matrix(pentagon_path_family(2, 1))
    assert mat == [[3, 1], [1, 2]]
    assert determinant(mat) == 5
    assert determinant(path_matrix(pentagon_path_family(3, 0))) == 1


def test_lower_weighted_matrix_values():
    assert path_matrix(marked_path_family(1, 5, {1})) == [[1]]
    # the unmarked rows hold twice their weighted counts, so each
    # determinant is 2^(n-1) times the weighted count (2 and 15/4 here)
    mat = path_matrix(marked_path_family(2, 1, {1}))
    assert mat == [[2, 1], [2, 3]]
    assert determinant(mat) == 2 * 2
    assert determinant(path_matrix(marked_path_family(3, 1, {1}))) == 2 ** 2 * F(15, 4)


def test_marked_path_matrices_differ_only_in_their_marked_rows():
    # the lemma6 suite reads every single-mark matrix from two path
    # matrices: the family with no marks and the family with every mark
    for n in range(1, 9):
        for m in range(1, 9):
            plain = path_matrix(marked_path_family(n, m, ()))
            marked = path_matrix(marked_path_family(n, m, range(1, n + 1)))
            for k in range(3):
                for marks in combinations(range(1, n + 1), k):
                    want = [marked[i] if i + 1 in marks else row for i, row in enumerate(plain)]
                    assert path_matrix(marked_path_family(n, m, marks)) == want, (n, m, marks)
            singles = [determinant(path_matrix(marked_path_family(n, m, {l})))
                       for l in range(1, n + 1)]
            assert marked_row_determinants(plain, marked) == singles, (n, m)


def test_marked_row_determinants_validation():
    assert marked_row_determinants([], []) == []
    assert marked_row_determinants([[0]], [[7]]) == [7]
    # matrix 1 is [[5, 6], [3, 4]] and matrix 2 is [[1, 2], [7, 8]]; rows
    # may be any sequences
    assert marked_row_determinants([[1, 2], [3, 4]], [[5, 6], (7, 8)]) == [2, -6]
    # a zero pivot among the shared rows is repaired by a column swap, and
    # matrix 2 is finished from the shared elimination
    assert marked_row_determinants(((0, 1), (1, 0)), ((2, 3), (4, 5))) == [-3, -4]
    with pytest.raises(ValueError, match="one marked row per plain row"):
        marked_row_determinants([[1, 2], [3, 4]], [[1, 2]])
    with pytest.raises(ValueError, match="length n"):
        marked_row_determinants([[1, 2, 0], [3, 4]], [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="length n"):
        marked_row_determinants([[1, 2], [3, 4]], [[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        marked_row_determinants([[1, 2], [3, 4]], [[1], [3, 4]])
    for plain, marked in [([[1, 2], [3, 4]], [[1, 2], [F(1, 2), 4]]),
                          ([[F(1), 2], [3, 4]], [[1, 2], [3, 4]]),
                          ([[1, 2], [3, 4.0]], [[1, 2], [3, 4]])]:
        with pytest.raises(TypeError):
            marked_row_determinants(plain, marked)


def test_marked_row_determinants_pivot_by_column(monkeypatch):
    from hextiling import matrices

    calls = []

    def counted(rows):
        calls.append(rows)
        return determinant(rows)

    monkeypatch.setattr(matrices, "determinant", counted)
    marked = [[1, 1, 1], [0, 1, 2], [3, 1, 4]]
    # a zero pivot at shared step 1, then dependent rows 0-1, which make
    # every matrix holding both 0; the shared elimination finishes them all
    # (by a column swap, or a zero pivot row), and only matrix 1 goes
    # through determinant
    for plain, want in [([[1, 2, 3], [2, 4, 5], [1, 0, 1]], [3, 2, -5]),
                        ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [-2, -1, 0])]:
        calls.clear()
        assert marked_row_determinants(plain, marked) == want
        assert len(calls) == 1, plain
        assert want == [determinant(plain[:l] + [row] + plain[l + 1:])
                        for l, row in enumerate(marked)]


def test_reduced_matrix_base_case():
    _, marked, _, marked_den = reduced_rows(F(7, 3), 1)
    assert (marked, marked_den) == ([[1]], 1)
    assert reduced_determinants(F(7, 3), 1) == ([1], 1)


def test_reduced_determinant_validation():
    for n in (-2, -1, 0):
        with pytest.raises(ValueError, match="need n >= 1"):
            reduced_rows(F(1, 2), n)
        with pytest.raises(ValueError, match="need n >= 1"):
            reduced_determinants(F(1, 2), n)
        with pytest.raises(ValueError, match="need n >= 1"):
            reduced_samples(n)


def test_reduced_times_row_scale_equals_weighted():
    for n in range(1, 6):
        # the row scale prod_i (n+m-i)! / ((m+i-1)! (2n-2i+1)!), free of m
        row_scale = F(1, math.prod(math.factorial(2 * j - 1) for j in range(1, n + 1)))
        for m in range(1, 5):
            dets, den = reduced_determinants(m, n)
            for l in range(1, n + 1):
                lhs = F(dets[l - 1], den) * row_scale
                rhs = F(determinant(path_matrix(marked_path_family(n, m, {l}))), 2 ** (n - 1))
                assert lhs == rhs, (n, m, l)


def test_reduced_determinant_symmetries():
    rng = random.Random(99)
    for n in range(1, 7):
        sign = -1 if (n * (n + 1) // 2 - 1) % 2 else 1
        for l in range(1, n + 1):
            for _ in range(10):
                m = F(rng.randint(-48, 48), rng.choice([1, 2, 3, 5, 7, 11]))
                dets, den = reduced_determinants(m, n)
                assert dets[l - 1] == dets[n - l]
                neg, neg_den = reduced_determinants(-n - m, n)
                assert F(neg[l - 1], neg_den) == sign * F(dets[l - 1], den)


def test_reduced_determinant_integer_roots():
    # the forced prefactor contains (m+i)_{n-2i+1}, so the determinant
    # vanishes at m = -1, ..., -floor(n/2)
    for n in range(2, 7):
        for i in range(1, n // 2 + 1):
            assert reduced_determinants(-i, n)[0] == [0] * n


def _column_relation_grid(max_n):
    # every admissible (n, l, e, k), in the order the suite reports them
    return [f"column relation n={n} l={l} e={e} k={k}"
            for n in range(4, max_n + 1) for e in range(1, n // 2)
            for k in range(1, e + 1) for l in range(1, (n + 1) // 2 + 1)]


def test_column_relation_examples():
    from hextiling import verify

    by_name = {r.name: r.ok for r in verify.check_column_relations(max_n=8)}
    for n, l, e, k in [(4, 1, 1, 1), (5, 2, 1, 1), (6, 3, 2, 1), (6, 3, 2, 2)]:
        assert by_name[f"column relation n={n} l={l} e={e} k={k}"], (n, l, e, k)


def test_column_relation_full_admissible_grid():
    from hextiling import verify

    results = verify.check_column_relations(max_n=8)
    assert [r.name for r in results] == _column_relation_grid(8)
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_column_relation_fails_off_its_point(monkeypatch):
    # at m = -e + 1/2 instead of -e - 1/2 no admissible relation holds
    from hextiling import matrices, verify

    rows = matrices.reduced_rows
    monkeypatch.setattr(matrices, "reduced_rows", lambda m, n: rows(m + 1, n))
    results = verify.check_column_relations(max_n=8)
    assert [r.name for r in results] == _column_relation_grid(8)
    assert not any(r.ok for r in results), [r.name for r in results if r.ok]


def test_reduced_determinant_degree_bound():
    # as a polynomial in m the determinant has degree at most C(n+1,2) - 1:
    # every expansion term takes degree j from column j except degree j-1
    # from the marked row.  One spare point lets a higher degree show, and
    # the bound is attained, so the symmetries suite needs b + 2 points.
    # At integer m the denominator is 2^(n-1), so the numerators are the
    # samples.
    for n in range(1, 8):
        bound = reduced_degree_bound(n)
        samples = [reduced_determinants(m, n) for m in range(bound + 2)]
        assert {den for _, den in samples} == {2 ** (n - 1)}
        for l in range(n):
            assert extend_backwards([dets[l] for dets, _ in samples], 0)[0] == bound, (n, l + 1)


def test_symmetries_check_sees_a_broken_row(monkeypatch):
    # adding 1 to the l = 1 determinant at n = 3 breaks its reflection in l
    # (against l = 3) and its symmetry in m (the sign is -1 at n = 3); every
    # other check still passes
    from hextiling import matrices, verify

    determinants = matrices.reduced_determinants

    def broken(m, n):
        dets, den = determinants(m, n)
        return ([dets[0] + den] + dets[1:] if n == 3 else dets), den

    monkeypatch.setattr(matrices, "reduced_determinants", broken)
    failed = [r.name for r in verify.check_symmetries(max_n=5) if not r.ok]
    assert failed == ["reflect-l symmetry n=3 l=1", "m -> -n-m symmetry n=3 l=1",
                      "reflect-l symmetry n=3 l=3"]


def test_symmetries_sample_each_point_once_on_a_mirror_closed_set(monkeypatch):
    # the m-reflection is proved from the zeros of a polynomial of degree
    # at most b, so it needs b + 2 distinct points with one to spare; a
    # point set closed under m -> -n-m lets each evaluation serve both sides
    from collections import Counter

    from hextiling import matrices, verify

    calls = Counter()
    determinants = matrices.reduced_determinants

    def counted(m, n):
        calls[n, m] += 1
        return determinants(m, n)

    monkeypatch.setattr(matrices, "reduced_determinants", counted)
    assert all(r.ok for r in verify.check_symmetries(max_n=8))
    assert set(calls.values()) == {1}
    for n in range(1, 9):
        points = {m for k, m in calls if k == n}
        assert points == {-n - m for m in points}, n
        assert len(points) >= reduced_degree_bound(n) + 2, n
    assert {n for n, _ in calls} == set(range(1, 9))


def test_symmetries_check_sees_one_broken_mirror_point(monkeypatch):
    # one numerator off by one, for l = 1 at the single point m = -4 - 1/3
    # of n = 4, breaks the reflection in l there (l = 1 against l = 4) and
    # the reflection in m of its pair; every other check still passes
    from hextiling import matrices, verify

    determinants = matrices.reduced_determinants

    def broken(m, n):
        dets, den = determinants(m, n)
        return ([dets[0] + 1] + dets[1:] if (n, m) == (4, F(-13, 3)) else dets), den

    monkeypatch.setattr(matrices, "reduced_determinants", broken)
    failed = [r.name for r in verify.check_symmetries(max_n=5) if not r.ok]
    assert failed == ["reflect-l symmetry n=4 l=1", "m -> -n-m symmetry n=4 l=1",
                      "reflect-l symmetry n=4 l=4"]


def test_reduced_samples_base():
    assert reduced_samples(1) == ([[1, 1, 1]], 1)


def test_reduced_samples_degrees():
    # n + 2 samples, so a quotient of degree n or n + 1 would show up here
    # instead of being cut to n - 1; the Polynomial through them agrees
    for n in range(1, 8):
        samples, den = reduced_samples(n)
        assert len(samples) == n and den > 0
        for row in samples:
            assert len(row) == n + 2
            degree, _ = extend_backwards(row, 0)
            assert degree == _interpolant(row, den).degree() <= n - 1


def test_poly_degree_check_sees_a_quotient_of_higher_degree(monkeypatch):
    # dividing the prefactor by m^2 lifts every quotient to degree n + 1;
    # the two spare samples let the extraction, and so the p-polynomial
    # degree check, see it instead of cutting it to degree n - 1
    from hextiling import matrices, verify

    prefactor = matrices.reduced_prefactor
    monkeypatch.setattr(matrices, "reduced_prefactor",
                        lambda m, n: prefactor(m, n) / F(m) ** 2)
    checks = [r for r in verify.check_reduced_polynomials(max_n=5)
              if r.name.startswith("poly degree")]
    assert [(r.name, r.ok, r.detail) for r in checks] == [
        (f"poly degree n={n} l={l}", False, f"degree {n + 1}")
        for n in range(1, 6) for l in range(1, n + 1)
    ]


def test_reduced_polynomial_reflection_carries_parity_sign():
    # P(-n - m) equals P(m) for odd n and -P(m) for even n; the sign is
    # forced by the determinant symmetry in m combined with the behaviour of
    # the forced prefactor under m -> -n-m.  The values extend_backwards
    # reads at m = 0, -1, ..., -2n-2 are those of the Polynomial.
    for n in range(1, 7):
        samples, den = reduced_samples(n)
        for l, row in enumerate(samples, start=1):
            poly = _interpolant(row, den)
            expected = poly if n % 2 else F(-1) * poly
            assert poly.compose_affine(-n, -1) == expected, (n, l)
            _, behind = extend_backwards(row, 2 * n + 3)
            assert [F(z, den) for z in behind] == [poly(-j) for j in range(2 * n + 3)], (n, l)


def test_reduced_samples_consistent_with_prefactor():
    # prefactor * polynomial reproduces the determinant at fresh points
    for n in range(1, 6):
        samples, den = reduced_samples(n)
        for l, row in enumerate(samples, start=1):
            poly = _interpolant(row, den)
            for m in [F(1, 3), 7, F(-15, 2)]:
                dets, det_den = reduced_determinants(m, n)
                assert F(dets[l - 1], det_den) == reduced_prefactor(m, n) * poly(m)


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@given(_square_matrices())
def test_determinant_matches_permutation_expansion_on_random_sizes(rows):
    assert determinant(rows) == _cofactor_det(rows)


def _path_det(spec, kind, axis=None):
    return determinant(path_matrix(path_family(spec, kind, axis)))


def test_factorization_of_determinants_gives_fixed_counts():
    # Ciucu's factorization on the determinant route: the fixed count is
    # 2^(side_a-1) times the upper count times the weighted lower count, and
    # det L_l is 2^(n-1) times the latter
    cases = 0
    for side_a in range(1, 9):
        for side_m in range(1, 9):
            spec = HexagonSpec(side_a, side_m)
            upper = _path_det(spec, RegionKind.UPPER_TRIMMED)
            for l in range(1, spec.n + 1):
                lower = _path_det(spec, RegionKind.LOWER_HALF, l)
                assert (2 ** (side_a - 1) * upper * lower
                        == 2 ** (spec.n - 1) * fixed_count(spec, l)), (spec, l)
                cases += 1
    assert cases == 256


def test_unmarked_factorization_of_determinants_gives_total_counts():
    # Ciucu's factorization with no fixed rhombus, on determinants alone:
    # the total is 2^side_a times the upper count times the weighted lower
    # count with every axis pair at 1/2, and the unmarked lower matrix has
    # determinant 2^n times the latter
    cases = 0
    for side_a in range(1, 7):
        for side_m in range(1, 8):
            spec = HexagonSpec(side_a, side_m)
            n = spec.n
            if n == 0:
                continue
            total = _path_det(spec, RegionKind.FULL_HEXAGON)
            upper = _path_det(spec, RegionKind.UPPER_TRIMMED)
            lower = determinant(path_matrix(marked_path_family(n, spec.m, ())))
            assert total * 2 ** n == 2 ** side_a * upper * lower, spec
            cases += 1
    assert cases == 38


def test_corollary_counts_need_no_macmahon_product(monkeypatch):
    from hextiling import formulas, verify

    def refuse(*_):
        raise AssertionError("macmahon_count called")

    monkeypatch.setattr(formulas, "macmahon_count", refuse)
    results = verify.check_corollary(max_n=16)
    assert len(results) == 3 * 4 + 2 * 16
    assert all(r.ok for r in results)


# (the matrix raised by 1, the corollary count checks it breaks); the even
# hexagon of centre n is (2n-1, 2n), the odd one (2n, 2n-1), and the two
# share their lower half, marked_path_family(2n-1, n, n)
_BROKEN_DETERMINANTS = [
    (path_family(HexagonSpec(1, 2), RegionKind.UPPER_TRIMMED), ["centre even count n=1"]),
    (path_family(HexagonSpec(3, 4), RegionKind.FULL_HEXAGON), ["centre even count n=2"]),
    (path_family(HexagonSpec(6, 5), RegionKind.LOWER_HALF, 3),
     ["centre even count n=3", "centre odd count n=3"]),
    (path_family(HexagonSpec(8, 7), RegionKind.UPPER_TRIMMED), ["centre odd count n=4"]),
]


@pytest.mark.parametrize("family, expected", _BROKEN_DETERMINANTS)
def test_corollary_sees_a_broken_determinant(monkeypatch, family, expected):
    from hextiling import matrices, verify

    target = path_matrix(family)
    exact = matrices.determinant

    def broken(rows):
        return exact(rows) + (rows == target)

    monkeypatch.setattr(matrices, "determinant", broken)
    failed = [r.name for r in verify.check_corollary(max_n=16) if not r.ok]
    assert failed == expected


def test_column_relation_reads_marked_row_l_at_position_l(monkeypatch):
    # only marked row 2 taken off its point: exactly the relations of l = 2
    # fail, so each l reads its own marked row and no other
    from hextiling import matrices, verify

    rows = matrices.reduced_rows

    def one_marked_row_off(m, n):
        plain, marked, *rest = rows(m, n)
        return (plain, [*marked[:1], rows(m + 1, n)[1][1], *marked[2:]], *rest)

    monkeypatch.setattr(matrices, "reduced_rows", one_marked_row_off)
    results = verify.check_column_relations(max_n=8)
    assert [r.name for r in results] == _column_relation_grid(8)
    assert [r.name for r in results if not r.ok] == [
        name for name in _column_relation_grid(8) if " l=2 " in name]
