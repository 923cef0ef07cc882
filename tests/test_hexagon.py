from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hextiling import formulas
from hextiling.hexagon import (
    Cell,
    HexagonSpec,
    Parity,
    RegionKind,
    axis_positions,
    axis_rhombus_cells,
    box_path_family,
    box_region,
    build_region,
    hexagon_cells,
    marked_path_family,
    path_family,
    pentagon_path_family,
)
from hextiling.oracle import enumerate_tilings


def test_hexagon_cell_counts():
    # a hexagon with sides a,b,c,a,b,c triangulates into 2(ab+bc+ca) cells
    for a, b, c in [(1, 1, 1), (3, 2, 3), (3, 4, 5), (2, 2, 2), (1, 4, 2)]:
        assert len(hexagon_cells(a, b, c)) == 2 * (a * b + b * c + c * a)
    assert hexagon_cells(0, 5, 0) == frozenset()


def test_box_a_b_a_is_hexagon_a_b():
    # the oracle-vs-theorems suite takes box(a, b, a)'s count from hexagon(a, b)
    for a in range(1, 5):
        for b in range(0, 6):
            full = build_region(HexagonSpec(a, b), RegionKind.FULL_HEXAGON)
            assert box_region(a, b, a).cells == full.cells


def _parity_split(side_a, side_m):
    """(parity, n, m) of the sides, written out as a separate conversion."""
    if side_m % 2 == 0:
        return Parity.EVEN, side_a, side_m // 2
    return Parity.ODD, side_a - 1, (side_m + 1) // 2


@given(st.integers(1, 10**6), st.integers(0, 10**6))
def test_spec_reads_off_the_parity_split(side_a, side_m):
    spec = HexagonSpec(side_a, side_m)
    assert (spec.parity, spec.n, spec.m) == _parity_split(side_a, side_m)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_fixed_count_hexagons_read_back_their_parameters(n, m):
    # fixed_count_even counts on the hexagon (n, 2m), which needs n >= 1, and
    # fixed_count_odd on (n+1, 2m-1), which needs m >= 1; both give back (n, m)
    with mock.patch.object(formulas, "fixed_count", lambda spec, l: spec):
        if n >= 1:
            even = formulas.fixed_count_even(n, m, 1)
            assert (even.parity, even.n, even.m) == (Parity.EVEN, n, m)
        if m >= 1:
            odd = formulas.fixed_count_odd(n, m, 1)
            assert (odd.parity, odd.n, odd.m) == (Parity.ODD, n, m)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@example(0, 0)
@example(1, -1)
@example(1, 0)
def test_hexagon_spec_validation(side_a, side_m):
    if side_a < 1 or side_m < 0:
        with pytest.raises(ValueError):
            HexagonSpec(side_a, side_m)
    else:
        assert HexagonSpec(side_a, side_m).side_m == side_m


def test_hexagon_spec_sides_are_integers():
    # a side that is not an integer raises at construction instead of
    # reaching the formulas or the region builder as a fraction of a cell
    for sides in [(2.5, 3), (3, 4.0), (Fraction(5, 2), 3), ("3", 4)]:
        with pytest.raises(TypeError):
            HexagonSpec(*sides)
    spec = HexagonSpec(True, 2)
    assert spec == (1, 2) and type(spec.side_a) is int and type(spec.n) is int
    assert repr(spec) == "HexagonSpec(side_a=1, side_m=2)"


def test_hexagon_spec_is_an_immutable_value():
    spec = HexagonSpec(3, 4)
    assert repr(spec) == "HexagonSpec(side_a=3, side_m=4)"
    with pytest.raises(AttributeError):
        spec.side_a = 5
    with pytest.raises(AttributeError):
        spec.n = 5
    with pytest.raises(AttributeError):
        spec.extra = 5
    twin = HexagonSpec(side_a=3, side_m=4)
    assert twin == spec and hash(twin) == hash(spec)
    assert HexagonSpec(3, 3) != spec


def test_degenerate_hexagon():
    # side_m == 0: a parallelogram with n = side_a axis positions, m = 0
    spec = HexagonSpec(2, 0)
    assert (spec.parity, spec.n, spec.m) == (Parity.EVEN, 2, 0)
    assert len(build_region(spec, RegionKind.FULL_HEXAGON).cells) == 8
    trimmed = build_region(spec, RegionKind.UPPER_TRIMMED)
    assert len(trimmed.cells) == 2
    assert path_family(spec, RegionKind.UPPER_TRIMMED) == pentagon_path_family(1, 0)


def test_axis_positions():
    assert axis_positions(HexagonSpec(3, 2)) == 3
    assert axis_positions(HexagonSpec(1, 10)) == 1
    assert axis_positions(HexagonSpec(3, 3)) == 2
    with pytest.raises(ValueError):
        axis_positions(HexagonSpec(1, 1))


def test_axis_positions_match_brute_force():
    # every axis rhombus that shows up in some tiling of hexagon (3,2)
    spec = HexagonSpec(3, 2)
    pairs = {
        axis_rhombus_cells(spec, l)
        for l in range(1, axis_positions(spec) + 1)
    }
    # sorted already, as tilings store their pairs
    assert all(pair == tuple(sorted(pair)) for pair in pairs)
    seen = set()
    for tiling in enumerate_tilings(build_region(spec, RegionKind.FULL_HEXAGON)):
        seen.update(p for p in tiling if p in pairs)
    assert seen == pairs and len(seen) == 3 == axis_positions(spec)


def test_axis_positions_biject_under_reflection():
    # mirroring the hexagon across its symmetry line in the other direction
    # (strip s -> 2A-1-s, orientation flipped) maps position l to N+1-l
    for a, m_side in [(3, 2), (3, 3), (2, 4), (4, 1)]:
        spec = HexagonSpec(a, m_side)
        if spec.n == 0:
            continue
        strips = 2 * spec.side_a

        def mirror(cell):
            flipped = "right" if cell.orient == "left" else "left"
            return Cell(cell.row2, strips - 1 - cell.col, flipped)

        for l in range(1, axis_positions(spec) + 1):
            mirrored = {mirror(c) for c in axis_rhombus_cells(spec, l)}
            partner = set(axis_rhombus_cells(spec, axis_positions(spec) + 1 - l))
            assert mirrored == partner


def test_axis_rhombus_cells_geometry():
    spec = HexagonSpec(3, 2)
    left, right = axis_rhombus_cells(spec, 1)
    assert left == Cell(2, 0, "left")
    assert right == Cell(2, 1, "right")
    with pytest.raises(ValueError):
        axis_rhombus_cells(spec, 4)

    odd = HexagonSpec(3, 3)
    left, right = axis_rhombus_cells(odd, 2)
    assert left.row2 == right.row2 == 3
    assert (left.col, right.col) == (3, 4)


def _upper_half(spec):
    """The untrimmed upper half: every cell strictly above the axis."""
    full = build_region(spec, RegionKind.FULL_HEXAGON)
    return frozenset(c for c in full.cells if c.row2 > spec.side_m)


def test_build_region_cell_counts():
    # hexagon (3,2), marked position 1: the classic cut
    spec = HexagonSpec(3, 2)
    full = build_region(spec, RegionKind.FULL_HEXAGON)
    upper = _upper_half(spec)
    trimmed = build_region(spec, RegionKind.UPPER_TRIMMED)
    lower = build_region(spec, RegionKind.LOWER_HALF, 1)
    assert len(full.cells) == 42
    assert len(upper) == 18
    assert len(trimmed.cells) == 14
    assert len(lower.cells) == 22
    assert len(lower.weighted_pairs) == 2


def test_upper_plus_lower_covers_hexagon_minus_rhombus():
    for n in range(1, 6):
        for m in range(1, 4):
            spec = HexagonSpec(n, 2 * m)
            full = build_region(spec, RegionKind.FULL_HEXAGON)
            upper = _upper_half(spec)
            for l in range(1, n + 1):
                lower = build_region(spec, RegionKind.LOWER_HALF, l)
                assert not upper & lower.cells
                missing = full.cells - upper - lower.cells
                assert missing == frozenset(axis_rhombus_cells(spec, l))


def test_trimmed_is_upper_minus_end_strips():
    for n in range(1, 6):
        for m in range(1, 4):
            spec = HexagonSpec(n, 2 * m)
            upper = _upper_half(spec)
            trimmed = build_region(spec, RegionKind.UPPER_TRIMMED)
            strips = {c for c in upper if c.col in (0, 2 * n - 1)}
            assert trimmed.cells == upper - strips
            assert len(strips) == 4 * m
    # odd parity has no forced strips: trimming is the identity
    for n in range(0, 5):
        for m in range(1, 4):
            spec = HexagonSpec(n + 1, 2 * m - 1)
            trimmed = build_region(spec, RegionKind.UPPER_TRIMMED)
            assert trimmed.cells == _upper_half(spec)


def test_every_region_has_even_cell_count():
    for a in range(1, 4):
        for m_side in range(1, 5):
            spec = HexagonSpec(a, m_side)
            assert len(_upper_half(spec)) % 2 == 0
            for kind in (RegionKind.FULL_HEXAGON, RegionKind.UPPER_TRIMMED):
                assert len(build_region(spec, kind).cells) % 2 == 0
            if spec.n:
                for l in range(1, spec.n + 1):
                    lower = build_region(spec, RegionKind.LOWER_HALF, l)
                    assert len(lower.cells) % 2 == 0


def test_empty_trimmed_region():
    spec = HexagonSpec(1, 2)
    assert build_region(spec, RegionKind.UPPER_TRIMMED).cells == frozenset()
    assert path_family(spec, RegionKind.UPPER_TRIMMED) == pentagon_path_family(0, 1)


def test_build_region_axis_validation():
    spec = HexagonSpec(3, 2)
    with pytest.raises(ValueError):
        build_region(spec, RegionKind.LOWER_HALF)
    with pytest.raises(ValueError):
        build_region(spec, RegionKind.LOWER_HALF, 4)
    with pytest.raises(ValueError):
        build_region(spec, RegionKind.UPPER_TRIMMED, 1)
    with pytest.raises(ValueError):
        build_region(spec, RegionKind.FULL_HEXAGON, 1)
    with pytest.raises(ValueError, match="unknown region kind"):
        build_region(spec, "upper-half")


def _accepts(construct, spec, kind, axis):
    try:
        construct(spec, kind, axis)
    except ValueError:
        return False
    return True


# hexagon (1, 1) has no axis position, (2, 0) is the degenerate one
@pytest.mark.parametrize("spec", [HexagonSpec(3, 2), HexagonSpec(3, 3),
                                  HexagonSpec(1, 1), HexagonSpec(2, 0)])
@pytest.mark.parametrize("kind", list(RegionKind))
@pytest.mark.parametrize("axis", [None, 1, "n + 1"])
def test_region_and_path_family_share_the_axis_rule(spec, kind, axis):
    if axis == "n + 1":
        axis = spec.n + 1
    # a lower half takes one of the n positions, every other kind no mark
    if kind is RegionKind.LOWER_HALF:
        expected = axis is not None and 1 <= axis <= spec.n
    else:
        expected = axis is None
    assert _accepts(build_region, spec, kind, axis) == expected
    assert _accepts(path_family, spec, kind, axis) == expected


def test_pentagon_paths():
    fam = pentagon_path_family(2, 1)
    assert fam.starts == ((1, 1), (2, 2))
    assert fam.ends == ((2, -1), (3, 1))
    assert fam.half_weight_if_vertical_end == (False, False)


def test_marked_paths():
    fam = marked_path_family(1, 2, {1})
    assert fam.starts == ((1, 1),)
    assert fam.ends == ((3, 1),)

    fam = marked_path_family(3, 1, {2})
    assert fam.ends == ((2, -2), (3, 1), (4, 2))
    assert fam.half_weight_if_vertical_end == (True, False, True)
    # marks are a collection: no marks, several, or every path
    assert marked_path_family(3, 1, []).ends == ((2, -2), (3, 0), (4, 2))
    fam = marked_path_family(3, 1, (3, 1))
    assert fam.ends == ((2, -1), (3, 0), (4, 3))
    assert fam.half_weight_if_vertical_end == (False, True, False)
    assert marked_path_family(3, 1, range(1, 4)).half_weight_if_vertical_end == (False,) * 3
    assert marked_path_family(0, 2, ()) == ((), (), ())
    with pytest.raises(ValueError, match="axis position must satisfy 1 <= l <= 3, got 0"):
        marked_path_family(3, 1, {0, 2})
    with pytest.raises(ValueError, match="1 <= l <= 3, got 4"):
        marked_path_family(3, 1, [1, 4])
    with pytest.raises(TypeError):
        marked_path_family(3, 1, 2)


def test_path_family_from_params():
    even = HexagonSpec(3, 2)
    assert path_family(even, RegionKind.UPPER_TRIMMED) == pentagon_path_family(2, 1)
    assert path_family(even, RegionKind.LOWER_HALF, 2) == marked_path_family(3, 1, {2})
    odd = HexagonSpec(3, 3)
    assert path_family(odd, RegionKind.UPPER_TRIMMED) == pentagon_path_family(3, 1)
    assert path_family(odd, RegionKind.LOWER_HALF, 1) == marked_path_family(2, 2, {1})
    assert path_family(even, RegionKind.FULL_HEXAGON) == box_path_family(3, 3, 2)
    assert path_family(odd, RegionKind.FULL_HEXAGON) == box_path_family(3, 3, 3)


def test_box_paths():
    fam = box_path_family(2, 3, 1)
    assert fam.starts == ((0, 0), (-1, -1))
    assert fam.ends == ((3, -1), (2, -2))
    assert fam.half_weight_if_vertical_end == (False, False)
    assert box_path_family(0, 3, 1) == ((), (), ())
    with pytest.raises(ValueError):
        box_path_family(1, -1, 1)


def test_path_endpoints_stay_in_bounding_box():
    for n in range(1, 7):
        for m in range(0, 4):
            fam = pentagon_path_family(n, m)
            for (sx, sy), (ex, ey) in zip(fam.starts, fam.ends):
                for v in (sx, sy, ex, ey):
                    assert abs(v) <= n + m + 1
