import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from hextiling import oracle, verify
from hextiling.formulas import (
    fixed_count,
    macmahon_count,
    upper_count_closed_form,
)
from hextiling.hexagon import (
    HexagonSpec,
    Parity,
    Region,
    RegionKind,
    axis_positions,
    axis_rhombus_cells,
    box_region,
    build_region,
    marked_path_family,
    path_family,
)
from hextiling.matrices import determinant, path_matrix
from hextiling.oracle import (
    STATE_BUDGET,
    RegionTooLargeError,
    StateBudgetError,
    count_tilings,
    count_with_fixed_rhombus,
    enumerate_tilings,
    hexagon_tallies,
    hexagon_tally,
    weighted_count,
)

F = Fraction


def test_unit_hexagon_has_two_tilings():
    tilings = list(enumerate_tilings(build_region(HexagonSpec(1, 1), RegionKind.FULL_HEXAGON)))
    assert len(tilings) == 2
    for t in tilings:
        assert len(t) == 3


def test_regular_hexagon_has_twenty_tilings():
    assert count_tilings(build_region(HexagonSpec(2, 2), RegionKind.FULL_HEXAGON)) == 20


def test_enumeration_matches_product_formula():
    for a in range(1, 4):
        for m in range(1, 5):
            got = count_tilings(build_region(HexagonSpec(a, m), RegionKind.FULL_HEXAGON))
            assert got == macmahon_count(a, a, m), (a, m)


def test_enumeration_matches_product_formula_boxes():
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                got = count_tilings(box_region(a, b, c))
                assert got == macmahon_count(a, b, c), (a, b, c)


def test_enumeration_is_duplicate_free():
    tilings = list(enumerate_tilings(build_region(HexagonSpec(2, 2), RegionKind.FULL_HEXAGON)))
    assert len(set(tilings)) == len(tilings) == 20


def test_enumeration_is_deterministic():
    region = build_region(HexagonSpec(2, 2), RegionKind.FULL_HEXAGON)
    first = list(enumerate_tilings(region))
    second = list(enumerate_tilings(region))
    assert first == second


def test_empty_region_has_one_empty_tiling():
    # the trimmed upper half of hexagon (1, 6) is the pentagon with no path
    empty = build_region(HexagonSpec(1, 6), RegionKind.UPPER_TRIMMED)
    assert empty.cells == frozenset()
    tilings = list(enumerate_tilings(empty))
    assert len(tilings) == 1
    assert tilings[0] == frozenset()
    assert count_tilings(empty) == 1
    assert weighted_count(empty) == Fraction(1)


def test_odd_cell_count_yields_nothing():
    # drop one cell from a hexagon to force an odd region
    region = build_region(HexagonSpec(1, 1), RegionKind.FULL_HEXAGON)
    broken = Region(frozenset(sorted(region.cells)[1:]))
    assert list(enumerate_tilings(broken)) == []
    assert count_tilings(broken) == 0
    assert weighted_count(broken) == 0


def test_cell_limit_enforced():
    with pytest.raises(RegionTooLargeError):
        count_tilings(build_region(HexagonSpec(2, 2), RegionKind.FULL_HEXAGON), max_cells=10)
    with pytest.raises(RegionTooLargeError):
        weighted_count(build_region(HexagonSpec(2, 2), RegionKind.FULL_HEXAGON), max_cells=10)
    with pytest.raises(RegionTooLargeError):
        hexagon_tally(HexagonSpec(2, 2), max_cells=10)
    with pytest.raises(RegionTooLargeError, match="region has 16 cells"):
        # hexagon(2, 1), the first of this grid with an axis rhombus, is
        # reported as itself, not as its 8-cell lower half, which the limit
        # also excludes
        verify.check_factorization(max_a=2, max_m=1, max_cells=7)
    # raised at the call, before the first tiling is asked for
    with pytest.raises(RegionTooLargeError):
        enumerate_tilings(build_region(HexagonSpec(2, 2), RegionKind.FULL_HEXAGON), max_cells=10)
    with pytest.raises(RegionTooLargeError):
        count_with_fixed_rhombus(HexagonSpec(2, 2), 1, max_cells=10)


def test_search_deeper_than_recursion_limit():
    # 2802 cells: every tiling is 1401 pairs deep, past the default
    # recursion limit of 1000 frames.
    region = box_region(1, 1, 700)
    assert len(region.cells) == 2802
    expected = macmahon_count(1, 1, 700)
    assert expected == 701
    assert count_tilings(region, max_cells=5000) == expected
    assert weighted_count(region, max_cells=5000) == expected
    assert sum(1 for _ in enumerate_tilings(region, max_cells=5000)) == expected


def test_counters_reach_past_enumeration():
    # hexagons far past the default cell limit, where walking every tiling
    # would take minutes; one of each parity
    for a, m_side, cells in [(6, 6, 216), (5, 5, 150)]:
        spec = HexagonSpec(a, m_side)
        region = build_region(spec, RegionKind.FULL_HEXAGON)
        assert len(region.cells) == cells
        assert count_tilings(region, max_cells=cells) == macmahon_count(a, a, m_side)
        total, tally = hexagon_tally(spec, max_cells=cells)
        assert total == macmahon_count(a, a, m_side)
        assert tally == {l: fixed_count(spec, l)
                         for l in range(1, spec.n + 1)}, (a, m_side)


def test_counters_scan_along_the_narrower_order():
    column_major = oracle._COLUMN_MAJOR
    for region, order in [
        # box(10, 2, 10) is bounded at C(20, 10) = 184756 states row-major
        # and 66 column-major
        (box_region(10, 2, 10), column_major),
        # the same hexagon turned by 120 degrees: 66 row-major, 286 column-major
        (box_region(2, 10, 10), None),
        # hexagon(5, 3): 252 row-major, 56 column-major
        (build_region(HexagonSpec(5, 3), RegionKind.FULL_HEXAGON), column_major),
        # hexagon(5, 6): 252 row-major, 462 column-major
        (build_region(HexagonSpec(5, 6), RegionKind.FULL_HEXAGON), None),
        # a tie, 252 both ways, keeps the row-major scan
        (build_region(HexagonSpec(5, 5), RegionKind.FULL_HEXAGON), None),
        # so do 8 columns or fewer, whatever the bounds
        (build_region(HexagonSpec(4, 1), RegionKind.FULL_HEXAGON), None),
        (Region(frozenset()), None),
        # a lower half of 12 columns: 924 row-major, 220 column-major, which
        # counts it about 9 times as fast
        (build_region(HexagonSpec(6, 17), RegionKind.LOWER_HALF, 1), column_major),
    ]:
        assert oracle._scan_order(region.cells, 1000) == sorted(region.cells, key=order)


@pytest.mark.parametrize("region, sorts", [
    # wider than 8 columns: sorted once row-major and once column-major
    (box_region(10, 2, 10), 2),
    (build_region(HexagonSpec(5, 3), RegionKind.FULL_HEXAGON), 2),
    # 8 columns or fewer: sorted row-major once, with no walk
    (build_region(HexagonSpec(3, 4), RegionKind.FULL_HEXAGON), 1),
])
def test_prepare_sorts_once_per_candidate_order(monkeypatch, region, sorts):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(oracle, "sorted", counted, raising=False)
    oracle._prepare(region, 1000)
    assert len(calls) == sorts


def test_wide_box_counts_in_milliseconds():
    # about 170 000 states row-major, 66 column-major
    start = time.perf_counter()
    assert count_tilings(box_region(10, 2, 10), max_cells=300) == macmahon_count(10, 2, 10)
    assert time.perf_counter() - start < 1.0


def test_wide_box_passes_the_state_budget():
    # 22 cells wide column-major, but colour balance leaves at most 2 of
    # them free at each cut: 231 states, not C(22, 11) = 705432
    region = box_region(20, 2, 20)
    oracle.check_limits(region, max_cells=2000)
    start = time.perf_counter()
    assert count_tilings(region, max_cells=2000) == macmahon_count(20, 2, 20)
    assert time.perf_counter() - start < 1.0


def test_scan_order_takes_the_smaller_bound():
    # box(14, 13, 5): colour balance bounds its frontier at 11628 states
    # row-major and 8568 column-major, so it scans column-major; a bound on
    # its longest row alone, of 19 cells, would give C(19, 9) = 92378
    region = box_region(14, 13, 5)
    row, column = sorted(region.cells), sorted(region.cells, key=oracle._COLUMN_MAJOR)
    assert oracle._peak_states(row, region.cells)[0] == 11628
    assert oracle._peak_states(column, region.cells)[0] == 8568
    oracle.check_limits(region, max_cells=10**6)
    assert oracle._scan_order(region.cells, 10**6) == column
    assert count_tilings(region, max_cells=10**6) == macmahon_count(14, 13, 5)


def test_state_budget_enforced_before_counting(monkeypatch):
    # hexagon(10, 10): 600 cells, a frontier 20 cells wide in either order
    spec = HexagonSpec(10, 10)
    region = build_region(spec, RegionKind.FULL_HEXAGON)
    assert issubclass(StateBudgetError, RegionTooLargeError)
    monkeypatch.setattr(oracle, "_frontier", None)  # any counting would fail
    start = time.perf_counter()
    for count in (count_tilings, weighted_count):
        with pytest.raises(StateBudgetError, match=f"exceeding the budget of {STATE_BUDGET}"):
            count(region, max_cells=1000)
    with pytest.raises(StateBudgetError, match="20 cells wide, so counting it may take 184756"):
        hexagon_tally(spec, max_cells=1000)
    # every hexagon is checked before the first is counted
    with pytest.raises(StateBudgetError):
        hexagon_tallies([HexagonSpec(2, 2), spec], max_cells=1000)
    assert time.perf_counter() - start < 1.0
    # the cell limit is checked first, with its own message
    with pytest.raises(RegionTooLargeError, match="region has 600 cells, exceeding the limit of 120"):
        count_tilings(region)


def test_enumeration_checks_the_state_budget_at_the_call():
    # the enumeration prepares in the counters' scan order, so it rejects
    # hexagon(10, 10) as they do, at the call, not at the first tiling
    region = build_region(HexagonSpec(10, 10), RegionKind.FULL_HEXAGON)
    with pytest.raises(StateBudgetError, match="20 cells wide, so counting it may take 184756"):
        enumerate_tilings(region, max_cells=1000)
    with pytest.raises(StateBudgetError):
        oracle.check_limits(region, max_cells=1000)
    with pytest.raises(RegionTooLargeError, match="region has 600 cells, exceeding the limit of 120"):
        oracle.check_limits(region)


def _traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tally_memory_stays_near_a_plain_count():
    # one pass whose values pack the total and every position count keeps
    # about as many states alive as the plain count of the same hexagon
    spec = HexagonSpec(6, 6)
    plain = _traced_peak(
        lambda: count_tilings(build_region(spec, RegionKind.FULL_HEXAGON), max_cells=1000))
    tally = _traced_peak(lambda: hexagon_tally(spec, max_cells=1000))
    assert tally <= 3 * plain, (tally, plain)


def test_pentagon_counts_match_determinants():
    # the pentagon with n paths and offset m is the trimmed upper half of
    # hexagon (n + 1, 2m)
    for n in range(0, 5):
        for m in range(0, 4):
            got = count_tilings(build_region(HexagonSpec(n + 1, 2 * m), RegionKind.UPPER_TRIMMED))
            want = upper_count_closed_form(n, m) if n else 1
            assert got == want, (n, m)


def test_pentagon_unique_tiling_at_zero_offset():
    assert count_tilings(build_region(HexagonSpec(4, 0), RegionKind.UPPER_TRIMMED)) == 1


def test_weighted_counts_match_determinants_even():
    for n in range(1, 5):
        for m in range(1, 4):
            spec = HexagonSpec(n, 2 * m)
            for l in range(1, n + 1):
                lower = build_region(spec, RegionKind.LOWER_HALF, l)
                got = weighted_count(lower)
                want = F(determinant(path_matrix(marked_path_family(n, m, {l}))), 2 ** (n - 1))
                assert got == want, (n, m, l)


def test_weighted_counts_match_determinants_odd():
    # the odd hexagon's lower region carries two forced boundary strips, so
    # its weighted count coincides with the one-size-down marked matrix
    for a, m_side in [(2, 1), (2, 3), (3, 1), (3, 3)]:
        spec = HexagonSpec(a, m_side)
        if spec.n == 0:
            continue
        for l in range(1, spec.n + 1):
            lower = build_region(spec, RegionKind.LOWER_HALF, l)
            got = weighted_count(lower)
            want = F(determinant(path_matrix(marked_path_family(spec.n, spec.m, {l}))), 2 ** (spec.n - 1))
            assert got == want, (a, m_side, l)


def test_marked_families_count_the_lower_half_less_their_marks():
    # det L_S = 2^(n-|S|) times the weighted count of the lower half less
    # the axis rhombi in S, every other axis pair at weight 1/2; the region
    # is built here from the hexagon's cells, as build_region takes one mark
    cases = 0
    for a in range(1, 5):
        for m_side in range(1, 6):
            spec = HexagonSpec(a, m_side)
            n = spec.n
            if n == 0:
                continue
            cells = build_region(spec, RegionKind.FULL_HEXAGON).cells
            lower = {c for c in cells if c.row2 <= m_side}
            pairs = {l: axis_rhombus_cells(spec, l) for l in range(1, n + 1)}
            for k in range(n + 1):
                for marks in combinations(range(1, n + 1), k):
                    region = Region(
                        frozenset(lower.difference(*(pairs[l] for l in marks))),
                        frozenset(pairs[l] for l in pairs if l not in marks))
                    if k == 1:
                        assert region == build_region(spec, RegionKind.LOWER_HALF, *marks)
                    det = determinant(path_matrix(marked_path_family(n, spec.m, marks)))
                    assert det == 2 ** (n - k) * weighted_count(region), (spec, marks)
                    cases += 1
    assert cases == 102


def _hexagons_up_to(max_cells):
    """Every hexagon, side_m == 0 included, with at most ``max_cells`` cells
    (hexagon (a, b) has 2a(a + 2b))."""
    return [HexagonSpec(a, b) for a in range(1, max_cells) for b in range(max_cells)
            if 2 * a * (a + 2 * b) <= max_cells]


def test_region_to_paths_to_matrix_chain():
    cases = _hexagons_up_to(72)
    assert {spec.parity for spec in cases} == {Parity.EVEN, Parity.ODD}
    for spec in cases:
        full = build_region(spec, RegionKind.FULL_HEXAGON)
        paths = path_matrix(path_family(spec, RegionKind.FULL_HEXAGON))
        assert count_tilings(full) == determinant(paths), spec
        upper = build_region(spec, RegionKind.UPPER_TRIMMED)
        # an empty family gives the empty matrix, whose determinant is 1
        paths = path_matrix(path_family(spec, RegionKind.UPPER_TRIMMED))
        assert count_tilings(upper) == determinant(paths), spec
        for l in range(1, spec.n + 1):
            lower = build_region(spec, RegionKind.LOWER_HALF, l)
            # each of the n - 1 half-weight rows holds twice its weighted counts
            paths = path_matrix(path_family(spec, RegionKind.LOWER_HALF, l))
            assert weighted_count(lower) == F(determinant(paths), 2 ** (spec.n - 1)), (spec, l)


def test_weighted_count_without_weights_is_plain_count():
    region = build_region(HexagonSpec(3, 2), RegionKind.UPPER_TRIMMED)
    assert weighted_count(region) == count_tilings(region) == 5


def test_weighted_count_small_values():
    lower = build_region(HexagonSpec(3, 2), RegionKind.LOWER_HALF, 1)
    assert weighted_count(lower) == F(15, 4)
    single = HexagonSpec(1, 4)
    assert weighted_count(build_region(single, RegionKind.LOWER_HALF, 1)) == 1


def test_count_with_fixed_rhombus_values():
    assert count_with_fixed_rhombus(HexagonSpec(2, 2), 1) == 8
    assert count_with_fixed_rhombus(HexagonSpec(1, 2), 1) == 1
    assert count_with_fixed_rhombus(HexagonSpec(3, 3), 1) == 252


def test_count_with_fixed_rhombus_matches_formulas():
    for a in range(1, 4):
        for m_side in range(1, 5):
            spec = HexagonSpec(a, m_side)
            if spec.n == 0:
                continue
            for l in range(1, axis_positions(spec) + 1):
                got = count_with_fixed_rhombus(spec, l)
                assert got == fixed_count(spec, l), (a, m_side, l)


def _count_enumerations(monkeypatch) -> list:
    """Patch ``oracle.enumerate_tilings`` to record each region it is asked
    for, and return the list of those regions."""
    calls = []
    enumerate_all = oracle.enumerate_tilings

    def counted(region, max_cells=oracle.DEFAULT_CELL_LIMIT):
        calls.append(region)
        return enumerate_all(region, max_cells)

    monkeypatch.setattr(oracle, "enumerate_tilings", counted)
    oracle._fixed_counts.cache_clear()
    return calls


def test_factorization_enumerates_each_hexagon_once(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    assert all(r.ok for r in verify.check_factorization(max_a=3, max_m=4))
    grid = [HexagonSpec(a, m_side) for a in range(1, 4) for m_side in range(1, 5)]
    with_axis = [spec for spec in grid if spec.n > 0]
    assert len(with_axis) == 10
    assert calls == [build_region(spec, RegionKind.FULL_HEXAGON) for spec in with_axis]


def test_fixed_counts_follow_the_requested_hexagon_and_limit():
    # the one-slot memo is keyed on (spec, max_cells): calls that alternate
    # between hexagons, or between limits, read the counts of the hexagon
    # they name
    tallies = {spec: hexagon_tally(spec)[1] for spec in (HexagonSpec(3, 2), HexagonSpec(2, 2))}
    for _ in range(2):
        for spec, tally in tallies.items():
            for max_cells in (120, 60):
                assert {l: count_with_fixed_rhombus(spec, l, max_cells)
                        for l in tally} == tally, (spec, max_cells)


def test_fixed_counts_check_the_limit_on_every_call():
    spec = HexagonSpec(3, 3)  # 54 cells
    assert count_with_fixed_rhombus(spec, 1, max_cells=60) == 252
    with pytest.raises(RegionTooLargeError, match="region has 54 cells"):
        count_with_fixed_rhombus(spec, 1, max_cells=50)
    assert count_with_fixed_rhombus(spec, 2, max_cells=60) == 252


def test_fixed_counts_reject_a_position_before_enumerating(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    spec = HexagonSpec(3, 4)
    for l in (0, spec.n + 1):
        with pytest.raises(ValueError):
            count_with_fixed_rhombus(spec, l)
    assert calls == []


def test_occupancy_tally_coherence():
    # the default oracle-vs-theorems grid, both parities
    for a in range(1, 4):
        for m_side in range(1, 5):
            spec = HexagonSpec(a, m_side)
            total, tally = hexagon_tally(spec)
            assert total == count_tilings(build_region(spec, RegionKind.FULL_HEXAGON)), (a, m_side)
            if spec.n == 0:
                assert tally == {}
                continue
            assert list(tally) == list(range(1, axis_positions(spec) + 1))
            for l, occupancy in tally.items():
                assert occupancy == count_with_fixed_rhombus(spec, l), (a, m_side, l)
            by_formula = sum(fixed_count(spec, l) for l in range(1, spec.n + 1))
            assert sum(tally.values()) == by_formula, (a, m_side)


def test_factorization_examples():
    results = verify.check_factorization(max_a=3, max_m=3)
    for a, m_side, n in [(3, 2, 3), (3, 3, 2), (2, 2, 2)]:
        prefix = f"hexagon({a},{m_side}) factorization "
        assert [(r.name, r.ok) for r in results if r.name.startswith(prefix)] == [
            (f"{prefix}l={l}", True) for l in range(1, n + 1)]


def test_factorization_full_grid():
    results = verify.check_factorization(max_a=3, max_m=4)
    assert [r.name for r in results] == [
        f"hexagon({a},{m_side}) factorization l={l}"
        for a in range(1, 4) for m_side in range(1, 5)
        for l in range(1, HexagonSpec(a, m_side).n + 1)]
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]
