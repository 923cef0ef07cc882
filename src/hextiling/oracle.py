"""Brute-force ground truth: rhombus tilings as perfect matchings.

A rhombus tiling of a triangular-grid region is a perfect matching of the
region's dual graph (cells are vertices, edge-adjacent cells are joined).
Cells are sorted once per candidate scan order, and each cell keeps only
its higher-indexed neighbors, read off its coordinates, each as a prebuilt
``(i, j)`` index tuple.

Two kernels share that preparation.  Counts come from a frontier dynamic
program (``_frontier``): it scans the cells in order and keeps, for each
set of cells at or above the scan cell that are already paired with a
lower cell, the summed weight of the partial matchings that reach it, so
tilings are counted without being visited one by one.  Enumeration comes from a
depth-first fill (``_matchings``) that takes the lowest cell not yet covered
and pairs it with each uncovered neighbor in turn; its choices live on an
explicit stack, not in recursion, so the depth of a region is bounded only
by the cell limit, and every matching is produced exactly once, in
lexicographic order of its pairing choices.  The stack holds the prebuilt
index tuples, and tilings map them to prebuilt cell pairs.  The fill runs
in two halves split at the middle cell: each fill of the lower half is
joined with the completions of the upper half, which are searched once per
set of upper cells the lower fill already paired and kept for the rest of
that enumeration, so the order stays the search order.

Scan orders.  Every kernel scans a region in the one order
``_scan_order`` picks for it before any work: row-major, by (row2, col,
orient), or column-major, by (col, row2, orient), whichever has the
smaller state bound (``_peak_states``), row-major on a tie.  Both orders
share one neighbor rule, so one colour-balance walk bounds either.  A
region of at most 8 columns is sorted row-major once, without walking, so
the enumeration of every hexagon with a <= 4 comes in row-major order; a
wider region is sorted once in each order, each sorted list is walked, and
the list with the smaller bound is the scan, so it enumerates, like it
counts, in the order of the smaller bound.

Every axis position in one pass.  ``hexagon_tally`` runs the frontier
once over the full hexagon.  Each state's value packs fixed-width fields:
field 0 counts the partial matchings that reach the state, and field l
those among them that hold the l-th axis rhombus.  Placing that rhombus
adds field 0 into field l, and every other step moves all fields alike, so
mask 0 past the last cell holds the total and every axis-position count.
The fields are ``cells // 2 + 1`` bits wide, read off the cell count
alone; ``_frontier`` says why that is enough.

Tilings are yielded as frozensets of cell pairs, each pair sorted, so the
pair ``hexagon.axis_rhombus_cells`` returns is tested by membership.
Fixed-rhombus counts come in two shapes, one pass per hexagon each:
``count_with_fixed_rhombus`` tests every tiling of one enumeration for
every axis rhombus, and ``hexagon_tally`` counts every axis position in one
frontier pass; ``hexagon_tallies`` gives the ``oracle-vs-theorems`` suite
one tally per hexagon of its grid.  The ``factorization`` suite of
:mod:`hextiling.verify` reads the enumerated count per position and kernel
counts of the two halves from here, and compares them itself.

One hexagon's work is done once.  The suites ask for a hexagon's regions
one after another: the full hexagon once per axis position, then its
halves.  ``hexagon.build_region`` cuts them all from one cell set
(``hexagon._cells_of``), and ``count_with_fixed_rhombus`` keeps the n
position counts of the last (spec, cell limit) it enumerated
(``_fixed_counts``), so the n calls for one hexagon enumerate it once.
These are the only two memos; each holds one entry, the hexagon in hand,
and the counts memo holds n ints, never tilings.  Each region is
prepared afresh: no suite prepares one region twice in a row.
``count_with_fixed_rhombus`` still enumerates through the public
``enumerate_tilings`` rather than reading ``hexagon_tally``: it gives the
``factorization`` suite a left side that visits every tiling, apart from
the frontier kernel that counts the two halves, and the benchmark's traced
run reads its yields through the public name
(``oracle.enumerate_tilings.yielded``, ``oracle.fixed.useful_ratio``).

Everything is exact; weighted counts run the kernel on integer pair weights
and divide once at the end.  Regions larger than the configurable cell limit
are rejected outright instead of being truncated.  Every kernel also rejects
a region whose frontier could hold more than ``STATE_BUDGET`` states in its
scan order, by the bound the colour balance leaves (``_peak_states``):
box(20, 2, 20) passes with 231 states column-major, where a bound on its
width alone would give C(22, 11), and box(14, 13, 5) with 11628 row-major
and 8568 column-major, where its longest row alone would give C(19, 9).  A
region is rejected only when the smaller of its two bounds is past the
budget.  Both limits are checked once per region, before any work;
``check_limits`` runs the same check alone, and ``hexagon_tallies`` checks
every hexagon it is given before it counts the first, so an oversized
request fails at once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Dict, Iterable, Iterator, Tuple

from .hexagon import (
    HexagonSpec,
    Region,
    RegionKind,
    axis_rhombus_cells,
    build_region,
)

DEFAULT_CELL_LIMIT = 120
STATE_BUDGET = 50_000

_COL = itemgetter(1)
_FEW_COLUMNS = 8
_COLUMN_MAJOR = itemgetter(1, 0, 2)  # (col, row2, orient)


class RegionTooLargeError(ValueError):
    """Raised when a region exceeds the enumeration cell limit."""


class StateBudgetError(RegionTooLargeError):
    """Raised when a region's frontier, in its scan order, could outgrow
    STATE_BUDGET states."""


def _scan_order(cells: frozenset, max_cells: int) -> list:
    """``cells`` in every kernel's scan order: column-major when its
    ``_peak_states`` bound is below row-major's, else row-major.

    A row holds at most one cell per column, so a region of at most
    ``_FEW_COLUMNS`` columns keeps the row-major scan without walking
    either order: its frontier holds at most C(8, 4) = 70 states.
    Column-major can still be faster there: it counts the lower halves of
    hexagon(3, M), M = 1-8, 1.2-2.0 times as fast.  But the shortcut spares
    the oracle suites' small regions two walks that cost about as much as
    their count: on hexagon(3, 4) they take 0.14 ms together, two thirds of
    its 0.21 ms frontier pass (2-vCPU Xeon VM, CPython 3.11).  A wider
    region is sorted once in each order, and the list the kernels scan is
    the one walked.

    The cell limit is checked first, then the smaller bound against
    ``STATE_BUDGET``; a region past it in both orders is rejected, with
    that bound and the frontier's width at its peak in the message.
    ``_prepare`` calls this once per region, so every kernel checks both
    limits.
    """
    if len(cells) > max_cells:
        raise RegionTooLargeError(
            f"region has {len(cells)} cells, exceeding the limit of {max_cells}"
        )
    if len(set(map(_COL, cells))) <= _FEW_COLUMNS:
        return sorted(cells)
    row, column = sorted(cells), sorted(cells, key=_COLUMN_MAJOR)
    by_row, by_column = _peak_states(row, cells), _peak_states(column, cells)
    (peak, wide), scan = (by_column, column) if by_column[0] < by_row[0] else (by_row, row)
    if peak > STATE_BUDGET:
        raise StateBudgetError(
            f"region's frontier is {wide} cells wide, so counting it may "
            f"take {peak} states, exceeding the budget of {STATE_BUDGET}"
        )
    return scan


def _peak_states(scan: list, cells: frozenset) -> Tuple[int, int]:
    """A bound on the states the frontier holds at once when the kernels
    scan the region ``cells`` in the order of ``scan``, its cells sorted,
    and the number of cells that can wait for a partner at that step (the
    widest such step, on a tie).

    In either order a left cell's later neighbors are the right cells
    ``(r2, s + 1)`` and ``(r2 + 1, s)``, and a right cell's is the left
    cell ``(r2 + 1, s)`` (``_prepare``).  Past any cell, a state pairs a
    set X of right cells ahead with scanned left cells, and a set Y of left
    cells ahead with scanned right cells.  X lies among the WR right cells
    ahead that neighbor a scanned left cell, Y among the WL left cells ahead
    that neighbor a scanned right cell, and by the colour balance |X| - |Y| is
    the excess e of scanned left over scanned right cells.  By Vandermonde
    that leaves at most C(WR + WL, WL + e) states, none when WL + e < 0.
    No shape is assumed.
    """
    excess, right, left, peak = 0, set(), set(), (1, 0)
    for cell in scan:
        r2, s, orient = cell
        if orient == "left":
            left.discard(cell)
            excess += 1
            right.update(c for c in ((r2, s + 1, "right"), (r2 + 1, s, "right")) if c in cells)
        else:
            right.discard(cell)
            excess -= 1
            left.update(c for c in ((r2 + 1, s, "left"),) if c in cells)
        wide, free = len(right) + len(left), len(left) + excess
        if free >= 0:
            peak = max(peak, (comb(wide, free), wide))
    return peak


def check_limits(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> None:
    """Raise what every kernel raises on ``region`` before it starts:
    ``RegionTooLargeError`` past the cell limit, else ``StateBudgetError``
    past the state budget."""
    _scan_order(region.cells, max_cells)


def _prepare(region: Region, max_cells: int):
    """Check the limits of ``region``, then list its scan: its cells in the
    order ``_scan_order`` picks, their index and each cell's higher-indexed
    neighbors.

    Row-major and column-major alike, the only higher neighbor of a right
    cell ``(r2, s)`` is ``(r2 + 1, s, "left")``, and those of a left cell
    are ``(r2, s + 1, "right")`` and ``(r2 + 1, s, "right")``, listed in
    index order: row-major puts the first one first, column-major the
    second (the differential tests check these lists against a reference
    that lists all three neighbors of every cell).  Plain tuples hash and
    compare equal to ``Cell``, so they look up the index directly, once
    each.
    """
    cells = _scan_order(region.cells, max_cells)
    index = dict(zip(cells, range(len(cells))))
    get = index.get
    later = []
    for i, (r2, s, orient) in enumerate(cells):
        if orient == "right":
            j = get((r2 + 1, s, "left"))
            later.append(() if j is None else ((i, j),))
            continue
        j, k = get((r2, s + 1, "right")), get((r2 + 1, s, "right"))
        if j is None:
            later.append(() if k is None else ((i, k),))
        elif k is None:
            later.append(((i, j),))
        else:
            later.append(((i, j), (i, k)) if j < k else ((i, k), (i, j)))
    return cells, index, later


def _index_pair(index, a, b) -> tuple:
    """The scan indices of cells a and b, lower first: the pair as the
    ``later`` lists hold it."""
    i, j = index[a], index[b]
    return (i, j) if i < j else (j, i)


def _matchings(later, start: int, stop: int, taken: bytearray) -> Iterator[list]:
    """Yield the chosen ``(i, j)`` index pairs of every way to pair the cells
    from ``start`` up to ``stop``.

    ``later[i]`` holds the pair ``(i, j)`` for every neighbor j of cell i
    with a higher index, in increasing order of j.  ``taken[j]`` is set when
    cell j is paired with a lower cell; the caller owns it, and every cell
    below ``start`` must already be paired.  The search pairs the lowest
    unpaired cell ``lo`` with each free partner in ``later[lo]`` in turn,
    pushing the prebuilt pair itself, and yields whenever every cell below
    ``stop`` is paired; partners at or above ``stop`` stay marked in
    ``taken`` while the yield lasts, and every mark is cleared again when
    the search ends.  Every cell below ``lo`` is already paired, so only the
    partners need marking.  The same list object is yielded each time and
    changes as the search goes on, so callers read it (and ``taken``) before
    asking for the next.
    """
    pairs = []
    resume = []  # resume[d]: next index into later[i] after pairs[d] = (i, j)
    lo, k = start, 0
    while True:
        while lo < stop and taken[lo]:
            lo += 1
        if lo == stop:
            yield pairs
        else:
            choices = later[lo]
            while k < len(choices) and taken[choices[k][1]]:
                k += 1
            if k < len(choices):
                pair = choices[k]
                taken[pair[1]] = 1
                pairs.append(pair)
                resume.append(k + 1)
                lo += 1
                k = 0
                continue
        if not pairs:
            return
        lo, j = pairs.pop()
        taken[j] = 0
        k = resume.pop()


def enumerate_tilings(
    region: Region, max_cells: int = DEFAULT_CELL_LIMIT
) -> Iterator[frozenset]:
    """Yield every tiling of ``region`` exactly once, in canonical order:
    the lexicographic order of the pairing choices in the region's scan
    order.

    A tiling is the frozenset of its rhombi, each a sorted 2-tuple of cells,
    covering every cell of the region exactly once.

    A region with an odd number of cells yields nothing; the empty region
    yields the single empty tiling.  The limits are checked at the call:
    ``RegionTooLargeError`` past the cell limit, ``StateBudgetError`` past
    the state budget.
    """
    cells, _, later = _prepare(region, max_cells)
    return _joined_tilings(cells, later)


def _joined_tilings(cells, later) -> Iterator[frozenset]:
    """Every tiling, as a fill of the cells below the middle cell ``cut``
    joined with each completion of the cells from ``cut`` up.

    Which completions a lower fill has depends only on which cells at or
    above ``cut`` it already paired, so the upper half is searched once per
    such frontier and its completions are kept, as frozensets of cell pairs,
    for every later fill that reaches the same frontier.  Lower fills come
    in search order and completions in search order after each, which is
    the order of the search over all cells.
    """
    total = len(later)
    if total % 2 == 1:
        return
    cut = total // 2
    cell_pair = {
        pair: (cells[pair[0]], cells[pair[1]]) for choices in later for pair in choices
    }.__getitem__
    taken = bytearray(total)
    tails = {}  # frontier bytes(taken[cut:]) -> completions of the upper half
    for pairs in _matchings(later, 0, cut, taken):
        frontier = bytes(taken[cut:])
        completions = tails.get(frontier)
        if completions is None:
            completions = tails[frontier] = [
                frozenset(map(cell_pair, upper))
                for upper in _matchings(later, cut, total, taken)
            ]
        if completions:
            head = frozenset(map(cell_pair, pairs))
            for tail in completions:
                yield head | tail


def _frontier(later, weight=None, axis=()) -> list:
    """The frontier dynamic program over the cells of ``later``: the weighted
    number of perfect matchings, and the number of them holding each pair of
    ``axis``.

    Cells are scanned in index order.  A state is a bitmask, relative to the
    scan cell ``lo``, of the cells at or above ``lo`` already paired with a
    lower cell; ``states`` maps each mask to the summed weight of the partial
    matchings that reach it.  At ``lo`` a paired cell shifts out, and a free
    cell pairs with each free partner in ``later[lo]``, multiplying by
    ``weight[pair]`` (default 1) when ``weight`` is given.  Every search node
    of ``_matchings`` that reaches the same frontier is one state here, so
    the kernel never visits more states than the search visits nodes.

    Each value packs fields of ``cells // 2 + 1`` bits: field 0 holds the
    summed weight, and field l the part of it from partial matchings that
    hold ``axis[l - 1]``.  Placing that pair adds field 0 into field l,
    which is still 0 then, since a pair is placed only at the step of its
    lower cell.  The width is enough for unweighted counts: a free scan cell
    has at most two later partners, and a partial matching makes at most
    ``cells // 2`` such choices, so no count exceeds 2^(cells // 2) and no
    field carries into the next.  The top field is read unmasked, so with no
    ``axis`` a weighted sum of any size comes back whole.

    Returns fields 0 to ``len(axis)`` of mask 0 past the last cell.
    """
    width = len(later) // 2 + 1
    low = (1 << width) - 1
    shifts = {pair: l * width for l, pair in enumerate(axis, start=1)}
    states = {0: 1}
    for lo, choices in enumerate(later):
        moves = [
            (1 << (pair[1] - lo), 1 if weight is None else weight[pair], shifts.get(pair, 0))
            for pair in choices
        ]
        nxt = {}
        for mask, ways in states.items():
            if mask & 1:
                key = mask >> 1
                nxt[key] = nxt.get(key, 0) + ways
                continue
            for bit, w, shift in moves:
                if not mask & bit:
                    key = (mask | bit) >> 1
                    add = ways * w
                    if shift:
                        add += (add & low) << shift
                    nxt[key] = nxt.get(key, 0) + add
        states = nxt
    packed = states.get(0, 0)
    top = len(axis)
    return [packed >> (l * width) & low for l in range(top)] + [packed >> (top * width)]


def count_tilings(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> int:
    """Number of tilings of ``region``, from the frontier kernel."""
    _, _, later = _prepare(region, max_cells)
    return _frontier(later)[0]


def weighted_count(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> Fraction:
    """Weighted tiling count: each tiling contributes (1/2)^k where k is the
    number of its rhombi drawn from ``region.weighted_pairs``.

    With no weighted pairs this is the plain count (as a Fraction).  The
    kernel runs on integers: a weighted pair counts 1 and any other pair 2,
    so every tiling of the ``cells // 2`` pairs contributes
    2^(cells // 2 - k), and one division at the end gives the sum.
    """
    cells, index, later = _prepare(region, max_cells)
    weighted = {
        _index_pair(index, a, b) for a, b in region.weighted_pairs
        if a in index and b in index
    }
    weight = {
        pair: 1 if pair in weighted else 2 for choices in later for pair in choices
    }
    return Fraction(_frontier(later, weight)[0], 2 ** (len(cells) // 2))


def count_with_fixed_rhombus(
    spec: HexagonSpec, l: int, max_cells: int = DEFAULT_CELL_LIMIT
) -> int:
    """Tilings of the full hexagon whose pairing contains the l-th axis rhombus.

    ``l`` is checked first (``ValueError`` outside 1..n).  The counts come
    from ``_fixed_counts``, which tallies every axis position from one
    enumeration and keeps the n counts of the last (spec, max_cells), so
    the n calls for one hexagon enumerate it once.
    """
    axis_rhombus_cells(spec, l)
    return _fixed_counts(spec, max_cells)[l - 1]


@lru_cache(maxsize=1)
def _fixed_counts(spec: HexagonSpec, max_cells: int) -> Tuple[int, ...]:
    """Per axis position l, the tilings of the full hexagon that hold the
    l-th axis rhombus, from one pass over ``enumerate_tilings``: each
    tiling is tested for every axis rhombus.  One slot, holding n ints."""
    axis = [axis_rhombus_cells(spec, l) for l in range(1, spec.n + 1)]
    counts = [0] * len(axis)
    for tiling in enumerate_tilings(build_region(spec, RegionKind.FULL_HEXAGON), max_cells):
        for i, pair in enumerate(axis):
            if pair in tiling:
                counts[i] += 1
    return tuple(counts)


def hexagon_tallies(
    specs: Iterable[HexagonSpec], max_cells: int = DEFAULT_CELL_LIMIT
) -> Dict[HexagonSpec, Tuple[int, Dict[int, int]]]:
    """``hexagon_tally`` of every hexagon in ``specs``, keyed by spec in that
    order.  Every hexagon is prepared, and so checked against the cell limit
    and the state budget, before the first is counted."""
    scans = [(spec, _prepare(build_region(spec, RegionKind.FULL_HEXAGON), max_cells))
             for spec in specs]
    tallies = {}
    for spec, (_, index, later) in scans:
        axis = [_index_pair(index, *axis_rhombus_cells(spec, l)) for l in range(1, spec.n + 1)]
        total, *fixed = _frontier(later, axis=axis)
        tallies[spec] = total, dict(enumerate(fixed, start=1))
    return tallies


def hexagon_tally(
    spec: HexagonSpec, max_cells: int = DEFAULT_CELL_LIMIT
) -> Tuple[int, Dict[int, int]]:
    """Tiling count of the full hexagon, and per axis position l the count of
    its tilings that contain the l-th axis rhombus.

    Every count comes from one frontier pass over one prepared copy of the
    hexagon, whose values pack the total and the n position counts side by
    side.  The count at l agrees position-wise with
    count_with_fixed_rhombus, and with the count of the hexagon less the
    rhombus's two cells.  A hexagon with no axis rhombus (n == 0) has no
    positions.
    """
    return hexagon_tallies([spec], max_cells)[spec]
