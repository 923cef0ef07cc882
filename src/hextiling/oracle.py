"""Brute-force ground truth: rhombus tilings as perfect matchings.

A rhombus tiling of a triangular-grid region is a perfect matching of the
region's dual graph (cells are vertices, edge-adjacent cells are joined).
Cells are sorted once per region, and each cell keeps only its
higher-indexed neighbors, read off its coordinates, each as a prebuilt
``(i, j)`` index tuple.

Two kernels share that preparation.  Counts come from a frontier dynamic
program (``_frontier_count``): it scans the cells in order and keeps, for
each set of cells at or above the scan cell that are already paired with a
lower cell, the summed weight of the partial matchings that reach it, so
tilings are counted without being visited one by one.  Enumeration comes
from a depth-first fill (``_matchings``) that takes the lowest cell not yet
covered and pairs it with each uncovered neighbor in turn; its choices live
on an explicit stack, not in recursion, so the depth of a region is bounded
only by the cell limit, and every matching is produced exactly once, in
lexicographic order of its pairing choices.  The stack holds the prebuilt
index tuples, and tilings map them to prebuilt cell pairs.  The fill runs
in two halves split at the middle cell: each fill of the lower half is
joined with the completions of the upper half, which are searched once per
set of upper cells the lower fill already paired and kept for the rest of
that enumeration, so the order stays the search order.

Tilings are yielded as frozensets of cell pairs, each pair sorted, so the
pair ``hexagon.axis_rhombus_cells`` returns is tested by membership.
Fixed-rhombus counts come in two shapes: ``count_with_fixed_rhombus`` filters
one enumeration per axis position, and ``hexagon_tally`` counts every axis
position as the hexagon minus that rhombus's two cells, on the frontier
kernel.  ``hexagon_tally`` builds and prepares the hexagon once for its total
and all its positions; it is the one oracle call per hexagon of the
``oracle-vs-theorems`` suite.  The ``factorization`` suite of
:mod:`hextiling.verify` reads the filtered enumeration per position and
kernel counts of the two halves from here, and compares them itself.

Everything is exact; weighted counts run the kernel on integer pair weights
and divide once at the end.  Regions larger than the configurable cell limit
are rejected outright instead of being truncated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Tuple

from .hexagon import (
    HexagonSpec,
    Region,
    RegionKind,
    axis_rhombus_cells,
    build_region,
)

DEFAULT_CELL_LIMIT = 120


class RegionTooLargeError(ValueError):
    """Raised when a region exceeds the enumeration cell limit."""


def _prepare(region: Region, max_cells: int):
    """Sort the cells and list each cell's higher-indexed neighbors.

    In the sorted ``(row2, col, orient)`` order the only higher neighbor of a
    right cell ``(r2, s)`` is ``(r2 + 1, s, "left")``, and those of a left
    cell are ``(r2, s + 1, "right")`` and then ``(r2 + 1, s, "right")``
    (the differential tests check these lists against a reference that
    lists all three neighbors of every cell).  Plain tuples hash and compare
    equal to ``Cell``, so they look up the index directly, once each.
    """
    cells = sorted(region.cells)
    if len(cells) > max_cells:
        raise RegionTooLargeError(
            f"region has {len(cells)} cells, exceeding the limit of {max_cells}"
        )
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
        else:
            later.append(((i, j),) if k is None else ((i, j), (i, k)))
    return cells, index, later


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
    """Yield every tiling of ``region`` exactly once, in canonical order.

    A tiling is the frozenset of its rhombi, each a sorted 2-tuple of cells,
    covering every cell of the region exactly once.

    A region with an odd number of cells yields nothing; the empty region
    yields the single empty tiling.
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


def _frontier_count(later, weight=None, removed=()) -> int:
    """Weighted number of perfect matchings, by a frontier dynamic program.

    Cells are scanned in index order.  A state is a bitmask, relative to the
    scan cell ``lo``, of the cells at or above ``lo`` already paired with a
    lower cell; ``states`` maps each mask to the summed weight of the partial
    matchings that reach it.  At ``lo`` a paired cell shifts out, and a free
    cell pairs with each free partner in ``later[lo]``, multiplying by
    ``weight[pair]`` (default 1) when ``weight`` is given.  Cells in
    ``removed`` start out paired, so they are left out of the region.  Every
    search node of ``_matchings`` that reaches the same frontier is one state
    here, so the kernel never visits more states than the search visits nodes.
    """
    states = {sum(1 << r for r in removed): 1}
    for lo, choices in enumerate(later):
        moves = [
            (1 << (pair[1] - lo), 1 if weight is None else weight[pair])
            for pair in choices
        ]
        nxt = {}
        for mask, ways in states.items():
            if mask & 1:
                key = mask >> 1
                nxt[key] = nxt.get(key, 0) + ways
                continue
            for bit, w in moves:
                if not mask & bit:
                    key = (mask | bit) >> 1
                    nxt[key] = nxt.get(key, 0) + ways * w
        states = nxt
    return states.get(0, 0)


def count_tilings(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> int:
    """Number of tilings of ``region``, from the frontier kernel."""
    _, _, later = _prepare(region, max_cells)
    return _frontier_count(later)


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
        (index[a], index[b]) for a, b in region.weighted_pairs
        if a in index and b in index
    }
    weight = {
        pair: 1 if pair in weighted else 2 for choices in later for pair in choices
    }
    return Fraction(_frontier_count(later, weight), 2 ** (len(cells) // 2))


def count_with_fixed_rhombus(
    spec: HexagonSpec, l: int, max_cells: int = DEFAULT_CELL_LIMIT
) -> int:
    """Tilings of the full hexagon whose pairing contains the l-th axis rhombus."""
    target = axis_rhombus_cells(spec, l)
    region = build_region(spec, RegionKind.FULL_HEXAGON)
    return sum(1 for t in enumerate_tilings(region, max_cells) if target in t)


def hexagon_tally(
    spec: HexagonSpec, max_cells: int = DEFAULT_CELL_LIMIT
) -> Tuple[int, Dict[int, int]]:
    """Tiling count of the full hexagon, and per axis position l the count of
    its tilings that contain the l-th axis rhombus.

    Every count comes from one prepared copy of the hexagon on the frontier
    kernel.  The count at l is that of the hexagon with the rhombus's two
    cells removed, so it agrees with count_with_fixed_rhombus position-wise.
    A hexagon with no axis rhombus (n == 0) has no positions.
    """
    _, index, later = _prepare(build_region(spec, RegionKind.FULL_HEXAGON), max_cells)
    fixed = {
        l: _frontier_count(
            later, removed=[index[c] for c in axis_rhombus_cells(spec, l)]
        )
        for l in range(1, spec.n + 1)
    }
    return _frontier_count(later), fixed

