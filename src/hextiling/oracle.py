"""Brute-force ground truth: exhaustive enumeration of rhombus tilings.

A rhombus tiling of a triangular-grid region is a perfect matching of the
region's dual graph (cells are vertices, edge-adjacent cells are joined).
One search kernel serves every public counter: a depth-first fill that takes
the lowest cell not yet covered and pairs it with each uncovered neighbor in
turn.  Its choices live on an explicit stack, not in recursion, so the depth
of a region is bounded only by the cell limit.  Because the chosen cell is
always the minimal uncovered one, all its lower-indexed neighbors are already
covered, so only higher-indexed neighbors are kept; and every matching is
produced exactly once, in lexicographic order of its pairing choices.  Each
candidate pairing is built once per region as an ``(i, j)`` index tuple, and
the stack holds those prebuilt tuples, so the search allocates no tuple per
node; tilings map them to prebuilt cell pairs.

Fixed-rhombus counts come in two shapes: ``count_with_fixed_rhombus`` filters
one enumeration per axis position, and ``axis_occupancy_tally`` counts every
axis position in a single enumeration of the hexagon, which is what the
``oracle-vs-theorems`` suite uses.

Everything is exact; weighted counts tally the tilings by their number of
weighted rhombi and sum exact rationals rather than using doubling tricks.
Regions larger than the configurable cell limit are rejected outright
instead of being truncated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator

from .hexagon import (
    HexagonSpec,
    Parity,
    Region,
    RegionKind,
    axis_pair,
    axis_positions,
    build_region,
    cell_neighbors,
    normalize,
)

DEFAULT_CELL_LIMIT = 120


class RegionTooLargeError(ValueError):
    """Raised when a region exceeds the enumeration cell limit."""


@dataclass(frozen=True)
class Tiling:
    """A perfect pairing of a region's cells into unit rhombi.

    ``pairs`` holds 2-tuples of cells, each sorted internally, covering every
    cell of the region exactly once.
    """

    pairs: frozenset


def _prepare(region: Region, max_cells: int):
    cells = sorted(region.cells)
    if len(cells) > max_cells:
        raise RegionTooLargeError(
            f"region has {len(cells)} cells, exceeding the limit of {max_cells}"
        )
    index = {c: i for i, c in enumerate(cells)}
    later = [
        tuple((i, j) for j in sorted(
            index[n] for n in cell_neighbors(c) if index.get(n, -1) > i))
        for i, c in enumerate(cells)
    ]
    return cells, later


def _matchings(later) -> Iterator[list]:
    """Yield the chosen ``(i, j)`` index pairs of every perfect matching.

    ``later[i]`` holds the pair ``(i, j)`` for every neighbor j of cell i
    with a higher index, in increasing order of j.  The search pairs the
    lowest unpaired cell ``lo`` with each free partner in ``later[lo]`` in
    turn, pushing the prebuilt pair itself.  Every cell below ``lo`` is
    already paired, so only the partners need marking.  The same list object
    is yielded each time and changes as the search goes on, so callers read
    it before asking for the next.
    """
    total = len(later)
    if total % 2 == 1:
        return
    taken = bytearray(total)  # taken[j]: cell j is paired with a lower cell
    pairs = []
    resume = []  # resume[d]: next index into later[i] after pairs[d] = (i, j)
    lo = k = 0
    while True:
        while lo < total and taken[lo]:
            lo += 1
        if lo == total:
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
) -> Iterator[Tiling]:
    """Yield every tiling of ``region`` exactly once, in canonical order.

    A region with an odd number of cells yields nothing; the empty region
    yields the single empty tiling.
    """
    cells, later = _prepare(region, max_cells)
    cell_pair = {
        pair: (cells[pair[0]], cells[pair[1]]) for choices in later for pair in choices
    }.__getitem__
    return (Tiling(frozenset(map(cell_pair, pairs))) for pairs in _matchings(later))


def count_tilings(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> int:
    """Number of tilings of ``region`` (same search as enumerate_tilings)."""
    _, later = _prepare(region, max_cells)
    return sum(1 for _ in _matchings(later))


def weighted_count(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> Fraction:
    """Weighted tiling count: each tiling contributes (1/2)^k where k is the
    number of its rhombi drawn from ``region.weighted_pairs``.

    With no weighted pairs this is the plain count (as a Fraction).
    """
    cells, later = _prepare(region, max_cells)
    index = {c: i for i, c in enumerate(cells)}
    weighted = {
        (index[a], index[b]) for a, b in region.weighted_pairs
        if a in index and b in index
    }
    tally = Counter(len(weighted.intersection(pairs)) for pairs in _matchings(later))
    return sum((Fraction(c, 2**k) for k, c in tally.items()), Fraction(0))


def count_with_fixed_rhombus(
    spec: HexagonSpec, l: int, max_cells: int = DEFAULT_CELL_LIMIT
) -> int:
    """Tilings of the full hexagon whose pairing contains the l-th axis rhombus."""
    params = normalize(spec)
    target = axis_pair(params, l)
    region = build_region(params, RegionKind.FULL_HEXAGON, l)
    return sum(
        1 for t in enumerate_tilings(region, max_cells) if target in t.pairs
    )


def axis_occupancy_tally(
    spec: HexagonSpec, max_cells: int = DEFAULT_CELL_LIMIT
) -> Dict[int, int]:
    """Per-position tally of axis-rhombus occupancy over all tilings.

    One enumeration pass; each tiling is counted once for every axis rhombus
    it contains, so values agree with count_with_fixed_rhombus position-wise.
    """
    params = normalize(spec)
    targets = {
        l: axis_pair(params, l) for l in range(1, axis_positions(params) + 1)
    }
    tally = {l: 0 for l in targets}
    region = build_region(params, RegionKind.FULL_HEXAGON)
    for tiling in enumerate_tilings(region, max_cells):
        for l, pair in targets.items():
            if pair in tiling.pairs:
                tally[l] += 1
    return tally


def factorization_check(
    spec: HexagonSpec, l: int, max_cells: int = DEFAULT_CELL_LIMIT
) -> bool:
    """Check the reflective-symmetry factorization of the fixed-rhombus count.

    The count of tilings containing axis rhombus l must equal
    2^(side_a - 1) times the tiling count of the (trimmed) upper half times
    the weighted count of the lower half with position l removed.
    """
    params = normalize(spec)
    fixed = count_with_fixed_rhombus(spec, l, max_cells)
    upper_kind = (
        RegionKind.UPPER_TRIMMED
        if params.parity is Parity.EVEN
        else RegionKind.UPPER_HALF
    )
    upper = build_region(params, upper_kind)
    lower = build_region(params, RegionKind.LOWER_HALF, l)
    rhs = (
        Fraction(2) ** (spec.side_a - 1)
        * count_tilings(upper, max_cells)
        * weighted_count(lower, max_cells)
    )
    return Fraction(fixed) == rhs
