"""Brute-force ground truth: exhaustive enumeration of rhombus tilings.

A rhombus tiling of a triangular-grid region is a perfect matching of the
region's dual graph (cells are vertices, edge-adjacent cells are joined).
The enumerator below does a depth-first fill: take the lowest cell not yet
covered, pair it with each uncovered neighbor in turn, recurse.  Because the
chosen cell is always the minimal uncovered one, every matching is produced
exactly once, in lexicographic order of its pairing choices.

Everything is exact; weighted counts accumulate rationals rather than using
doubling tricks.  Regions larger than the configurable cell limit are
rejected outright instead of being truncated.
"""

from __future__ import annotations

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
    neighbors = [
        tuple(sorted(index[n] for n in cell_neighbors(c) if n in index))
        for c in cells
    ]
    return cells, neighbors


def enumerate_tilings(
    region: Region, max_cells: int = DEFAULT_CELL_LIMIT
) -> Iterator[Tiling]:
    """Yield every tiling of ``region`` exactly once, in canonical order.

    A region with an odd number of cells yields nothing; the empty region
    yields the single empty tiling.
    """
    cells, neighbors = _prepare(region, max_cells)
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
                yield Tiling(frozenset((cells[i], cells[j]) for i, j in pairs))
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


def count_tilings(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> int:
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


def weighted_count(region: Region, max_cells: int = DEFAULT_CELL_LIMIT) -> Fraction:
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


def tiling_to_text(tiling: Tiling) -> str:
    """One rhombus per line: the two cells separated by ' | '."""
    lines = []
    for a, b in sorted(tiling.pairs):
        lines.append(
            f"{a.row2} {a.col} {a.orient} | {b.row2} {b.col} {b.orient}"
        )
    return "\n".join(lines)
