"""Triangular-grid geometry: hexagons, symmetry-axis rhombi, and half-regions.

Frame of reference
------------------
A semi-regular hexagon with side sequence (b, a, c, b, a, c) is drawn with
its two sides of length b vertical (far left and far right), the sides of
length a as the upper-left / lower-right slants and the sides of length c as
the upper-right / lower-left slants.  The triangular grid then consists of
left- and right-pointing unit triangles stacked in vertical strips.

A cell is addressed as ``Cell(row2, col, orient)``:

* ``col``    index of the vertical strip, 0-based, left to right;
* ``row2``   twice the height of the midpoint of the cell's vertical edge
             (doubling keeps every coordinate an integer);
* ``orient`` ``"right"`` when the vertical edge is the cell's left side
             (apex points right), ``"left"`` for the mirror image.

For the symmetric hexagons treated here (a == c == side_a, b == side_m) the
horizontal symmetry axis sits at ``row2 == side_m``.  The rhombi bisected by
the axis are exactly the adjacent left/right cell pairs with
``row2 == side_m``; position ``l`` counts them left to right.

A ``HexagonSpec`` is the one description of a hexagon: its literal sides,
with the paper's parity-normalized (n, m) read off them as properties, so
every function here takes the same value whether it needs the sides or
(n, m).  A ``Region`` is a bare cell set, plus the weight-1/2 axis pairs of a
lower half.  All values are immutable and all functions are pure.
"""

from __future__ import annotations

import enum
from operator import index
from typing import Iterable, NamedTuple, Optional


class Cell(NamedTuple):
    row2: int
    col: int
    orient: str


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class RegionKind(enum.Enum):
    FULL_HEXAGON = "full-hexagon"
    UPPER_TRIMMED = "upper-trimmed"
    LOWER_HALF = "lower-half"


class _Sides(NamedTuple):
    side_a: int
    side_m: int


class HexagonSpec(_Sides):
    """The hexagon with sides (side_a, side_m, side_a, side_a, side_m, side_a).

    ``parity``, ``n`` and ``m`` split the sides by the parity of side_m: even
    side_m = 2m keeps n = side_a, odd side_m = 2m-1 gives n = side_a - 1 (so
    side_a == 1 with odd side_m has no axis rhombus).  Either way there are n
    axis positions.  side_m == 0 is the degenerate hexagon, a parallelogram;
    the pentagons of offset 0 are cut from it.  Both sides are read through
    ``operator.index``, so a side that is not an integer (a float, say)
    raises ``TypeError`` and a ``bool`` is stored as an ``int``.
    """

    __slots__ = ()

    def __new__(cls, side_a: int, side_m: int):
        side_a, side_m = index(side_a), index(side_m)
        if side_a < 1:
            raise ValueError("side_a must be a positive integer")
        if side_m < 0:
            raise ValueError("side_m must be a nonnegative integer")
        return super().__new__(cls, side_a, side_m)

    @property
    def parity(self) -> Parity:
        return Parity.ODD if self.side_m % 2 else Parity.EVEN

    @property
    def n(self) -> int:
        return self.side_a - self.side_m % 2

    @property
    def m(self) -> int:
        return (self.side_m + 1) // 2


class Region(NamedTuple):
    """A concrete cell set.

    ``weighted_pairs`` lists the axis-rhombus cell pairs that count with
    weight 1/2 in weighted enumeration; it is nonempty only for lower halves.
    """

    cells: frozenset
    weighted_pairs: frozenset = frozenset()


class PathFamilySpec(NamedTuple):
    """Endpoints of the nonintersecting lattice-path family tied to a region.

    Points are (x, y) lattice points.  Paths take unit steps right, which
    raise x by 1, or down, which lower y by 1, so a path from (sx, sy) to
    (ex, ey) has ex - sx right and sy - ey down steps.
    ``half_weight_if_vertical_end[i]`` marks paths to ``ends[i]`` that count
    with weight 1/2 when their final step is vertical (down).
    """

    starts: tuple
    ends: tuple
    half_weight_if_vertical_end: tuple


def hexagon_cells(a: int, b: int, c: int) -> frozenset:
    """All unit-triangle cells of the hexagon with side sequence (b, a, c, b, a, c).

    Degenerate sides of length 0 are allowed; the cell set may then describe
    a parallelogram, triangle or the empty region.
    """
    if min(a, b, c) < 0:
        raise ValueError("hexagon sides must be nonnegative")
    # doubled heights of the top and bottom boundary on each vertical line
    top = [2 * b + (col if col <= a else 2 * a - col) for col in range(a + c + 1)]
    bot = [-(col if col <= c else 2 * c - col) for col in range(a + c + 1)]

    # tuple.__new__ builds each Cell without NamedTuple's Python-level __new__
    new = tuple.__new__
    cells = []
    for s in range(a + c):
        # right-pointing: vertical edge on column s, apex on column s+1, r2 + s odd
        lo = max(bot[s] + 1, bot[s + 1])
        cells += [new(Cell, (r2, s, "right"))
                  for r2 in range(lo + (lo + s + 1) % 2, min(top[s] - 1, top[s + 1]) + 1, 2)]
        # left-pointing: vertical edge on column s+1, apex on column s, r2 + s even
        lo = max(bot[s + 1] + 1, bot[s])
        cells += [new(Cell, (r2, s, "left"))
                  for r2 in range(lo + (lo + s) % 2, min(top[s + 1] - 1, top[s]) + 1, 2)]
    return frozenset(cells)


def axis_positions(spec: HexagonSpec) -> int:
    """Number of admissible axis-rhombus positions (always n)."""
    if spec.n == 0:
        raise ValueError("this hexagon has no rhombus on its symmetry axis")
    return spec.n


def _validate_axis(n: int, l: int) -> None:
    """The one rule for an axis position or path mark: 1 <= l <= n."""
    if not 1 <= l <= n:
        raise ValueError(f"axis position must satisfy 1 <= l <= {n}, got {l}")


def _check_mark(spec: HexagonSpec, kind: RegionKind, axis: Optional[int]) -> None:
    """The axis-mark rule of both :func:`build_region` and :func:`path_family`:
    LOWER_HALF requires a mark in 1..n, the other kinds take none."""
    if not isinstance(kind, RegionKind):
        raise ValueError(f"unknown region kind: {kind!r}")
    if kind is not RegionKind.LOWER_HALF:
        if axis is not None:
            raise ValueError("only lower regions take an axis mark")
    elif axis is None:
        raise ValueError("lower regions require the marked axis position")
    else:
        _validate_axis(axis_positions(spec), axis)


def axis_rhombus_cells(spec: HexagonSpec, l: int) -> tuple:
    """The two cells forming the l-th axis rhombus, left cell first.

    The left cell lies one strip left of the right one, so the pair is sorted
    in ``(row2, col, orient)`` order, which is how enumerated tilings store
    their pairs.  This single definition is shared by ``build_region`` and
    by the brute-force oracle, so the two can never disagree on indexing.
    """
    _validate_axis(axis_positions(spec), l)
    m_side = spec.side_m
    col = 2 * l - 1 if m_side % 2 == 0 else 2 * l
    return (Cell(m_side, col - 1, "left"), Cell(m_side, col, "right"))


def build_region(
    spec: HexagonSpec,
    kind: RegionKind,
    axis: Optional[int] = None,
) -> Region:
    """Construct the cell set for one of the three region kinds.

    * FULL_HEXAGON: every cell.
    * UPPER_TRIMMED: all cells strictly above the symmetry axis, less the two
      forced vertical end strips (even parity).  For odd parity the upper
      half has no forced strips, so it is kept whole.
    * LOWER_HALF:   all cells strictly below the axis, plus every cell ON the
      axis except the two forming the marked rhombus ``axis``.  The remaining
      axis rhombi become the weight-1/2 pairs.

    Only LOWER_HALF takes (and requires) the ``axis`` mark.
    """
    _check_mark(spec, kind, axis)
    a, m_side = spec.side_a, spec.side_m
    cells = hexagon_cells(a, m_side, a)

    if kind is RegionKind.FULL_HEXAGON:
        return Region(cells)

    if kind is RegionKind.UPPER_TRIMMED:
        ends = (0, 2 * a - 1) if spec.parity is Parity.EVEN else ()
        return Region(frozenset(c for c in cells if c.row2 > m_side and c.col not in ends))

    removed = set(axis_rhombus_cells(spec, axis))
    keep = {c for c in cells if c.row2 < m_side}
    keep.update(c for c in cells if c.row2 == m_side and c not in removed)
    pairs = frozenset(
        axis_rhombus_cells(spec, k)
        for k in range(1, axis_positions(spec) + 1)
        if k != axis
    )
    return Region(frozenset(keep), pairs)


def box_region(a: int, b: int, c: int) -> Region:
    """Full hexagon for an arbitrary a x b x c box (no symmetry assumed).

    ``box_region(a, b, a)`` has exactly the cells of
    ``build_region(HexagonSpec(a, b), RegionKind.FULL_HEXAGON)``: both are
    ``hexagon_cells(a, b, a)``.
    """
    return Region(hexagon_cells(a, b, c))


def pentagon_path_family(n: int, m: int) -> PathFamilySpec:
    """Path endpoints for the trimmed upper pentagon: path i runs from
    (i, i) to (i+m, 2i-n-1), i = 1..n, unweighted."""
    starts = tuple((i, i) for i in range(1, n + 1))
    ends = tuple((i + m, 2 * i - n - 1) for i in range(1, n + 1))
    return PathFamilySpec(starts, ends, (False,) * n)


def marked_path_family(n: int, m: int, marks: Iterable[int]) -> PathFamilySpec:
    """Path endpoints for the lower half-region whose axis rhombi at the
    positions in ``marks`` are fixed: path i runs from (i, i) to
    (i+m, 2i-n-1), i = 1..n.

    ``marks`` is a collection of path indices, each in 1..n.  A marked path
    ends one row higher, at (i+m, 2i-n), unweighted; every other path
    carries weight 1/2 when it ends with a vertical step.  One mark gives
    the lower half of :func:`path_family`; no marks and all n marks give
    the plain and the marked rows that every single-mark matrix draws on.
    """
    marks = frozenset(marks)
    for l in sorted(marks):
        _validate_axis(n, l)
    starts = tuple((i, i) for i in range(1, n + 1))
    ends = tuple(
        (i + m, 2 * i - n) if i in marks else (i + m, 2 * i - n - 1)
        for i in range(1, n + 1)
    )
    flags = tuple(i not in marks for i in range(1, n + 1))
    return PathFamilySpec(starts, ends, flags)


def box_path_family(a: int, b: int, c: int) -> PathFamilySpec:
    """Path endpoints for the hexagon with side sequence (b, a, c, b, a, c):
    path i runs from (-i, -i) to (b-i, -c-i), i = 0..a-1, unweighted.

    Each path takes b right and c down steps, so entry (i, j) of its path
    matrix is C(b+c, b-i+j), and its determinant is MacMahon's count of
    plane partitions in an a x b x c box (Gessel-Viennot).  a == 0 is the
    empty family.
    """
    if min(a, b, c) < 0:
        raise ValueError("box dimensions must be nonnegative")
    starts = tuple((-i, -i) for i in range(a))
    ends = tuple((b - i, -c - i) for i in range(a))
    return PathFamilySpec(starts, ends, (False,) * a)


def path_family(
    spec: HexagonSpec,
    kind: RegionKind,
    axis: Optional[int] = None,
) -> PathFamilySpec:
    """Lattice-path translation of ``build_region(spec, kind, axis)``: the
    full hexagon, the trimmed upper half and the marked lower half each have
    one, and take the axis mark by the same rule.  The lower half is
    ``marked_path_family(n, m, {axis})``, its one marked path."""
    _check_mark(spec, kind, axis)
    if kind is RegionKind.FULL_HEXAGON:
        return box_path_family(spec.side_a, spec.side_a, spec.side_m)
    if kind is RegionKind.UPPER_TRIMMED:
        if spec.parity is Parity.EVEN:
            return pentagon_path_family(spec.n - 1, spec.m)
        return pentagon_path_family(spec.n + 1, spec.m - 1)
    return marked_path_family(spec.n, spec.m, {axis})
