"""Exact enumeration of rhombus tilings of semi-regular hexagons.

The package counts tilings of hexagons with sides (a, m, a, a, m, a) and all
angles 120 degrees: totals, counts constrained to contain a fixed rhombus on
the symmetry axis, and the proportion between the two.  Every route to a
number is implemented at least twice -- closed forms, determinants of
lattice-path matrices, and a brute-force oracle that counts perfect matchings
with a frontier dynamic program and enumerates them by search -- and the
test suite cross-checks them against each other exactly.
"""

from .exact import (
    Polynomial,
    SingularParameterError,
    binomial,
    double_factorial,
    extend_backwards,
    hypergeometric_partial_sums,
    hypergeometric_sum,
    shifted_factorial,
)
from .hexagon import (
    Cell,
    HexagonSpec,
    Parity,
    PathFamilySpec,
    Region,
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
from .matrices import (
    determinant,
    marked_row_determinants,
    path_matrix,
    reduced_prefactor,
    reduced_samples,
)
from .formulas import (
    arcsine_limit,
    axis_sum,
    central_axis_closed_form,
    central_axis_sum,
    central_sum_recurrence_residue,
    fixed_count,
    fixed_count_even,
    fixed_count_odd,
    lower_weighted_closed_forms,
    macmahon_count,
    proportion,
    proportion_balanced_form,
    proportion_nm,
    proportion_series_forms,
    reduced_poly_special_values,
    upper_count_closed_form,
)
from .oracle import (
    DEFAULT_CELL_LIMIT,
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

__version__ = "0.1.0"
