"""Calibration kernel that tracks the speed of a shared machine.

The speed of a shared machine drifts by tens of percent over tens of seconds,
in phases longer than a benchmark run.  A fixed kernel of interpreter work,
timed next to the measured work, tracks that drift to within a few percent.
The benchmark scales its times to a machine on which the kernel takes
CALIBRATION_REF_S, and reports the wall-clock values beside them.

This module imports nothing but ``gc`` and ``time``, so that the set-up probe
can use it without loading modules the program under test would load.
"""

import gc
import time

CALIBRATION_REF_S = 0.001
_GRID_ROWS, _GRID_COLS = 4, 7


def grid_matchings() -> int:
    """Perfect matchings (domino tilings) of a 4 x 7 grid graph, by the same
    kind of first-free-cell search as the tiling oracle."""
    n = _GRID_ROWS * _GRID_COLS
    right_or_down = [[j for j in ((i + 1) if (i + 1) % _GRID_COLS else None,
                                  (i + _GRID_COLS) if i + _GRID_COLS < n else None)
                      if j is not None] for i in range(n)]
    covered = bytearray(n)

    def rec(lo: int) -> int:
        while lo < n and covered[lo]:
            lo += 1
        if lo == n:
            return 1
        count = 0
        covered[lo] = 1
        for j in right_or_down[lo]:
            if not covered[j]:
                covered[j] = 1
                count += rec(lo + 1)
                covered[j] = 0
        covered[lo] = 0
        return count

    return rec(0)


def calibration_seconds() -> float:
    """Seconds taken by the calibration kernel.  The collector is off while
    it runs, so the size of the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        grid_matchings()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
