"""Set-up probe, run in a fresh interpreter.

Prints two numbers: the seconds from before ``import hextiling`` to a built
``cli.build_parser()``, and then the median of five runs of the calibration
kernel in the same interpreter.

Usage: python3 -I perfbench/probe.py SRC_DIR
"""

import os
import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import hextiling.cli  # noqa: E402

hextiling.cli.build_parser()
setup = time.perf_counter() - t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calibration import calibration_seconds  # noqa: E402

kernel = sorted(calibration_seconds() for _ in range(5))[2]
print(repr(setup), repr(kernel))
