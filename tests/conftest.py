import os
import sys

# Allow running the tests straight from a checkout, without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from hypothesis import settings  # noqa: E402

# Property tests draw the same examples on every run, so the suite stays
# deterministic; examples are never saved between runs.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
