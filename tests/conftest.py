import os
import sys

# one BLAS thread, as benchmarks/run.py pins: a threaded BLAS on a small
# machine can stay in a slow mode for a whole process and run the dense
# oracles a hundred times slower.  The library reads these when it loads
assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread variables were set"
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"

from hypothesis import settings

# derandomized and deadline-free so that the property tests draw the same
# examples on every run and never fail on a slow machine
settings.register_profile("blockspin", derandomize=True, deadline=None, max_examples=12)
settings.load_profile("blockspin")
