"""Test-session settings, read before any test module loads numpy."""

import os

# One BLAS thread, as the CLI sets it (``latentservo.cli``): the suite's
# small matrices run no faster on two, and slower on a busy core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
