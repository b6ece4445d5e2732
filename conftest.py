"""Pin BLAS to one thread before any test module imports numpy.

As in ``bench/run.py``: the suite then runs the same LAPACK paths, in the
same time, whatever the machine's core count.  A value set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
