"""Benchmark of the ``recpipe`` CLI.

Cold-start workloads, host-time metrics, output checks and a traced
per-layer breakdown.  Entry point: ``run.py``.
"""

#: Environment variables that pin BLAS/OpenMP pools to one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
