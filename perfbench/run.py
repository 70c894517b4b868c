"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``NAME`` is ``sweep``, ``serve``, ``fleet``, ``registry`` or ``all``.

Run from the repository root.  Prints a human-readable report, a ``record``
line (commit, host, versions, thread pin, iterations, digest) and, as the
last line, the JSON result ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Workloads and checks: ``perfbench/workloads.py``; tracing:
``perfbench/spans.py``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: error: no recpipe sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import THREAD_VARS

    # The load shape is one thread: pin BLAS/OpenMP pools before numpy loads,
    # and keep the process (and the interpreters it starts) on one CPU, so
    # the reference slices see the host speed the timed work sees.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from perfbench.bench import main

    sys.exit(main())
