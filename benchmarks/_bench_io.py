"""Shared output helpers for the benchmark suite: ``BENCH_*.json`` IO and :func:`report`.

The benchmark files import these from here, not from ``conftest``: a
package-less ``conftest.py`` is imported as the top-level module
``conftest``, which ``tests/conftest.py`` is too, so one pytest call over
both directories would resolve ``from conftest import ...`` to whichever
loaded last.

Three trajectory files, each addressed by an ``(env var, default path)``
pair so CI can redirect them individually:

* :data:`ROUTER_BENCH`    -- ``BENCH_router.json`` (router + frontend perf),
* :data:`SIMULATOR_BENCH` -- ``BENCH_simulator.json`` (engine kernels + sweep),
* :data:`CLUSTER_BENCH`   -- ``BENCH_cluster.json`` (capacity sweep + gather).

Every writer funnels through
:func:`repro.experiments.artifacts.merge_json_section`, a read-modify-write
that merges one section at a time, so tests recording to the same file never
clobber each other's sections.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.artifacts import merge_json_section

#: (environment override, default path) per trajectory file.
ROUTER_BENCH = ("RECPIPE_BENCH_ROUTER_PATH", Path("BENCH_router.json"))
SIMULATOR_BENCH = ("RECPIPE_BENCH_PATH", Path("BENCH_simulator.json"))
CLUSTER_BENCH = ("RECPIPE_BENCH_CLUSTER_PATH", Path("BENCH_cluster.json"))


def bench_path(bench: tuple[str, Path]) -> Path:
    """The trajectory destination, honouring the bench's env override."""
    env_var, default = bench
    return Path(os.environ.get(env_var, default))


def record_bench(bench: tuple[str, Path], section: str, payload: dict) -> Path:
    """Merge one section into the bench's trajectory file."""
    return merge_json_section(bench_path(bench), section, payload)


def report(result) -> None:
    """Print the regenerated table under the benchmark output."""
    print()
    print(result.format_table())
