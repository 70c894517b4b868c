"""Shared configuration for the benchmark harness.

Each claim benchmark checks a registry entry's claims from
``tests/claims.py`` (the blocking test job runs the same table) and prints
the regenerated rows and notes.

The perf benchmarks record ``BENCH_*.json`` trajectories.  A plain test run
writes them to a session temp dir, so it never rewrites the committed files;
to record into a chosen file (CI uploads the repo-root ones), set the file's
environment override (see ``_bench_io``).
"""

from __future__ import annotations

import os

import pytest
from _bench_io import CLUSTER_BENCH, ROUTER_BENCH, SIMULATOR_BENCH

# A failing claim shows the values it compared.
pytest.register_assert_rewrite("tests.claims")


@pytest.fixture(scope="session", autouse=True)
def bench_destinations(tmp_path_factory):
    """Point every unset ``BENCH_*.json`` override at a session temp dir."""
    directory = tmp_path_factory.mktemp("bench")
    with pytest.MonkeyPatch.context() as patch:
        for env_var, default in (ROUTER_BENCH, SIMULATOR_BENCH, CLUSTER_BENCH):
            if env_var not in os.environ:
                patch.setenv(env_var, str(directory / default.name))
        yield
