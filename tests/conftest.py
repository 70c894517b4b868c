"""Shared serving-test fixtures: synthetic tables, compiled tables, traces.

The synthetic two-path table (``make_table``) and its helpers used to live
in ``tests/test_router.py``; they moved here so the router, frontend and
estimator suites all compile tables the same way.  ``tests/test_router.py``
re-exports the helpers, so ``from tests.test_router import make_table``
keeps working for older call sites.

Fixtures
--------
``synthetic_table``
    The session-shared hq/fast :class:`PathTable` for read-only tests.
``criteo_workload``
    ``(scheduler, pipelines)`` over the synthetic Criteo workload, the
    input every compiled-table test starts from.
``compiled_table``
    A small real compiled table whose top path saturates inside the grid.
``scenario_traces``
    The diurnal / spike / ramp traces the serving experiments replay.

Helpers
-------
``draw_plan``
    A hypothesis-drawn 1–3-stage plan (servers, service time, forward
    fraction and transfer all vary).
``live_reports``
    One :class:`LatencyReport` per live load of a ``simulate`` call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.pipeline import PipelineConfig, Stage, enumerate_pipelines
from repro.core.scheduler import RecPipeScheduler
from repro.data import CriteoConfig, CriteoSynthetic
from repro.models.zoo import RM_LARGE, RM_SMALL, criteo_model_specs
from repro.quality import QualityEvaluator
from repro.serving.metrics import LatencyReport
from repro.serving.resources import PipelinePlan, StageResource
from repro.serving.router import PathTable, ServingPath
from repro.serving.simulator import SimulationConfig, simulate
from repro.serving.trace import LoadTrace

# A failing claim shows the values it compared.
pytest.register_assert_rewrite("tests.claims")


def draw_plan(data, max_stages=3) -> PipelinePlan:
    num_stages = data.draw(st.integers(1, max_stages), label="num_stages")
    stages = [
        StageResource(
            name=f"s{index}",
            num_servers=data.draw(st.integers(1, 8), label=f"servers{index}"),
            service_seconds=data.draw(
                st.floats(1e-4, 5e-3, allow_nan=False), label=f"service{index}"
            ),
            forward_fraction=data.draw(
                st.floats(0.1, 1.0, allow_nan=False), label=f"forward{index}"
            ),
            transfer_seconds=data.draw(
                st.floats(0.0, 5e-4, allow_nan=False), label=f"transfer{index}"
            ),
        )
        for index in range(num_stages)
    ]
    return PipelinePlan(platform="test", stages=stages)


def live_reports(plan, qps_values, config, seed=None) -> list[LatencyReport]:
    """Reports of the loads ``simulate`` finds live, in order (saturated ones dropped)."""
    live, arrivals, latencies = simulate(plan, qps_values, config, seed=seed)
    offered = [float(qps) for qps, ok in zip(qps_values, live) if ok]
    return LatencyReport.from_latencies(latencies, arrivals, offered, [False] * len(offered))


# --------------------------------------------------------------------------- #
# Synthetic two-path table: a high-quality path that saturates at ~3.1k QPS
# and a fast lower-quality path with ample headroom.
# --------------------------------------------------------------------------- #
GRID = (100.0, 1000.0, 2000.0, 3000.0, 5000.0)
HQ_ROW = (0.010, 0.0102, 0.0105, 0.011, float("inf"))
FAST_ROW = (0.002, 0.002, 0.002, 0.002, 0.002)


def make_path(platform: str, model, service_ms: float, servers: int, quality: float):
    pipeline = PipelineConfig((Stage(model, 128),), serve_k=64)
    plan = PipelinePlan(
        platform=platform,
        stages=[
            StageResource(
                name=f"{platform}:stage",
                num_servers=servers,
                service_seconds=service_ms * 1e-3,
            )
        ],
    )
    return ServingPath(platform=platform, pipeline=pipeline, plan=plan, quality=quality)


def make_table(quality_target=None, sla_ms=25.0, **kwargs) -> PathTable:
    hq = make_path("cpu", RM_LARGE, service_ms=10.0, servers=32, quality=98.0)
    fast = make_path("cpu", RM_SMALL, service_ms=2.0, servers=32, quality=95.0)
    return PathTable(
        paths=[hq, fast],
        qps_grid=GRID,
        p99_grid=np.array([HQ_ROW, FAST_ROW]),
        sla_seconds=sla_ms / 1e3,
        quality_target=quality_target,
        simulation=SimulationConfig(num_queries=600, warmup_queries=60),
        **kwargs,
    )


def flat_trace(qps: float, num_steps: int = 20, step_seconds: float = 10.0) -> LoadTrace:
    return LoadTrace("flat", step_seconds, np.full(num_steps, float(qps)))


@pytest.fixture(scope="session")
def synthetic_table() -> PathTable:
    """One shared hq/fast table for tests that only read from it."""
    return make_table()


@pytest.fixture(scope="session")
def criteo_workload():
    """Scheduler + enumerated pipelines over the synthetic Criteo workload."""
    queries = CriteoSynthetic(CriteoConfig(table_size=400)).sample_ranking_queries(
        3, candidates_per_query=512
    )
    evaluator = QualityEvaluator(queries)
    scheduler = RecPipeScheduler(evaluator, simulation=SimulationConfig.with_budget(300, seed=0))
    pipelines = enumerate_pipelines(
        criteo_model_specs(),
        first_stage_items=(512,),
        later_stage_items=(128,),
        max_stages=2,
        serve_k=64,
    )
    return scheduler, pipelines


@pytest.fixture(scope="session")
def compiled_table(criteo_workload) -> PathTable:
    """A small real compiled table whose top path saturates inside the grid."""
    scheduler, pipelines = criteo_workload
    return PathTable.compile(
        scheduler, pipelines, ("cpu",), (250.0, 1000.0, 4000.0, 8000.0), sla_ms=25.0, seed=0
    )


@pytest.fixture(scope="session")
def scenario_traces() -> list[LoadTrace]:
    """The diurnal / spike / ramp traces the packaged serving scenarios replay."""
    from repro.experiments.registry import packaged_scenario
    from repro.scenarios.runner import build_trace

    params = packaged_scenario("router").expand()[0].params
    return [build_trace(params, item, seed=0) for item in params["trace"]]
