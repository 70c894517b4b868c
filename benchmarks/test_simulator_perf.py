"""Benchmark: closed-form analytic engine vs the discrete-event reference.

Two measurements back the sweep-scale performance claims:

* **engine kernels** -- one :class:`~repro.serving.resources.PipelinePlan`
  per stage count, simulated across a QPS column by the discrete-event
  reference and by the closed-form analytic engine
  (:mod:`repro.serving.engine`), reporting wall-clock, cells/sec, the
  speedup, and the maximum p99 divergence between the engines;
* **end-to-end sweep** -- one ``recpipe sweep --platform all``-shaped
  :func:`repro.core.sweep.run_sweep` invocation per engine, reporting the
  wall-clock ratio of the full sweep (quality memoization and cross-sections
  included).

Both land in the ``simulator_engines`` section of ``BENCH_simulator.json``
so future PRs can regress against the trajectory.  The acceptance floors:
>=10x on the engine kernels, >=5x on the full multi-platform sweep, with
the engines agreeing to 1e-9.

A second section tracks the stochastic service-time path: the same QPS
column under the cached service model, recording the sampling overhead over
the deterministic column and the analytic-vs-event ratio with per-query
service vectors in play (the per-lane closed form stays exact but loses
some of its batching advantage to the round-robin dispatch).
"""

import platform as platform_module
import time
from dataclasses import replace

import numpy as np
from _bench_io import SIMULATOR_BENCH, bench_path, record_bench, report

from repro.core.sweep import PLATFORMS, SweepConfig, run_sweep
from repro.data import CriteoConfig, CriteoSynthetic
from repro.experiments.common import ExperimentResult
from repro.models.zoo import criteo_model_specs
from repro.quality import QualityEvaluator
from repro.serving.metrics import LatencyReport
from repro.serving.resources import PipelinePlan, StageResource
from repro.serving.service_times import CachedServiceConfig
from repro.serving.simulator import SimulationConfig, simulate

#: QPS column every engine kernel is timed over.
QPS_GRID = (200.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0)


def reference_plan(num_stages: int = 3) -> PipelinePlan:
    """A Criteo-funnel-shaped plan: wide cheap frontend, narrow heavy backend."""
    stages = [
        StageResource(name="frontend", num_servers=8, service_seconds=0.8e-3),
        StageResource(
            name="middle",
            num_servers=4,
            service_seconds=1.2e-3,
            forward_fraction=0.25,
            transfer_seconds=5e-5,
        ),
        StageResource(
            name="backend",
            num_servers=2,
            service_seconds=0.9e-3,
            forward_fraction=0.5,
            transfer_seconds=5e-5,
        ),
    ][:num_stages]
    return PipelinePlan(platform="bench", stages=stages, description=f"{num_stages}-stage bench")


def _time_column(plan: PipelinePlan, config: SimulationConfig, repeats: int) -> tuple[float, list]:
    """Best-of-``repeats`` wall-clock of one full QPS column, plus the reports."""
    best = float("inf")
    reports = None
    for _ in range(repeats):
        start = time.perf_counter()
        live, arrivals, latencies = simulate(plan, QPS_GRID, config)
        offered = [qps for qps, ok in zip(QPS_GRID, live) if ok]
        reports = LatencyReport.from_latencies(latencies, arrivals, offered, [False] * len(offered))
        best = min(best, time.perf_counter() - start)
    return best, reports


def measure_engines(num_queries: int = 4000, repeats: int = 3, seed: int = 0) -> list[dict]:
    """Per-plan engine comparison: wall-clock, cells/sec, speedup, divergence."""
    rows = []
    for num_stages in (1, 2, 3):
        plan = reference_plan(num_stages)
        event_cfg = SimulationConfig.with_budget(num_queries, seed=seed, engine="event")
        analytic_cfg = replace(event_cfg, engine="analytic")
        event_seconds, event_reports = _time_column(plan, event_cfg, repeats)
        analytic_seconds, analytic_reports = _time_column(plan, analytic_cfg, repeats)
        divergence = max(
            abs(e.p99_latency - a.p99_latency) for e, a in zip(event_reports, analytic_reports)
        )
        rows.append(
            {
                "plan": plan.description,
                "num_stages": num_stages,
                "num_queries": num_queries,
                "qps_points": len(QPS_GRID),
                "event_seconds": event_seconds,
                "analytic_seconds": analytic_seconds,
                "speedup": event_seconds / analytic_seconds,
                "event_cells_per_second": len(QPS_GRID) / event_seconds,
                "analytic_cells_per_second": len(QPS_GRID) / analytic_seconds,
                "max_p99_abs_diff": divergence,
            }
        )
    return rows


def _bench_evaluator(pool: int = 256) -> QualityEvaluator:
    """A tiny quality workload so the sweep timing is simulation-dominated."""
    queries = CriteoSynthetic(CriteoConfig(table_size=400)).sample_ranking_queries(
        2, candidates_per_query=pool
    )
    return QualityEvaluator(queries)


def measure_sweep(num_queries: int = 4000, seed: int = 0) -> dict:
    """Wall-clock of one ``--platform all`` sweep per engine, end to end."""
    timings = {}
    cells = None
    for engine in ("event", "analytic"):
        config = SweepConfig(
            platforms=PLATFORMS,
            qps=(100.0, 200.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0, 2500.0),
            first_stage_items=(2048,),
            later_stage_items=(128, 512),
            max_stages=2,
            num_queries=num_queries,
            seed=seed,
            engine=engine,
        )
        start = time.perf_counter()
        outcome = run_sweep(_bench_evaluator(), criteo_model_specs(), config)
        timings[engine] = time.perf_counter() - start
        cells = len(config.cells()) * len(outcome.pipelines)
    return {
        "platforms": list(PLATFORMS),
        "num_queries": num_queries,
        "grid_cells": cells,
        "event_seconds": timings["event"],
        "analytic_seconds": timings["analytic"],
        "speedup": timings["event"] / timings["analytic"],
        "event_cells_per_second": cells / timings["event"],
        "analytic_cells_per_second": cells / timings["analytic"],
    }


def measure(num_queries: int = 4000, repeats: int = 3, seed: int = 0) -> dict:
    """The full ``simulator_engines`` payload: engine kernels + sweep."""
    return {
        "python": platform_module.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
        "engines": measure_engines(num_queries=num_queries, repeats=repeats, seed=seed),
        "sweep": measure_sweep(num_queries=num_queries, seed=seed),
    }


def test_simulator_engine_speedup():
    payload = measure()
    path = record_bench(SIMULATOR_BENCH, "simulator_engines", payload)
    result = ExperimentResult(name="simulator_engines")
    for row in (*payload["engines"], payload["sweep"]):
        result.add(**{key: value for key, value in row.items() if key != "platforms"})
    result.note(f"perf trajectory recorded to {path}")
    report(result)
    assert bench_path(SIMULATOR_BENCH).exists()

    engine_rows = payload["engines"]
    assert {row["num_stages"] for row in engine_rows} == {1, 2, 3}
    # The engines agree on every plan; the closed form is far faster.
    for row in engine_rows:
        assert row["max_p99_abs_diff"] <= 1e-9
        assert row["analytic_cells_per_second"] > row["event_cells_per_second"]
    three_stage = next(row for row in engine_rows if row["num_stages"] == 3)
    assert three_stage["speedup"] >= 10.0

    # End-to-end `recpipe sweep --platform all`-shaped run: >=5x wall-clock.
    sweep_row = payload["sweep"]
    assert sweep_row["speedup"] >= 5.0


def test_stochastic_grid_throughput():
    """The cached-service grid column: overhead, speedup and divergence."""
    num_queries, repeats = 4000, 3
    plan = reference_plan(3)
    deterministic_cfg = SimulationConfig.with_budget(num_queries, seed=0)
    cached_cfg = replace(deterministic_cfg, service=CachedServiceConfig())

    _time_column(plan, deterministic_cfg, 1)  # warm caches
    deterministic_seconds, _ = _time_column(plan, deterministic_cfg, repeats)
    analytic_seconds, analytic_reports = _time_column(plan, cached_cfg, repeats)
    event_seconds, event_reports = _time_column(plan, replace(cached_cfg, engine="event"), repeats)

    divergence = max(
        abs(e.p99_latency - a.p99_latency)
        for e, a in zip(event_reports, analytic_reports)
    )
    # The engine-oracle guarantee holds at benchmark scale too.
    assert divergence <= 1e-9
    speedup = event_seconds / analytic_seconds
    sampling_overhead = analytic_seconds / deterministic_seconds
    # With per-query service vectors the closed form runs per lane instead of
    # one batched column, so the margin narrows — but it must stay a win.
    assert speedup >= 2.0
    assert sampling_overhead <= 30.0

    qps_points = len(QPS_GRID)
    payload = {
        "plan": plan.description,
        "num_queries": num_queries,
        "qps_points": qps_points,
        "repeats": repeats,
        "deterministic_analytic_seconds": deterministic_seconds,
        "analytic_seconds": analytic_seconds,
        "event_seconds": event_seconds,
        "speedup": speedup,
        "sampling_overhead": sampling_overhead,
        "analytic_cells_per_second": qps_points / analytic_seconds,
        "event_cells_per_second": qps_points / event_seconds,
        "max_p99_abs_diff": divergence,
    }
    path = record_bench(SIMULATOR_BENCH, "stochastic_service", payload)
    print(
        f"\nstochastic grid: analytic {analytic_seconds * 1e3:.1f} ms vs event "
        f"{event_seconds * 1e3:.1f} ms ({speedup:.1f}x, sampling overhead "
        f"{sampling_overhead:.1f}x over deterministic) -> {path}"
    )
