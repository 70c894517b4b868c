"""Equivalence suite: the closed-form analytic engine vs the event reference.

The analytic engine must reproduce the discrete-event schedule exactly (to
floating-point noise, ``atol=1e-9``) on every plan shape the platform
mappings produce: single- and multi-server stages, nonzero transfer delays,
sub-batch pipelining (``forward_fraction < 1``), and loads up to the
saturation threshold.  A property-style test covers random plans.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import PipelineConfig, Stage
from repro.models.zoo import RM_SMALL
from repro.serving import (
    ENGINES,
    PathTable,
    PipelinePlan,
    ServingPath,
    SimulationConfig,
    StageResource,
    analytic_latencies,
    event_latencies,
    simulate,
    simulated_p99,
)
from repro.serving.engine import fcfs_start_times, spawn_seeds
from repro.serving.service_times import CachedServiceConfig
from tests.conftest import draw_plan, live_reports
from tests.simulator_reference import ReferenceSimulator, reference_p99_column

ATOL = 1e-9


def poisson_arrivals(qps, num_queries=1500, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / qps, size=num_queries))


def assert_engines_agree(plan, qps, num_queries=1500, seed=0):
    arrivals = poisson_arrivals(qps, num_queries, seed)
    analytic = analytic_latencies(plan, arrivals)
    event = event_latencies(plan, arrivals)
    np.testing.assert_allclose(analytic, event, rtol=0, atol=ATOL)


def plan_of(*stages):
    return PipelinePlan(platform="test", stages=list(stages))


class TestClosedFormEquivalence:
    def test_single_server_single_stage(self):
        plan = plan_of(StageResource(name="s0", num_servers=1, service_seconds=1e-3))
        assert_engines_agree(plan, qps=700)

    def test_multi_server_single_stage(self):
        plan = plan_of(StageResource(name="s0", num_servers=6, service_seconds=1.3e-3))
        assert_engines_agree(plan, qps=3000)

    def test_multi_stage_with_transfer(self):
        plan = plan_of(
            StageResource(name="s0", num_servers=4, service_seconds=1e-3),
            StageResource(name="s1", num_servers=2, service_seconds=0.4e-3, transfer_seconds=2e-4),
            StageResource(name="s2", num_servers=1, service_seconds=0.15e-3, transfer_seconds=1e-4),
        )
        assert_engines_agree(plan, qps=2000)

    def test_sub_batch_pipelining(self):
        plan = plan_of(
            StageResource(name="s0", num_servers=4, service_seconds=2e-3, forward_fraction=0.25),
            StageResource(name="s1", num_servers=4, service_seconds=1.5e-3, forward_fraction=0.5),
            StageResource(name="s2", num_servers=2, service_seconds=0.8e-3),
        )
        assert_engines_agree(plan, qps=1200)

    def test_near_saturation(self):
        plan = plan_of(
            StageResource(name="s0", num_servers=2, service_seconds=1e-3),
            StageResource(name="s1", num_servers=1, service_seconds=0.45e-3),
        )
        qps = 0.97 * plan.throughput_capacity()
        assert_engines_agree(plan, qps=qps, num_queries=3000)

    def test_more_servers_than_queries(self):
        plan = plan_of(StageResource(name="s0", num_servers=64, service_seconds=1e-3))
        assert_engines_agree(plan, qps=500, num_queries=20)

    def test_zero_service_stage(self):
        plan = plan_of(
            StageResource(name="s0", num_servers=2, service_seconds=0.0),
            StageResource(name="s1", num_servers=2, service_seconds=1e-3),
        )
        assert_engines_agree(plan, qps=1000)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_plans(self, data):
        plan = draw_plan(data)
        load = data.draw(st.floats(0.2, 0.95, allow_nan=False), label="utilization")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        qps = load * plan.throughput_capacity()
        assert_engines_agree(plan, qps=qps, num_queries=800, seed=seed)


class TestFcfsKernel:
    def test_matches_scalar_lindley_recurrence(self):
        eligible = np.sort(np.random.default_rng(1).uniform(0, 0.1, size=200))
        service, servers = 2e-3, 3
        starts = fcfs_start_times(eligible, servers, service)
        expected = np.empty_like(eligible)
        for q, e in enumerate(eligible):
            prev = expected[q - servers] + service if q >= servers else -np.inf
            expected[q] = max(e, prev)
        np.testing.assert_allclose(starts, expected, rtol=0, atol=ATOL)

    def test_batched_rows_match_per_row(self):
        rng = np.random.default_rng(2)
        eligible = np.sort(rng.uniform(0, 0.05, size=(4, 300)), axis=1)
        batched = fcfs_start_times(eligible, 2, 1e-3)
        for row in range(eligible.shape[0]):
            np.testing.assert_array_equal(batched[row], fcfs_start_times(eligible[row], 2, 1e-3))


class TestGridPath:
    def plan(self):
        return plan_of(
            StageResource(name="s0", num_servers=4, service_seconds=1e-3),
            StageResource(name="s1", num_servers=2, service_seconds=0.5e-3, forward_fraction=0.5),
        )

    def test_grid_cells_match_per_cell_runs(self):
        """One shared unit draw scaled per QPS is bitwise the per-cell draw."""
        plan = self.plan()
        config = SimulationConfig(num_queries=1200, seed=9)
        qps_values = [300.0, 900.0, 1700.0]
        grid = live_reports(plan, qps_values, config)
        assert len(grid) == len(qps_values)
        for qps, from_grid in zip(qps_values, grid):
            (single,) = live_reports(plan, [qps], config)
            assert from_grid == single

    def test_event_grid_agrees_with_analytic_grid(self):
        plan = self.plan()
        qps_values = [250.0, 1000.0]
        analytic = live_reports(plan, qps_values, SimulationConfig(num_queries=800, seed=4))
        event = live_reports(
            plan, qps_values, SimulationConfig(num_queries=800, seed=4, engine="event")
        )
        assert len(analytic) == len(event) == len(qps_values)
        for a, e in zip(analytic, event):
            assert a.p99_latency == pytest.approx(e.p99_latency, abs=ATOL)
            assert a.mean_latency == pytest.approx(e.mean_latency, abs=ATOL)
            assert a.saturated == e.saturated

    def test_empty_grid(self):
        live, arrivals, latencies = simulate(self.plan(), [], SimulationConfig())
        assert live.size == arrivals.size == latencies.size == 0

    def test_grid_rejects_nonpositive_qps(self):
        with pytest.raises(ValueError):
            simulate(self.plan(), [100.0, 0.0], SimulationConfig())


class TestSimulateMatchesReference:
    """``simulate`` and the router's dwell cells equal the per-load reference exactly."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_live_mask_reports_and_dwell_cells(self, data):
        plan = draw_plan(data)
        utilizations = data.draw(
            st.lists(st.floats(0.1, 1.3, allow_nan=False) | st.just(0.98), min_size=1, max_size=5),
            label="utilizations",
        )
        qps_values = [u * plan.throughput_capacity() for u in utilizations]
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        config = SimulationConfig(
            num_queries=300,
            warmup_queries=30,
            seed=seed,
            engine=data.draw(st.sampled_from(ENGINES), label="engine"),
            service=data.draw(st.sampled_from([None, CachedServiceConfig()]), label="service"),
        )
        reference = ReferenceSimulator(plan, config)
        expected = [reference.run(qps) for qps in qps_values]

        live, _, _ = simulate(plan, qps_values, config)
        assert live.tolist() == [not report.saturated for report in expected]
        assert live_reports(plan, qps_values, config) == [
            report for report in expected if not report.saturated
        ]

        pipeline = PipelineConfig((Stage(RM_SMALL, 128),), serve_k=64)
        path = ServingPath(platform="test", pipeline=pipeline, plan=plan, quality=90.0)
        table = PathTable(
            paths=[path, path],
            qps_grid=(1.0, 2.0),
            p99_grid=np.zeros((2, 2)),
            sla_seconds=1.0,
            simulation=config,
            seed=seed,
        )
        for index, path_seed in enumerate(spawn_seeds(seed, 2)):
            for qps, report in zip(qps_values, expected):
                dwell = table.dwell_latencies(index, qps)
                if report.saturated:
                    assert dwell is None
                else:
                    _, full = reference.simulate(qps, seed=path_seed)
                    np.testing.assert_array_equal(dwell, full[config.warmup_queries :])


class TestSimulatedP99:
    """``simulated_p99`` is the parent's report step, ``inf`` exactly where saturated."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_the_report_step_and_the_saturation_rule(self, data):
        plan = draw_plan(data)
        utilizations = data.draw(
            st.lists(st.floats(0.1, 1.3, allow_nan=False) | st.just(0.98), min_size=1, max_size=5),
            label="utilizations",
        )
        qps_values = [u * plan.throughput_capacity() for u in utilizations]
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        config = SimulationConfig(
            num_queries=300,
            warmup_queries=30,
            seed=data.draw(st.integers(0, 2**32 - 1), label="config_seed"),
            engine=data.draw(st.sampled_from(ENGINES), label="engine"),
            service=data.draw(st.sampled_from([None, CachedServiceConfig()]), label="service"),
        )
        override = data.draw(st.sampled_from([None, seed]), label="override")

        p99 = simulated_p99(plan, qps_values, config, seed=override)
        assert p99.shape == (len(qps_values),)
        assert p99.tolist() == reference_p99_column(plan, qps_values, config, seed=override)
        assert np.isinf(p99).tolist() == [config.saturated(plan, q) for q in qps_values]
        reference = ReferenceSimulator(plan, config)
        for qps, value in zip(qps_values, p99.tolist()):
            if not config.saturated(plan, qps):
                assert value == reference.run(qps, seed=override).p99_latency

    def test_all_saturated_column_is_all_inf(self):
        plan = plan_of(StageResource("s", num_servers=1, service_seconds=0.01))
        p99 = simulated_p99(plan, [200.0, 500.0], SimulationConfig.with_budget(100))
        assert p99.tolist() == [float("inf")] * 2


class TestEngineSelection:
    def test_analytic_is_the_default(self):
        assert SimulationConfig().engine == "analytic"
        assert SimulationConfig.with_budget(500).engine == "analytic"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SimulationConfig(engine="quantum")

    def test_seed_override_changes_noise_deterministically(self):
        plan = plan_of(StageResource(name="s0", num_servers=2, service_seconds=1e-3))
        config = SimulationConfig(num_queries=600, seed=0)
        assert live_reports(plan, [1500], config, seed=11) == live_reports(
            plan, [1500], config, seed=11
        )
        assert live_reports(plan, [1500], config, seed=11) != live_reports(
            plan, [1500], config, seed=12
        )

    def test_analytic_speedup_smoke(self):
        """Blocking CI floor: the closed form is >=10x the event loop."""
        plan = plan_of(
            StageResource(name="s0", num_servers=8, service_seconds=0.8e-3),
            StageResource(name="s1", num_servers=4, service_seconds=1.2e-3, forward_fraction=0.25),
            StageResource(name="s2", num_servers=2, service_seconds=0.9e-3, transfer_seconds=5e-5),
        )
        arrivals = poisson_arrivals(qps=1800, num_queries=4000, seed=0)

        def best_of(fn, repeats=3):
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn(plan, arrivals)
                timings.append(time.perf_counter() - start)
            return min(timings)

        analytic_latencies(plan, arrivals)  # warm the numpy kernels once
        speedup = best_of(event_latencies) / best_of(analytic_latencies)
        assert speedup >= 10.0, f"analytic engine only {speedup:.1f}x faster"
