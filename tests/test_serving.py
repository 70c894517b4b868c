"""Tests for the at-scale serving simulator (repro.serving)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    LatencyReport,
    PipelinePlan,
    SimulationConfig,
    StageResource,
    simulate,
)
from repro.serving.metrics import percentile_is_infinite, weighted_percentile
from tests.conftest import live_reports


def run(plan, qps, config=None, seed=None) -> LatencyReport:
    """The report of one live load (fails if ``simulate`` finds it saturated)."""
    (report,) = live_reports(plan, [qps], config or SimulationConfig(), seed=seed)
    return report


def single_stage_plan(service=1e-3, servers=4):
    return PipelinePlan(
        platform="test",
        stages=[StageResource(name="s0", num_servers=servers, service_seconds=service)],
    )


def two_stage_plan(s0=1e-3, s1=0.5e-3, forward=1.0):
    return PipelinePlan(
        platform="test",
        stages=[
            StageResource(name="s0", num_servers=4, service_seconds=s0, forward_fraction=forward),
            StageResource(name="s1", num_servers=4, service_seconds=s1),
        ],
    )


class TestResources:
    def test_stage_capacity(self):
        stage = StageResource(name="x", num_servers=8, service_seconds=2e-3)
        assert stage.throughput_capacity == pytest.approx(4000.0)

    def test_plan_requires_stages(self):
        with pytest.raises(ValueError):
            PipelinePlan(platform="p", stages=[])

    def test_unloaded_latency_serial(self):
        plan = two_stage_plan(1e-3, 0.5e-3, forward=1.0)
        assert plan.unloaded_latency() == pytest.approx(1.5e-3)

    def test_unloaded_latency_pipelined(self):
        plan = two_stage_plan(1e-3, 0.5e-3, forward=0.25)
        # The backend starts at 0.25 ms and finishes at 0.75 ms, but the
        # frontend itself runs until 1.0 ms, which bounds the latency.
        assert plan.unloaded_latency() == pytest.approx(1e-3)

    def test_transfer_adds_latency(self):
        plan = PipelinePlan(
            platform="p",
            stages=[
                StageResource(name="a", num_servers=1, service_seconds=1e-3),
                StageResource(
                    name="b", num_servers=1, service_seconds=1e-3, transfer_seconds=2e-3
                ),
            ],
        )
        assert plan.unloaded_latency() == pytest.approx(4e-3)

    def test_bottleneck_capacity(self):
        plan = two_stage_plan(1e-3, 4e-3)
        assert plan.throughput_capacity() == pytest.approx(1000.0)

    def test_utilization(self):
        plan = single_stage_plan(service=1e-3, servers=2)
        assert plan.utilization(1000) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            StageResource(name="x", num_servers=0, service_seconds=1e-3)
        with pytest.raises(ValueError):
            StageResource(name="x", num_servers=1, service_seconds=1e-3, forward_fraction=0.0)


class TestSimulator:
    def test_low_load_latency_close_to_unloaded(self):
        plan = single_stage_plan(service=1e-3, servers=8)
        report = run(plan, 100, SimulationConfig(num_queries=2000, seed=1))
        assert report.p50_latency == pytest.approx(1e-3, rel=0.05)
        assert report.p99_latency < 2e-3

    def test_latency_grows_with_load(self):
        plan = single_stage_plan(service=1e-3, servers=4)
        cfg = SimulationConfig(num_queries=3000, seed=2)
        low = run(plan, 500, cfg).p99_latency
        high = run(plan, 3500, cfg).p99_latency
        assert high > low

    def test_saturation_flagged(self):
        plan = single_stage_plan(service=1e-3, servers=1)
        config = SimulationConfig(num_queries=1500, seed=0)
        assert config.saturated(plan, 2000)
        live, arrivals, latencies = simulate(plan, [2000], config)
        assert live.tolist() == [False]
        assert arrivals.shape == latencies.shape == (0, 1500 - config.warmup_queries)

    def test_deterministic_given_seed(self):
        plan = two_stage_plan()
        a = run(plan, 300, SimulationConfig(num_queries=1000, seed=5))
        b = run(plan, 300, SimulationConfig(num_queries=1000, seed=5))
        assert a.p99_latency == b.p99_latency

    def test_pipelined_plan_lower_latency_under_load(self):
        serial = two_stage_plan(2e-3, 2e-3, forward=1.0)
        pipelined = two_stage_plan(2e-3, 2e-3, forward=0.25)
        cfg = SimulationConfig(num_queries=2000, seed=3)
        assert run(pipelined, 500, cfg).p99_latency <= run(serial, 500, cfg).p99_latency

    def test_more_servers_sustain_more_load(self):
        few = single_stage_plan(service=2e-3, servers=2)
        many = single_stage_plan(service=2e-3, servers=16)
        cfg = SimulationConfig(num_queries=2000, seed=4)
        qps = 900
        assert cfg.saturated(few, qps) or (
            run(many, qps, cfg).p99_latency < run(few, qps, cfg).p99_latency
        )

    def test_invalid_qps(self):
        with pytest.raises(ValueError):
            simulate(single_stage_plan(), [0], SimulationConfig())

    def test_run_grid_matches_individual_runs(self):
        # One arrival draw for the whole column reproduces per-load calls.
        plan = single_stage_plan(service=1e-3, servers=2)
        config = SimulationConfig(num_queries=800, seed=8)
        reports = live_reports(plan, [400, 1200], config)
        assert reports == [run(plan, 400, config), run(plan, 1200, config)]

    def test_event_engine_available_as_reference(self):
        plan = two_stage_plan()
        config = SimulationConfig(num_queries=800, seed=5, engine="event")
        report = run(plan, 400, config)
        analytic = run(plan, 400, SimulationConfig(num_queries=800, seed=5))
        assert report.p99_latency == pytest.approx(analytic.p99_latency, abs=1e-9)


class TestMetrics:
    @staticmethod
    def report(latencies, arrivals=None) -> LatencyReport:
        latencies = np.asarray(latencies, dtype=np.float64)
        if arrivals is None:
            arrivals = np.zeros_like(latencies)
        (report,) = LatencyReport.from_latencies(
            latencies[None, :], np.asarray(arrivals)[None, :], offered_qps=[1.0], saturated=[False]
        )
        return report

    def test_makespan_runs_to_last_completion_not_last_arrival(self):
        # The middle query is the last to complete: the span must cover its
        # completion (1 + 5 = 6), not the final arrival's (2 + 0.5 = 2.5).
        report = self.report([0.5, 5.0, 0.5], arrivals=[0.0, 1.0, 2.0])
        assert report.achieved_qps == pytest.approx(3 / 6.0)

    def test_makespan_empty_window(self):
        # An empty window has no makespan to report.
        with pytest.raises(ValueError, match="zero completed queries"):
            self.report(np.array([]))

    def test_makespan_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatencyReport.from_latencies(
                np.array([[0.5]]), np.array([[0.0, 1.0]]), offered_qps=[1.0], saturated=[False]
            )

    def test_simulated_achieved_qps_tracks_offered_load(self):
        plan = single_stage_plan(service=1e-3, servers=8)
        report = run(plan, 1000, SimulationConfig(num_queries=4000, seed=7))
        assert report.achieved_qps == pytest.approx(1000, rel=0.1)

    def test_report_from_latencies(self):
        # 100 queries whose last completion lands 10 s after the first arrival.
        arrivals = np.linspace(0.0, 10.0 - 1e-3, 100)
        (report,) = LatencyReport.from_latencies(
            np.full((1, 100), 1e-3), arrivals[None, :], offered_qps=[10], saturated=[False]
        )
        assert report.offered_qps == 10
        assert report.num_queries == 100
        assert report.achieved_qps == pytest.approx(10.0)
        assert report.p99_latency == pytest.approx(1e-3)
        assert not report.saturated

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_percentiles_ordered(self, values):
        report = self.report(values)
        assert report.p50_latency <= report.p95_latency <= report.p99_latency
        assert report.p99_latency <= report.max_latency == max(values)


class TestPercentileIsInfinite:
    """The mass-first check never reports ``inf`` where the pooled percentile is finite."""

    @given(
        finite=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=60),
        infinite=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=4),
        near_boundary=st.booleans(),
        ulps=st.integers(min_value=-(2**12), max_value=2**12),
        q=st.sampled_from([50.0, 90.0, 99.0, 99.9, 100.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_reported_inf_is_what_the_pool_returns(
        self, finite, infinite, near_boundary, ulps, q, seed
    ):
        finite_mass = sum(finite)
        if near_boundary and sum(infinite) > 0:
            # Scale the inf weights so the finite share sits ``ulps`` units
            # of 2**-53 from exactly q percent.
            target = finite_mass * (100.0 / q - 1.0) * (1.0 + ulps * 2.0**-53)
            infinite = [w * target / sum(infinite) for w in infinite]
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [rng.uniform(0.0, 1.0, len(finite)), np.full(len(infinite), np.inf)]
        )
        weights = np.asarray(finite + infinite, dtype=np.float64)
        order = rng.permutation(values.size)
        if not weights.sum() > 0:
            return
        if percentile_is_infinite(finite_mass, sum(infinite), values.size, q):
            assert weighted_percentile(values[order], weights[order], q) == np.inf

    @pytest.mark.parametrize("ulps", range(-4, 5))
    def test_declines_within_a_few_ulps_of_the_percentile(self, ulps):
        infinite_mass = 1.0 + ulps * 2.0**-52
        assert not percentile_is_infinite(99.0, infinite_mass, 2, 99.0)
        assert not percentile_is_infinite(990.0, 10.0 * infinite_mass, 1_000, 99.0)

    def test_clear_cases(self):
        assert percentile_is_infinite(98.0, 2.0, 3, 99.0)
        assert percentile_is_infinite(0.0, 1.0, 1, 99.0)
        assert not percentile_is_infinite(0.0, 0.0, 1, 99.0)
        assert not percentile_is_infinite(1.0, 0.0, 2, 99.0)
        assert not percentile_is_infinite(float("nan"), 1.0, 2, 99.0)
        # Past 2**50 entries the rounding bound says nothing.
        assert not percentile_is_infinite(0.0, 1.0, 2**51, 99.0)
