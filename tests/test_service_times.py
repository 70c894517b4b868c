"""Property suite for stochastic, cache-aware per-query service times.

The contract under test, in the style of ``tests/test_engine.py``:

* **Cross-engine equivalence** — with a per-query service matrix the
  closed-form analytic engine must reproduce the discrete-event reference
  to ``atol=1e-9`` on hypothesis-generated plans and cache configs.
* **Tail monotonicity** — shrinking the warm cache can only make queries
  slower: the id stream is seed-only, so factors (and p99) are pointwise
  monotone in the miss rate.
* **Measured hit rate** — the sampler's tallies equal an independent
  frequency count, converge to the Zipf closed form when the closed form
  applies, and expose its blind spots (popularity shift) when it doesn't.
  Factors and tallies counted from the rank uniforms equal the id-matrix
  reference in ``tests/service_times_reference.py`` exactly.
* **Causality** — a query's latency never depends on later queries.
* **Determinism** — pinned seeds reproduce matrices, runs, and grids; the
  grid path equals per-cell runs under a service model.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    PipelinePlan,
    SimulationConfig,
    StageResource,
    analytic_latencies,
    event_latencies,
    simulate,
)
from repro.serving.engine import service_seed
from repro.serving.service_times import (
    SERVICE_MODELS,
    CachedServiceConfig,
    ServiceTimeSampler,
    sampled_service,
)
from tests.conftest import draw_plan, flat_trace, live_reports, make_table
from tests.service_times_reference import reference_sample_factors

ATOL = 1e-9


def poisson_arrivals(qps, num_queries=800, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / qps, size=num_queries))


def plan_of(*stages):
    return PipelinePlan(platform="test", stages=list(stages))


def draw_config(data, warm_fraction=None):
    num_items = data.draw(st.integers(1_000, 30_000), label="num_items")
    dram_rows = data.draw(st.integers(0, num_items), label="dram_rows")
    hot_rows = data.draw(st.integers(0, dram_rows), label="hot_rows")
    return CachedServiceConfig(
        num_items=num_items,
        hot_rows=hot_rows,
        dram_rows=dram_rows,
        zipf_alpha=data.draw(st.floats(0.5, 1.5, allow_nan=False), label="alpha"),
        lookups_per_query=data.draw(st.integers(1, 40), label="lookups"),
        embedding_fraction=data.draw(st.floats(0.0, 1.0, allow_nan=False), label="ef"),
        shift_items=data.draw(st.integers(0, num_items), label="shift"),
        warm_fraction=(
            data.draw(st.floats(0.0, 1.0, allow_nan=False), label="warm")
            if warm_fraction is None
            else warm_fraction
        ),
    )


class TestCrossEngineEquivalence:
    """The analytic closed form vs the event oracle on stochastic plans."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_stochastic_plans(self, data):
        plan = draw_plan(data)
        config = draw_config(data)
        load = data.draw(st.floats(0.2, 0.95, allow_nan=False), label="utilization")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        num_queries = 400
        arrivals = poisson_arrivals(
            load * plan.throughput_capacity(), num_queries, seed
        )
        service = sampled_service(plan, config, num_queries, service_seed(seed))
        analytic = analytic_latencies(plan, arrivals, service=service)
        event = event_latencies(plan, arrivals, service=service)
        np.testing.assert_allclose(analytic, event, rtol=0, atol=ATOL)

    def test_constant_matrix_matches_scalar_service(self):
        """A service matrix repeating the stage constants is a no-op."""
        plan = plan_of(
            StageResource(name="s0", num_servers=4, service_seconds=1e-3),
            StageResource(name="s1", num_servers=2, service_seconds=0.5e-3),
        )
        arrivals = poisson_arrivals(1500, num_queries=600)
        base = np.array([stage.service_seconds for stage in plan.stages])
        matrix = np.repeat(base[:, None], arrivals.size, axis=1)
        np.testing.assert_allclose(
            analytic_latencies(plan, arrivals, service=matrix),
            analytic_latencies(plan, arrivals),
            rtol=0,
            atol=ATOL,
        )
        np.testing.assert_allclose(
            event_latencies(plan, arrivals, service=matrix),
            event_latencies(plan, arrivals),
            rtol=0,
            atol=ATOL,
        )

    def test_service_matrix_stage_count_must_match(self):
        plan = plan_of(StageResource(name="s0", num_servers=1, service_seconds=1e-3))
        arrivals = poisson_arrivals(500, num_queries=50)
        bad = np.full((2, 50), 1e-3)
        with pytest.raises(ValueError, match="stage"):
            analytic_latencies(plan, arrivals, service=bad)

    @pytest.mark.parametrize("engine", ["analytic", "event"])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_both_engines_reject_a_matrix_of_the_wrong_stage_count(self, engine, rows):
        """A 1- or 2-row matrix on a 3-stage plan is an error, never a broadcast."""
        plan = plan_of(
            *(StageResource(name=f"s{k}", num_servers=2, service_seconds=1e-3) for k in range(3))
        )
        bad = np.full((rows, 50), 1e-3)
        kernel = event_latencies if engine == "event" else analytic_latencies
        with pytest.raises(ValueError, match="3 plan stages"):
            kernel(plan, poisson_arrivals(500, num_queries=50), service=bad)
        config = SimulationConfig(num_queries=50, warmup_queries=5, engine=engine)
        with pytest.raises(ValueError, match="3 plan stages"):
            simulate(plan, [500.0], config, service=bad)


class TestTailMonotonicity:
    """Shrinking the warm set can only slow queries down, pointwise."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_p99_monotone_in_miss_rate(self, data):
        plan = draw_plan(data, max_stages=2)
        config = draw_config(data, warm_fraction=1.0)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        warm_levels = sorted(
            data.draw(
                st.lists(
                    st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=4
                ),
                label="warm_levels",
            ),
            reverse=True,
        )
        arrivals = poisson_arrivals(0.6 * plan.throughput_capacity(), 300, seed)
        previous_service = None
        previous_p99 = None
        for warm in warm_levels:
            cfg = replace(config, warm_fraction=warm)
            service = sampled_service(plan, cfg, arrivals.size, service_seed(seed))
            latencies = analytic_latencies(plan, arrivals, service=service)
            p99 = float(np.percentile(latencies, 99.0))
            if previous_service is not None:
                # Ids are seed-only, so a colder cache re-prices the same
                # lookups: service is pointwise >= the warmer draw...
                assert np.all(service >= previous_service - ATOL)
                # ...and so is the latency tail.
                assert p99 >= previous_p99 - ATOL
            previous_service, previous_p99 = service, p99

    def test_ids_do_not_depend_on_cache_geometry(self):
        warm = ServiceTimeSampler(CachedServiceConfig())
        cold = ServiceTimeSampler(CachedServiceConfig(warm_fraction=0.0))
        small = ServiceTimeSampler(CachedServiceConfig(hot_rows=5_000, dram_rows=150_000))
        ids = warm.sample_ids(500, seed=42)
        np.testing.assert_array_equal(ids, cold.sample_ids(500, seed=42))
        np.testing.assert_array_equal(ids, small.sample_ids(500, seed=42))


class TestMeasuredHitRate:
    """The feedback loop: counted hits, not the closed form."""

    def test_tallies_match_independent_frequency_count(self):
        sampler = ServiceTimeSampler(CachedServiceConfig())
        sampler.sample_factors(2_000, seed=7)
        ids = ServiceTimeSampler(CachedServiceConfig()).sample_ids(2_000, seed=7)
        assert sampler.accesses == ids.size
        assert sampler.hits == int((ids < sampler.config.warm_rows).sum())
        assert sampler.measured_hit_rate == sampler.hits / sampler.accesses

    def test_converges_to_zipf_closed_form_when_unshifted(self):
        config = CachedServiceConfig()
        sampler = ServiceTimeSampler(config)
        sampler.sample_factors(20_000, seed=0)
        assert sampler.measured_hit_rate == pytest.approx(
            config.analytic_hit_rate, abs=0.01
        )

    def test_tallies_accumulate_across_draws(self):
        sampler = ServiceTimeSampler(CachedServiceConfig())
        sampler.sample_factors(500, seed=0)
        first = sampler.accesses
        sampler.sample_factors(500, seed=1)
        assert sampler.accesses == 2 * first
        assert sampler.hits + sampler.dram_misses + sampler.ssd_misses == sampler.accesses

    def test_popularity_shift_breaks_the_closed_form(self):
        """The reason measuring exists: the closed form is shift-blind."""
        config = CachedServiceConfig(shift_items=CachedServiceConfig().hot_rows)
        sampler = ServiceTimeSampler(config)
        sampler.sample_factors(5_000, seed=0)
        assert config.analytic_hit_rate > 0.8  # the formula still says "warm"
        assert sampler.measured_hit_rate < 0.1  # the stream says otherwise

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_tier_counts_equal_the_id_matrix_reference(self, data):
        num_items = data.draw(st.integers(1, 5_000), label="num_items")
        dram_rows = data.draw(st.integers(0, num_items), label="dram_rows")
        config = CachedServiceConfig(
            num_items=num_items,
            hot_rows=data.draw(st.one_of(st.just(0), st.integers(0, dram_rows)), label="hot"),
            dram_rows=dram_rows,
            zipf_alpha=data.draw(st.floats(0.05, 3.0, allow_nan=False), label="alpha"),
            lookups_per_query=data.draw(st.integers(1, 30), label="lookups"),
            shift_items=data.draw(st.integers(0, 3 * num_items), label="shift"),
            warm_fraction=data.draw(
                st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)), label="warm"
            ),
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        num_queries = data.draw(st.integers(0, 96), label="queries")
        sampler, reference = ServiceTimeSampler(config), ServiceTimeSampler(config)
        for draw in range(2):  # tallies accumulate across draws
            factors = sampler.sample_factors(num_queries, seed + draw)
            expected = reference_sample_factors(reference, num_queries, seed + draw)
            np.testing.assert_array_equal(factors, expected)
        tallies = ("accesses", "hits", "dram_misses", "ssd_misses")
        assert [getattr(sampler, t) for t in tallies] == [getattr(reference, t) for t in tallies]

    def test_no_accesses_reports_zero(self):
        assert ServiceTimeSampler(CachedServiceConfig()).measured_hit_rate == 0.0

    def test_warm_baseline_factor_is_calibrated(self):
        """The reference normalisation keeps the warm mean factor at ~1."""
        sampler = ServiceTimeSampler(CachedServiceConfig())
        factors = sampler.sample_factors(20_000, seed=3)
        assert float(factors.mean()) == pytest.approx(1.0, abs=0.02)


class TestCausality:
    """A query's latency never depends on queries that arrive after it."""

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_prefix_truncation_is_exact(self, data):
        plan = draw_plan(data, max_stages=2)
        config = draw_config(data)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        num_queries = 200
        prefix = data.draw(st.integers(1, num_queries), label="prefix")
        arrivals = poisson_arrivals(
            0.7 * plan.throughput_capacity(), num_queries, seed
        )
        service = sampled_service(plan, config, num_queries, service_seed(seed))
        full = analytic_latencies(plan, arrivals, service=service)
        truncated = analytic_latencies(
            plan, arrivals[:prefix], service=service[:, :prefix]
        )
        np.testing.assert_allclose(full[:prefix], truncated, rtol=0, atol=ATOL)
        event_full = event_latencies(plan, arrivals, service=service)
        event_truncated = event_latencies(
            plan, arrivals[:prefix], service=service[:, :prefix]
        )
        np.testing.assert_allclose(
            event_full[:prefix], event_truncated, rtol=0, atol=ATOL
        )


class TestDeterminism:
    """Pinned seeds reproduce draws, runs, and grids."""

    def plan(self):
        return plan_of(
            StageResource(name="s0", num_servers=4, service_seconds=1e-3),
            StageResource(name="s1", num_servers=2, service_seconds=0.5e-3),
        )

    def test_pinned_seed_reproduces_the_matrix(self):
        plan = self.plan()
        config = CachedServiceConfig()
        a = sampled_service(plan, config, 300, service_seed(5))
        b = sampled_service(plan, config, 300, service_seed(5))
        np.testing.assert_array_equal(a, b)
        c = sampled_service(plan, config, 300, service_seed(6))
        assert not np.array_equal(a, c)

    def test_simulator_run_is_deterministic(self):
        config = SimulationConfig(num_queries=600, seed=2, service=CachedServiceConfig())
        plan = self.plan()

        def run(seed=None):
            return live_reports(plan, [1200], config, seed=seed)

        assert run() == run()
        assert run(seed=9) == run(seed=9)
        assert run(seed=9) != run(seed=10)

    def test_grid_cells_match_per_cell_runs_under_service(self):
        plan = self.plan()
        config = SimulationConfig(num_queries=800, seed=4, service=CachedServiceConfig())
        qps_values = [300.0, 900.0, 1500.0]
        grid = live_reports(plan, qps_values, config)
        assert len(grid) == len(qps_values)
        for qps, from_grid in zip(qps_values, grid):
            assert [from_grid] == live_reports(plan, [qps], config)

    def test_event_facade_agrees_with_analytic_under_service(self):
        plan = self.plan()
        service_model = CachedServiceConfig()
        (analytic,) = live_reports(
            plan, [1000], SimulationConfig(num_queries=600, seed=1, service=service_model)
        )
        (event,) = live_reports(
            plan,
            [1000],
            SimulationConfig(num_queries=600, seed=1, engine="event", service=service_model),
        )
        assert analytic.p99_latency == pytest.approx(event.p99_latency, abs=ATOL)
        assert analytic.mean_latency == pytest.approx(event.mean_latency, abs=ATOL)

    def test_service_stream_is_independent_of_arrivals(self):
        """service_seed decorrelates the two streams but stays deterministic."""
        assert service_seed(3) == service_seed(3)
        assert service_seed(3) != service_seed(4)
        arrivals_rng = np.random.default_rng(3)
        assert service_seed(3) != int(arrivals_rng.integers(0, 2**32))


class TestConfigValidation:
    """CachedServiceConfig rejects inconsistent tier geometry."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_items": 0},
            {"hot_rows": -1},
            {"hot_rows": 200, "dram_rows": 100},
            {"dram_rows": 300_000},
            {"zipf_alpha": 0.0},
            {"lookups_per_query": 0},
            {"embedding_fraction": 1.5},
            {"embedding_fraction": -0.1},
            {"row_bytes": 0},
            {"shift_items": -1},
            {"warm_fraction": 1.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CachedServiceConfig(**kwargs)

    def test_registry_names_the_two_models(self):
        assert SERVICE_MODELS["deterministic"] is None
        assert isinstance(SERVICE_MODELS["cached"], CachedServiceConfig)

    def test_warm_rows_scales_with_warm_fraction(self):
        config = CachedServiceConfig(hot_rows=10_000, warm_fraction=0.25)
        assert config.warm_rows == 2_500
        assert CachedServiceConfig(warm_fraction=0.0).warm_rows == 0

    def test_simulation_config_accepts_and_validates_service(self):
        config = SimulationConfig.with_budget(500, service=CachedServiceConfig())
        assert isinstance(config.service, CachedServiceConfig)
        assert SimulationConfig.with_budget(500).service is None
        with pytest.raises(ValueError, match="service"):
            SimulationConfig(service="cached")


class TestPathTableService:
    """Service models threaded through dwell cells and route evaluation."""

    COLD = CachedServiceConfig(warm_fraction=0.0)

    def test_service_steps_inflate_the_static_route(self):
        table = make_table()
        trace = flat_trace(2800.0, num_steps=10)
        steps = [0] * trace.num_steps
        switches = [False] * trace.num_steps
        warm = table.evaluate_route(trace, steps, switches, policy="static")
        cold = table.evaluate_route(
            trace,
            steps,
            switches,
            policy="static",
            service_steps=[self.COLD] * trace.num_steps,
        )
        assert cold.violation_rate >= warm.violation_rate
        assert cold.p99_seconds > warm.p99_seconds

    def test_override_cells_do_not_pollute_default_cells(self):
        table = make_table()
        trace = flat_trace(1000.0, num_steps=4)
        steps = [1] * trace.num_steps
        switches = [False] * trace.num_steps
        before = table.evaluate_route(trace, steps, switches, policy="a")
        table.evaluate_route(
            trace,
            steps,
            switches,
            policy="b",
            service_steps=[self.COLD] * trace.num_steps,
        )
        after = table.evaluate_route(trace, steps, switches, policy="a")
        assert before.p99_seconds == after.p99_seconds
        assert before.violation_rate == after.violation_rate

    def test_service_steps_must_cover_the_trace(self):
        table = make_table()
        trace = flat_trace(500.0, num_steps=5)
        with pytest.raises(ValueError, match="service_steps"):
            table.evaluate_route(
                trace,
                [0] * 5,
                [False] * 5,
                policy="x",
                service_steps=[self.COLD] * 3,
            )

    def test_service_stats_report_measured_and_analytic_rates(self):
        table = make_table()
        trace = flat_trace(800.0, num_steps=3)
        table.evaluate_route(
            trace,
            [1] * 3,
            [False] * 3,
            policy="x",
            service_steps=[CachedServiceConfig()] * 3,
        )
        stats = table.service_stats()
        assert len(stats) == 1
        row = stats[0]
        assert row["accesses"] > 0
        assert row["measured_hit_rate"] == pytest.approx(
            row["analytic_hit_rate"], abs=0.05
        )

    def test_table_default_service_applies_without_overrides(self):
        deterministic = make_table()
        cached = make_table()
        cached.simulation = SimulationConfig(
            num_queries=600, warmup_queries=60, service=self.COLD
        )
        trace = flat_trace(2800.0, num_steps=6)
        steps = [0] * trace.num_steps
        switches = [False] * trace.num_steps
        warm = deterministic.evaluate_route(trace, steps, switches, policy="s")
        cold = cached.evaluate_route(trace, steps, switches, policy="s")
        assert cold.p99_seconds > warm.p99_seconds
