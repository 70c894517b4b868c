"""Tests for the RecPipe core: pipelines, mapping, Pareto, scheduler."""

import pytest

from repro.core import (
    PipelineConfig,
    RecPipeScheduler,
    Stage,
    build_heterogeneous_plan,
    enumerate_pipelines,
    pareto_frontier,
)
from repro.core.mapping import _proportional_allocation
from repro.data import CriteoConfig, CriteoSynthetic
from repro.models.zoo import RM_LARGE, RM_MED, RM_SMALL, criteo_model_specs
from repro.quality import QualityEvaluator
from repro.serving import SimulationConfig


@pytest.fixture(scope="module")
def evaluator():
    queries = CriteoSynthetic(CriteoConfig(table_size=400)).sample_ranking_queries(
        4, candidates_per_query=2048
    )
    return QualityEvaluator(queries)


@pytest.fixture(scope="module")
def scheduler(evaluator):
    return RecPipeScheduler(
        evaluator,
        simulation=SimulationConfig(num_queries=1200, warmup_queries=100),
    )


class TestPipelineConfig:
    def test_name_and_properties(self):
        pipeline = PipelineConfig((Stage(RM_SMALL, 4096), Stage(RM_LARGE, 512)))
        assert pipeline.num_stages == 2
        assert "RMsmall@4096" in pipeline.name

    def test_items_must_decrease(self):
        with pytest.raises(ValueError):
            PipelineConfig((Stage(RM_SMALL, 256), Stage(RM_LARGE, 512)))

    def test_last_stage_must_cover_serve_k(self):
        with pytest.raises(ValueError):
            PipelineConfig((Stage(RM_LARGE, 32),), serve_k=64)

    def test_demand_reduction_matches_paper(self):
        """Figure 1c: ~7.5x compute and ~4x embedding-traffic reduction."""
        one = PipelineConfig((Stage(RM_LARGE, 4096),))
        two = PipelineConfig((Stage(RM_SMALL, 4096), Stage(RM_LARGE, 512)))
        compute = one.total_macs() / two.total_macs()
        memory = one.total_embedding_bytes() / two.total_embedding_bytes()
        assert 5.0 < compute < 10.0
        assert 3.0 < memory < 5.5

    def test_funnel_stages_mirror_config(self):
        pipeline = PipelineConfig((Stage(RM_SMALL, 1024), Stage(RM_LARGE, 128)))
        funnel = pipeline.funnel_stages()
        assert [f.num_items for f in funnel] == [1024, 128]
        assert funnel[0].score_noise == RM_SMALL.score_noise


class TestEnumeration:
    def test_enumerates_expected_counts(self):
        configs = enumerate_pipelines(
            criteo_model_specs(), [2048, 4096], [256, 512, 1024], max_stages=2
        )
        assert any(c.num_stages == 1 for c in configs)
        assert any(c.num_stages == 2 for c in configs)
        # Last stage always the most accurate model.
        assert all(c.stages[-1].model.name == "RMlarge" for c in configs)

    def test_item_ladders_strictly_decreasing(self):
        configs = enumerate_pipelines(criteo_model_specs(), [4096], [512, 1024, 2048], max_stages=3)
        for config in configs:
            items = config.stage_items()
            assert all(a > b for a, b in zip(items, items[1:]))


class TestPareto:
    def test_frontier_filters_dominated(self):
        points = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (3.0, 0.5)]
        frontier = pareto_frontier(points, objectives=lambda p: p, minimize=[True, True])
        assert (1.0, 1.0) in frontier
        assert (2.0, 2.0) not in frontier

    def test_maximize_direction(self):
        points = [(1.0, 5.0), (2.0, 5.0)]
        frontier = pareto_frontier(points, objectives=lambda p: p, minimize=[False, True])
        assert frontier == [(2.0, 5.0)]

    def test_empty_input(self):
        assert pareto_frontier([], objectives=lambda p: p, minimize=[True]) == []


class TestMapping:
    def test_cpu_plan_allocates_all_cores(self):
        pipeline = PipelineConfig((Stage(RM_SMALL, 4096), Stage(RM_LARGE, 512)))
        plan = RecPipeScheduler(None).plan_for(pipeline, "cpu")
        assert sum(s.num_servers for s in plan.stages) == 64
        assert all(s.transfer_seconds == 0.0 for s in plan.stages)

    def test_gpu_plan_single_server_per_stage(self):
        pipeline = PipelineConfig((Stage(RM_LARGE, 4096),))
        plan = RecPipeScheduler(None).plan_for(pipeline, "gpu")
        assert all(s.num_servers == 1 for s in plan.stages)
        assert plan.stages[0].transfer_seconds > 0.0

    def test_heterogeneous_plan_charges_pcie_on_device_change(self):
        pipeline = PipelineConfig((Stage(RM_SMALL, 4096), Stage(RM_LARGE, 512)))
        plan = build_heterogeneous_plan(pipeline, ["gpu", "cpu"])
        assert plan.stages[0].transfer_seconds > 0.0  # host -> GPU
        assert plan.stages[1].transfer_seconds > 0.0  # GPU -> CPU

    def test_heterogeneous_device_validation(self):
        pipeline = PipelineConfig((Stage(RM_LARGE, 512),))
        with pytest.raises(ValueError):
            build_heterogeneous_plan(pipeline, ["tpu"])

    def test_proportional_allocation_sums_to_total(self):
        allocation = _proportional_allocation([1e-3, 9e-3], 64)
        assert sum(allocation) == 64
        assert allocation[1] > allocation[0]


class TestScheduler:
    def test_two_stage_beats_one_stage_on_cpu(self, scheduler):
        """Takeaway 1: multi-stage lowers CPU tail latency at iso-quality."""
        one = PipelineConfig((Stage(RM_LARGE, 2048),))
        two = PipelineConfig((Stage(RM_SMALL, 2048), Stage(RM_LARGE, 256)))
        e_one = scheduler.evaluate(one, "cpu", qps=300)
        e_two = scheduler.evaluate(two, "cpu", qps=300)
        assert e_two.p99_latency < e_one.p99_latency
        assert e_two.quality >= e_one.quality - 2.0

    def test_gpu_lower_latency_cpu_higher_throughput(self, scheduler):
        """Takeaways 2/3: GPU wins latency at low load, CPU sustains more load."""
        one = PipelineConfig((Stage(RM_LARGE, 2048),))
        two = PipelineConfig((Stage(RM_SMALL, 2048), Stage(RM_LARGE, 256)))
        gpu = scheduler.evaluate(one, "gpu", qps=50)
        cpu = scheduler.evaluate(two, "cpu", qps=50)
        assert gpu.unloaded_latency < cpu.unloaded_latency
        assert cpu.throughput_capacity > gpu.throughput_capacity

    def test_rpaccel_dominates_baseline(self, scheduler):
        two = PipelineConfig((Stage(RM_SMALL, 2048), Stage(RM_LARGE, 256)))
        one = PipelineConfig((Stage(RM_LARGE, 2048),))
        rp = scheduler.evaluate(two, "rpaccel", qps=200)
        base = scheduler.evaluate(one, "baseline-accel", qps=200)
        assert rp.p99_latency < base.p99_latency
        assert rp.throughput_capacity > base.throughput_capacity

    def test_saturated_configuration_flagged(self, scheduler):
        one = PipelineConfig((Stage(RM_LARGE, 2048),))
        evaluated = scheduler.evaluate(one, "gpu", qps=5000)
        assert evaluated.saturated
        assert evaluated.p99_latency == float("inf")

    def test_unknown_platform_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.plan_for(PipelineConfig((Stage(RM_LARGE, 512),)), "fpga")

    def test_frontier_and_selection_helpers(self, scheduler):
        configs = [
            PipelineConfig((Stage(RM_LARGE, 2048),)),
            PipelineConfig((Stage(RM_SMALL, 2048), Stage(RM_LARGE, 256))),
            PipelineConfig((Stage(RM_MED, 2048), Stage(RM_LARGE, 256))),
        ]
        evaluated = [scheduler.evaluate(config, "cpu", qps=300) for config in configs]
        frontier = scheduler.quality_latency_frontier(evaluated)
        assert 1 <= len(frontier) <= len(evaluated)
        best = scheduler.best_at_iso_quality(evaluated, quality_target=80.0)
        assert best is not None and best.quality >= 80.0
        sla_best = scheduler.best_quality_under_sla(evaluated, sla_seconds=1.0)
        assert sla_best is not None
