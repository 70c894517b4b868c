"""Tests for the commodity-hardware performance models (repro.hardware)."""

import pytest

from repro.core import PipelineConfig, RecPipeScheduler, Stage
from repro.hardware import (
    CASCADE_LAKE_CPU,
    CPUPerformanceModel,
    DramModel,
    GPUPerformanceModel,
    NVIDIA_T4_GPU,
    PCIeModel,
    SramModel,
)
from repro.models.zoo import RM_LARGE, RM_MED, RM_SMALL


class TestSpecs:
    def test_table2_values(self):
        assert CASCADE_LAKE_CPU.num_cores == 64
        assert CASCADE_LAKE_CPU.dram_bandwidth_bytes_per_s == pytest.approx(75e9)
        assert NVIDIA_T4_GPU.dram_capacity_bytes == 15 * 1024**3
        assert NVIDIA_T4_GPU.tdp_watts == 70.0


class TestMemoryModels:
    def test_sram_faster_than_dram(self):
        sram, dram = SramModel(), DramModel()
        assert sram.access_cycles(128) < dram.access_cycles(128)

    def test_zero_bytes_free(self):
        assert SramModel().access_cycles(0) == 0.0
        assert DramModel().access_cycles(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            DramModel().access_cycles(-1)

    def test_dram_seconds_consistent_with_cycles(self):
        dram = DramModel()
        assert dram.access_seconds(1024) == pytest.approx(
            dram.access_cycles(1024) / dram.frequency_hz
        )


class TestPCIe:
    def test_transfer_time_grows_with_payload(self):
        pcie = PCIeModel()
        assert pcie.transfer_seconds(1 << 20) > pcie.transfer_seconds(1 << 10)

    def test_zero_payload_is_free(self):
        assert PCIeModel().transfer_seconds(0) == 0.0

    def test_candidate_payload_accounts_features(self):
        pcie = PCIeModel()
        assert pcie.candidate_payload_bytes(100, 13, 26) == 100 * 39 * 4
        assert pcie.score_payload_bytes(100) == 100 * 8


class TestCPUModel:
    @pytest.fixture(scope="class")
    def cpu(self):
        return CPUPerformanceModel()

    def test_per_item_latency_ordering(self, cpu):
        small = cpu.per_item_latency(RM_SMALL.reference_cost())
        med = cpu.per_item_latency(RM_MED.reference_cost())
        large = cpu.per_item_latency(RM_LARGE.reference_cost())
        assert small < med < large

    def test_stage_latency_scales_with_items(self, cpu):
        cost = RM_LARGE.reference_cost()
        assert cpu.stage_latency(cost, 4096) > 4 * cpu.stage_latency(cost, 512)

    def test_zero_items_free(self, cpu):
        assert cpu.stage_latency(RM_SMALL.reference_cost(), 0) == 0.0

    def test_negative_items_rejected(self, cpu):
        with pytest.raises(ValueError):
            cpu.stage_latency(RM_SMALL.reference_cost(), -1)

    def test_two_stage_faster_than_one_stage(self, cpu):
        """The core motivation: RMsmall@4096 + RMlarge@512 beats RMlarge@4096."""
        one = cpu.stage_latency(RM_LARGE.reference_cost(), 4096)
        two = cpu.stage_latency(RM_SMALL.reference_cost(), 4096) + cpu.stage_latency(
            RM_LARGE.reference_cost(), 512
        )
        assert one / two > 2.0

    def test_throughput_capacity_uses_all_cores(self, cpu):
        pipeline = PipelineConfig((Stage(RM_LARGE, 4096),))
        capacity = RecPipeScheduler(None).plan_for(pipeline, "cpu").throughput_capacity()
        cost = pipeline.stage_costs()[0]
        assert capacity == pytest.approx(64 / cpu.stage_latency(cost, 4096))


class TestGPUModel:
    @pytest.fixture(scope="class")
    def gpu(self):
        return GPUPerformanceModel()

    def test_small_and_large_models_comparable(self, gpu):
        """Paper Section 5.2: GPU latency is similar for RMsmall and RMlarge."""
        small = gpu.stage_latency(RM_SMALL.reference_cost(), 4096)
        large = gpu.stage_latency(RM_LARGE.reference_cost(), 4096)
        assert large / small < 2.0

    def test_gpu_lower_latency_than_cpu_for_large_model(self, gpu):
        cpu = CPUPerformanceModel()
        cost = RM_LARGE.reference_cost()
        assert gpu.stage_latency(cost, 4096) < cpu.stage_latency(cost, 4096)

    def test_gpu_throughput_lower_than_cpu(self):
        """GPUs serve one query at a time; 64 CPU cores sustain more load."""
        scheduler = RecPipeScheduler(None)
        pipeline = PipelineConfig((Stage(RM_LARGE, 4096),))
        gpu_plan = scheduler.plan_for(pipeline, "gpu")
        cpu_plan = scheduler.plan_for(pipeline, "cpu")
        assert gpu_plan.throughput_capacity() < cpu_plan.throughput_capacity()

    def test_zero_items_free(self, gpu):
        assert gpu.stage_latency(RM_SMALL.reference_cost(), 0) == 0.0
