"""GPU inference performance model.

GPUs execute one query at a time, data-parallel across its candidate items.
The paper's measurements on the NVIDIA T4 (Section 5.2) show two properties
the model must reproduce:

* **small and large models have comparable per-query latency** -- kernel
  launches, embedding gathers and memory-transform operations dominate, so
  decomposing a model into stages does not reduce GPU latency much (this is
  why single-stage GPU-only execution beats a two-stage GPU-GPU mapping);
* **latency is low but throughput saturates early** -- the GPU serves queries
  serially (occupancy is only ~25% yet batching further degrades tail
  latency), so its capacity is roughly ``1 / per_query_latency`` while the
  64-core CPU keeps accepting load.

The model charges a fixed per-stage launch overhead, a per-table
gather/transform overhead (the dominant term), bandwidth-limited embedding
traffic, and MLP compute at an effective TFLOP rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.spec import NVIDIA_T4_GPU, HardwareSpec
from repro.models.cost import FP32_BYTES, ModelCost


@dataclass(frozen=True)
class GPUCalibration:
    """Calibration constants of the GPU latency model."""

    #: fixed per-stage overhead: kernel launches, synchronization (seconds).
    per_stage_overhead_s: float = 0.9e-3
    #: per-embedding-table gather + transform kernel overhead (seconds).
    per_table_overhead_s: float = 0.14e-3
    #: effective FLOP/s on small per-item MLPs (underutilized SMs).
    min_effective_flops: float = 0.4e12
    #: effective FLOP/s on large per-item MLPs.
    max_effective_flops: float = 2.2e12
    #: per-item MACs at which the effective rate saturates.
    saturation_macs: float = 180_000.0
    #: effective bandwidth for irregular embedding gathers (bytes/s).
    gather_bandwidth_bytes_per_s: float = 45e9
    #: maximum queries resident on the device at once.
    max_concurrent_queries: int = 1


@dataclass
class GPUPerformanceModel:
    """Per-query latency / capacity model for a data-parallel GPU."""

    spec: HardwareSpec = field(default_factory=lambda: NVIDIA_T4_GPU)
    calibration: GPUCalibration = field(default_factory=GPUCalibration)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_servers(self) -> int:
        """Independent execution contexts (queries processed concurrently)."""
        return self.calibration.max_concurrent_queries

    def effective_flops(self, macs_per_item: float) -> float:
        cal = self.calibration
        if macs_per_item <= 0:
            return cal.min_effective_flops
        frac = min(1.0, macs_per_item / cal.saturation_macs)
        return cal.min_effective_flops + frac * (cal.max_effective_flops - cal.min_effective_flops)

    def stage_latency(self, cost: ModelCost, num_items: int) -> float:
        """Seconds for the GPU to run one stage over ``num_items`` candidates."""
        if num_items < 0:
            raise ValueError(f"num_items must be non-negative, got {num_items}")
        if num_items == 0:
            return 0.0
        cal = self.calibration
        mlp = num_items * cost.flops_per_item / self.effective_flops(cost.macs_per_item)
        gather_bytes = (
            num_items * cost.embedding_lookups_per_item * cost.embedding_dim * FP32_BYTES
        )
        embedding = (
            cost.embedding_lookups_per_item * cal.per_table_overhead_s
            + gather_bytes / cal.gather_bandwidth_bytes_per_s
        )
        return cal.per_stage_overhead_s + mlp + embedding

    def fits_in_memory(self, cost: ModelCost) -> bool:
        """Whether the paper-scale model fits in GPU DRAM (15 GB on the T4).

        Production models larger than device memory force the frontend-on-GPU
        / backend-on-CPU split discussed in Section 5.2.
        """
        return cost.reference_storage_bytes <= self.spec.dram_capacity_bytes
