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

from dataclasses import dataclass
from typing import ClassVar

from repro.hardware.spec import NVIDIA_T4_GPU, HardwareSpec
from repro.models.cost import FP32_BYTES, ModelCost

#: Fixed per-stage overhead: kernel launches, synchronization (seconds).
PER_STAGE_OVERHEAD_S = 0.9e-3
#: Per-embedding-table gather + transform kernel overhead (seconds).
PER_TABLE_OVERHEAD_S = 0.14e-3
#: Effective FLOP/s on small per-item MLPs (underutilized SMs).
MIN_EFFECTIVE_FLOPS = 0.4e12
#: Effective FLOP/s on large per-item MLPs.
MAX_EFFECTIVE_FLOPS = 2.2e12
#: Per-item MACs at which the effective rate saturates.
SATURATION_MACS = 180_000.0
#: Effective bandwidth for irregular embedding gathers (bytes/s).
GATHER_BANDWIDTH_BYTES_PER_S = 45e9
#: Maximum queries resident on the device at once.
MAX_CONCURRENT_QUERIES = 1


@dataclass
class GPUPerformanceModel:
    """Per-query latency / capacity model for a data-parallel GPU."""

    spec: ClassVar[HardwareSpec] = NVIDIA_T4_GPU

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_servers(self) -> int:
        """Independent execution contexts (queries processed concurrently)."""
        return MAX_CONCURRENT_QUERIES

    def effective_flops(self, macs_per_item: float) -> float:
        if macs_per_item <= 0:
            return MIN_EFFECTIVE_FLOPS
        frac = min(1.0, macs_per_item / SATURATION_MACS)
        return MIN_EFFECTIVE_FLOPS + frac * (MAX_EFFECTIVE_FLOPS - MIN_EFFECTIVE_FLOPS)

    def stage_latency(self, cost: ModelCost, num_items: int) -> float:
        """Seconds for the GPU to run one stage over ``num_items`` candidates."""
        if num_items < 0:
            raise ValueError(f"num_items must be non-negative, got {num_items}")
        if num_items == 0:
            return 0.0
        mlp = num_items * cost.flops_per_item / self.effective_flops(cost.macs_per_item)
        gather_bytes = (
            num_items * cost.embedding_lookups_per_item * cost.embedding_dim * FP32_BYTES
        )
        embedding = (
            cost.embedding_lookups_per_item * PER_TABLE_OVERHEAD_S
            + gather_bytes / GATHER_BANDWIDTH_BYTES_PER_S
        )
        return PER_STAGE_OVERHEAD_S + mlp + embedding
