"""CPU inference performance model.

The paper runs each recommendation stage on CPUs with one PyTorch/MKL thread
per core and exploits task parallelism: every core serves a different query,
so per-query latency is the single-core execution time and system capacity is
``num_cores / per_query_time``.

Per-item latency on one core has three components:

* **MLP compute** at an effective FLOP rate that grows with model size
  (tiny GEMMs cannot keep the SIMD units busy; large GEMMs approach a
  substantial fraction of peak),
* **embedding work**: one random DRAM access per table lookup plus the
  vector-transform / pooling cost which scales with the embedding vector
  width, and
* a fixed per-item framework overhead.

The module constants below are the calibration; they are chosen so the
model reproduces the paper's measured relationships on the
Cascade Lake part (e.g. two-stage RMsmall->RMlarge ranks ~3200 items within a
25 ms SLA, single-stage RMlarge at 4096 items is ~4x slower than the
two-stage pipeline, RMmed frontends are ~1.5x slower than RMsmall frontends).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.hardware.spec import CASCADE_LAKE_CPU, HardwareSpec
from repro.models.cost import FP32_BYTES, ModelCost

#: Effective FLOP/s of one core on very small per-item MLPs.
MIN_EFFECTIVE_FLOPS = 1.2e9
#: Effective FLOP/s of one core on large per-item MLPs (RMlarge-sized).
MAX_EFFECTIVE_FLOPS = 28e9
#: Per-item MACs at which the effective rate saturates.
SATURATION_MACS = 180_000.0
#: Random-access latency of one embedding lookup (seconds).
LOOKUP_LATENCY_S = 110e-9
#: Effective per-core bandwidth streaming embedding vectors (bytes/s).
LOOKUP_BANDWIDTH_BYTES_PER_S = 8e9
#: Per-byte cost of pooling / memory-transform operations (seconds).
TRANSFORM_S_PER_BYTE = 1.4e-9
#: Fixed per-item framework overhead (seconds).
PER_ITEM_OVERHEAD_S = 0.4e-6
#: Fixed per-stage overhead (batch setup, inter-stage handoff) (seconds).
PER_STAGE_OVERHEAD_S = 250e-6


@dataclass
class CPUPerformanceModel:
    """Single-core latency / multi-core capacity model for a CPU platform."""

    spec: ClassVar[HardwareSpec] = CASCADE_LAKE_CPU

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_servers(self) -> int:
        """Independent execution contexts (one query per core)."""
        return self.spec.num_cores

    def effective_flops(self, macs_per_item: float) -> float:
        """Effective per-core FLOP rate as a function of per-item MLP size."""
        if macs_per_item <= 0:
            return MIN_EFFECTIVE_FLOPS
        frac = min(1.0, macs_per_item / SATURATION_MACS)
        return MIN_EFFECTIVE_FLOPS + frac * (MAX_EFFECTIVE_FLOPS - MIN_EFFECTIVE_FLOPS)

    def per_item_latency(self, cost: ModelCost) -> float:
        """Seconds to score one candidate item on one core."""
        mlp = cost.flops_per_item / self.effective_flops(cost.macs_per_item)
        vector_bytes = cost.embedding_dim * FP32_BYTES
        per_lookup = (
            LOOKUP_LATENCY_S
            + vector_bytes / LOOKUP_BANDWIDTH_BYTES_PER_S
            + vector_bytes * TRANSFORM_S_PER_BYTE
        )
        embedding = cost.embedding_lookups_per_item * per_lookup
        return mlp + embedding + PER_ITEM_OVERHEAD_S

    def stage_latency(self, cost: ModelCost, num_items: int) -> float:
        """Seconds for one core to run one stage over ``num_items`` candidates."""
        if num_items < 0:
            raise ValueError(f"num_items must be non-negative, got {num_items}")
        if num_items == 0:
            return 0.0
        return PER_STAGE_OVERHEAD_S + num_items * self.per_item_latency(cost)
