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

The effective-rate constants are calibration parameters; their defaults are
chosen so the model reproduces the paper's measured relationships on the
Cascade Lake part (e.g. two-stage RMsmall->RMlarge ranks ~3200 items within a
25 ms SLA, single-stage RMlarge at 4096 items is ~4x slower than the
two-stage pipeline, RMmed frontends are ~1.5x slower than RMsmall frontends).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.spec import CASCADE_LAKE_CPU, HardwareSpec
from repro.models.cost import FP32_BYTES, ModelCost


@dataclass(frozen=True)
class CPUCalibration:
    """Calibration constants of the CPU latency model."""

    #: effective FLOP/s of one core on very small per-item MLPs.
    min_effective_flops: float = 1.2e9
    #: effective FLOP/s of one core on large per-item MLPs (RMlarge-sized).
    max_effective_flops: float = 28e9
    #: per-item MACs at which the effective rate saturates.
    saturation_macs: float = 180_000.0
    #: random-access latency of one embedding lookup (seconds).
    lookup_latency_s: float = 110e-9
    #: effective per-core bandwidth streaming embedding vectors (bytes/s).
    lookup_bandwidth_bytes_per_s: float = 8e9
    #: per-byte cost of pooling / memory-transform operations (seconds).
    transform_s_per_byte: float = 1.4e-9
    #: fixed per-item framework overhead (seconds).
    per_item_overhead_s: float = 0.4e-6
    #: fixed per-stage overhead (batch setup, inter-stage handoff) (seconds).
    per_stage_overhead_s: float = 250e-6


@dataclass
class CPUPerformanceModel:
    """Single-core latency / multi-core capacity model for a CPU platform."""

    spec: HardwareSpec = field(default_factory=lambda: CASCADE_LAKE_CPU)
    calibration: CPUCalibration = field(default_factory=CPUCalibration)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_servers(self) -> int:
        """Independent execution contexts (one query per core)."""
        return self.spec.num_cores

    def effective_flops(self, macs_per_item: float) -> float:
        """Effective per-core FLOP rate as a function of per-item MLP size."""
        cal = self.calibration
        if macs_per_item <= 0:
            return cal.min_effective_flops
        frac = min(1.0, macs_per_item / cal.saturation_macs)
        return cal.min_effective_flops + frac * (cal.max_effective_flops - cal.min_effective_flops)

    def per_item_latency(self, cost: ModelCost) -> float:
        """Seconds to score one candidate item on one core."""
        cal = self.calibration
        mlp = cost.flops_per_item / self.effective_flops(cost.macs_per_item)
        vector_bytes = cost.embedding_dim * FP32_BYTES
        per_lookup = (
            cal.lookup_latency_s
            + vector_bytes / cal.lookup_bandwidth_bytes_per_s
            + vector_bytes * cal.transform_s_per_byte
        )
        embedding = cost.embedding_lookups_per_item * per_lookup
        return mlp + embedding + cal.per_item_overhead_s

    def stage_latency(self, cost: ModelCost, num_items: int) -> float:
        """Seconds for one core to run one stage over ``num_items`` candidates."""
        if num_items < 0:
            raise ValueError(f"num_items must be non-negative, got {num_items}")
        if num_items == 0:
            return 0.0
        return self.calibration.per_stage_overhead_s + num_items * self.per_item_latency(cost)
