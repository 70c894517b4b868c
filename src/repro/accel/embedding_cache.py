"""Multi-stage embedding caches: static hot cache + look-ahead prefetch cache.

Embedding operations are bound by vector fetch latency, so both accelerators
cache embedding rows on chip:

* the **static cache** pins the hottest rows of each table (exploiting the
  power-law access distribution).  The baseline accelerator provisions it for
  its single model; RPAccel partitions it between the frontend and backend
  models -- the asymmetric split in Figure 10c minimizes average memory
  access time (AMAT) as a function of the inter-stage filtering ratio.
* the **look-ahead cache** (RPAccel only) holds vectors prefetched for the
  backend while the frontend is still processing a query's sub-batches, so
  backend misses are overlapped with frontend compute.

The hit-rate model uses the analytic Zipf head-mass approximation from
:mod:`repro.data.distributions`, and AMAT combines SRAM and DRAM access
costs from :mod:`repro.hardware.memory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.data.distributions import approx_zipf_hit_rate
from repro.hardware.memory import DramModel, SramModel
from repro.models.cost import FP32_BYTES, MiB, ModelCost


@dataclass(frozen=True)
class EmbeddingCacheConfig:
    """On-chip embedding memory resources (Table 3: 16 MB total)."""

    total_bytes: int = 16 * MiB
    lookahead_bytes: int = 4 * MiB
    zipf_alpha: float = 1.05
    cache_line_bytes: ClassVar[int] = 128

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if not 0 <= self.lookahead_bytes < self.total_bytes:
            raise ValueError("lookahead_bytes must be smaller than total_bytes")

    @property
    def static_bytes(self) -> int:
        """Capacity left for the static hot-row cache."""
        return self.total_bytes - self.lookahead_bytes


@dataclass(frozen=True)
class StaticCachePartition:
    """Result of partitioning the static cache across one stage's model."""

    model_name: str
    capacity_bytes: int
    hit_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hit_rate <= 1.0:
            raise ValueError("hit_rate must lie in [0, 1]")


@dataclass
class MultiStageEmbeddingCache:
    """Static + look-ahead embedding caches shared by the pipeline stages."""

    config: EmbeddingCacheConfig = field(default_factory=EmbeddingCacheConfig)
    sram: ClassVar[SramModel] = SramModel()
    dram: ClassVar[DramModel] = DramModel()

    # ------------------------------------------------------------------ #
    # Hit rates
    # ------------------------------------------------------------------ #
    def static_hit_rate(self, cost: ModelCost, capacity_bytes: float) -> float:
        """Hit rate of pinning the hottest rows of ``cost``'s tables.

        The paper-scale table footprint (``reference_storage_bytes``) is used:
        an 8 GB RMlarge sees a far lower hit rate from a 12 MB cache than a
        1 GB RMsmall does.
        """
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        table_bytes = max(cost.reference_storage_bytes, 1)
        row_bytes = cost.embedding_dim * FP32_BYTES
        total_rows = max(table_bytes / row_bytes, 1.0)
        cached_rows = capacity_bytes / row_bytes
        return approx_zipf_hit_rate(total_rows, cached_rows, self.config.zipf_alpha)

    def partition_static_cache(
        self,
        stage_costs: list[ModelCost],
        frontend_fraction: float | None = None,
    ) -> list[StaticCachePartition]:
        """Split the static cache across stages and report per-stage hit rates.

        With ``frontend_fraction=None`` the capacity is split proportionally
        to each stage's paper-scale table footprint; otherwise the first stage
        receives ``frontend_fraction`` and the remaining stages share the rest
        proportionally (the knob swept in Figure 10c).
        """
        if not stage_costs:
            raise ValueError("at least one stage is required")
        capacity = self.config.static_bytes
        if frontend_fraction is None:
            total = sum(max(c.reference_storage_bytes, 1) for c in stage_costs)
            fractions = [max(c.reference_storage_bytes, 1) / total for c in stage_costs]
        else:
            if not 0.0 <= frontend_fraction <= 1.0:
                raise ValueError("frontend_fraction must lie in [0, 1]")
            if len(stage_costs) == 1:
                fractions = [1.0]
            else:
                rest = sum(max(c.reference_storage_bytes, 1) for c in stage_costs[1:])
                fractions = [frontend_fraction] + [
                    (1.0 - frontend_fraction) * max(c.reference_storage_bytes, 1) / rest
                    for c in stage_costs[1:]
                ]
        partitions = []
        for cost, fraction in zip(stage_costs, fractions):
            cap = capacity * fraction
            partitions.append(
                StaticCachePartition(
                    model_name=cost.name,
                    capacity_bytes=int(cap),
                    hit_rate=self.static_hit_rate(cost, cap),
                )
            )
        return partitions

    # ------------------------------------------------------------------ #
    # Access time
    # ------------------------------------------------------------------ #
    def amat_cycles(self, hit_rate: float) -> float:
        """Average memory access time (cycles) for one embedding vector."""
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError("hit_rate must lie in [0, 1]")
        line = self.config.cache_line_bytes
        hit_cycles = self.sram.access_cycles(line)
        miss_cycles = self.dram.access_cycles(line)
        return hit_rate * hit_cycles + (1.0 - hit_rate) * miss_cycles

    def pipeline_amat_cycles(
        self,
        stage_costs: list[ModelCost],
        stage_items: list[int],
        frontend_fraction: float | None = None,
    ) -> float:
        """Lookup-weighted AMAT across all pipeline stages (Figure 10c's metric)."""
        if len(stage_costs) != len(stage_items):
            raise ValueError("stage_costs and stage_items must be parallel lists")
        partitions = self.partition_static_cache(stage_costs, frontend_fraction)
        total_lookups = 0.0
        weighted = 0.0
        for cost, items, part in zip(stage_costs, stage_items, partitions):
            lookups = items * cost.embedding_lookups_per_item
            total_lookups += lookups
            weighted += lookups * self.amat_cycles(part.hit_rate)
        if total_lookups == 0:
            return 0.0
        return weighted / total_lookups

    def gather_seconds(
        self,
        cost: ModelCost,
        num_items: int,
        hit_rate: float,
        overlap_fraction: float = 0.0,
        outstanding_misses: int = 8,
    ) -> float:
        """Seconds to gather all embedding vectors for one stage execution.

        The gather streams ``num_items * lookups`` vectors; hits come from
        SRAM at on-chip bandwidth, misses pay DRAM latency (overlapped across
        ``outstanding_misses`` in-flight requests -- the baseline's gather
        unit sustains ~8, RPAccel's banked look-ahead design sustains more)
        plus DRAM bandwidth.  ``overlap_fraction`` is the fraction of miss
        traffic hidden behind other work (the look-ahead cache prefetching
        for the backend while the frontend runs).
        """
        if num_items < 0:
            raise ValueError("num_items must be non-negative")
        if not 0.0 <= overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must lie in [0, 1]")
        if outstanding_misses <= 0:
            raise ValueError("outstanding_misses must be positive")
        if num_items == 0:
            return 0.0
        vector_bytes = cost.embedding_dim * FP32_BYTES
        lookups = num_items * cost.embedding_lookups_per_item
        misses = lookups * (1.0 - hit_rate)
        hit_bytes = lookups * hit_rate * vector_bytes
        miss_bytes = misses * vector_bytes
        freq = self.dram.frequency_hz
        hit_time = hit_bytes / (self.sram.bandwidth_bytes_per_cycle * freq)
        miss_time = (
            miss_bytes / self.dram.bandwidth_bytes_per_s
            + misses * self.dram.latency_cycles / outstanding_misses / freq
        )
        return hit_time + miss_time * (1.0 - overlap_fraction)
