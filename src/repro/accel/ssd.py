"""SSD-backed embedding scaling model for future recommendation engines (Fig. 13).

Production embedding tables are outgrowing DRAM and reaching terabytes;
storing the cold portion in SSDs is the path the paper projects.  The model
here answers, for a backend model whose embedding tables are scaled by a
factor ``s``:

* what fraction of the table must live on SSD (given accelerator DRAM
  capacity),
* what the on-chip cache miss rate becomes (the "DRAM miss rate" of
  Figure 13 top: accesses that leave the chip),
* what fraction of SSD access time can be hidden behind frontend processing
  when RPAccel pipelines the stages, and
* the resulting backend embedding-gather time, which the Figure 13 bottom
  experiment feeds into single-stage vs multi-stage RPAccel latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.accel.embedding_cache import EmbeddingCacheConfig
from repro.data.distributions import approx_zipf_hit_rate
from repro.hardware.memory import DramModel, SramModel, SsdModel
from repro.models.cost import FP32_BYTES, GiB, ModelCost


@dataclass(frozen=True)
class SsdScalingPoint:
    """One point of the Figure 13 scaling study."""

    embedding_scale: float
    fraction_in_ssd: float
    onchip_miss_rate: float
    ssd_access_fraction: float
    overlap_fraction: float
    backend_gather_seconds: float

    def __post_init__(self) -> None:
        for name in (
            "fraction_in_ssd",
            "onchip_miss_rate",
            "ssd_access_fraction",
            "overlap_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass
class SsdScalingModel:
    """Embedding locality and gather-time model with an SSD tier."""

    dram_capacity_bytes: ClassVar[int] = 16 * GiB
    #: RPAccel's static embedding cache (its on-chip SRAM less the look-ahead share).
    onchip_cache_bytes: ClassVar[int] = EmbeddingCacheConfig().static_bytes
    zipf_alpha: ClassVar[float] = 1.2
    sram: ClassVar[SramModel] = SramModel()
    dram: ClassVar[DramModel] = DramModel()
    ssd: ClassVar[SsdModel] = SsdModel()

    def fraction_in_ssd(self, cost: ModelCost, embedding_scale: float) -> float:
        """Fraction of the scaled table that exceeds DRAM capacity."""
        if embedding_scale <= 0:
            raise ValueError("embedding_scale must be positive")
        table_bytes = cost.reference_storage_bytes * embedding_scale
        if table_bytes <= self.dram_capacity_bytes:
            return 0.0
        return 1.0 - self.dram_capacity_bytes / table_bytes

    def onchip_miss_rate(self, cost: ModelCost, embedding_scale: float) -> float:
        """Miss rate of the on-chip static cache against the scaled table."""
        row_bytes = cost.embedding_dim * FP32_BYTES
        total_rows = max(cost.reference_storage_bytes * embedding_scale / row_bytes, 1.0)
        cached_rows = self.onchip_cache_bytes / row_bytes
        hit = approx_zipf_hit_rate(total_rows, cached_rows, self.zipf_alpha)
        return 1.0 - hit

    def ssd_access_fraction(self, cost: ModelCost, embedding_scale: float) -> float:
        """Fraction of all lookups that must be served from SSD.

        DRAM acts as a second-level cache holding the hottest rows that do not
        fit on chip; only accesses beyond the DRAM-resident head go to SSD.
        """
        row_bytes = cost.embedding_dim * FP32_BYTES
        total_rows = max(cost.reference_storage_bytes * embedding_scale / row_bytes, 1.0)
        dram_rows = self.dram_capacity_bytes / row_bytes
        hit_dram_or_better = approx_zipf_hit_rate(total_rows, dram_rows, self.zipf_alpha)
        return 1.0 - hit_dram_or_better

    def backend_gather_seconds(
        self,
        cost: ModelCost,
        num_items: int,
        embedding_scale: float,
    ) -> float:
        """Un-overlapped time to gather the backend stage's embedding vectors."""
        if num_items < 0:
            raise ValueError("num_items must be non-negative")
        if num_items == 0:
            return 0.0
        vector_bytes = cost.embedding_dim * FP32_BYTES
        lookups = num_items * cost.embedding_lookups_per_item
        miss = self.onchip_miss_rate(cost, embedding_scale)
        ssd_frac = self.ssd_access_fraction(cost, embedding_scale)
        dram_frac = max(miss - ssd_frac, 0.0)
        onchip_frac = 1.0 - miss
        freq = self.dram.frequency_hz
        onchip_time = (
            lookups * onchip_frac * vector_bytes
            / (self.sram.bandwidth_bytes_per_cycle * freq)
        )
        dram_time = (
            lookups * dram_frac * vector_bytes / self.dram.bandwidth_bytes_per_s
            + self.dram.latency_cycles / freq
        )
        # SSD accesses are batched into page-sized reads; a page holds many
        # vectors, so charge the SSD latency once per outstanding batch of 64.
        ssd_lookups = lookups * ssd_frac
        ssd_time = (
            ssd_lookups * vector_bytes / self.ssd.bandwidth_bytes_per_s
            + (ssd_lookups / 64.0) * self.ssd.latency_s
        )
        return onchip_time + dram_time + ssd_time

    def overlap_fraction(
        self,
        cost: ModelCost,
        num_items: int,
        embedding_scale: float,
        frontend_seconds: float,
    ) -> float:
        """Fraction of backend gather time hidden behind the frontend stage.

        RPAccel prefetches backend embeddings while the frontend processes the
        remaining sub-batches; at most ``frontend_seconds`` of the gather can
        be hidden, so the hidden fraction shrinks as the tables (and therefore
        SSD traffic) grow -- the Figure 13 top trend.
        """
        if frontend_seconds < 0:
            raise ValueError("frontend_seconds must be non-negative")
        gather = self.backend_gather_seconds(cost, num_items, embedding_scale)
        if gather == 0.0:
            return 1.0
        return min(1.0, frontend_seconds / gather)

    def scaling_point(
        self,
        cost: ModelCost,
        num_items: int,
        embedding_scale: float,
        frontend_seconds: float,
    ) -> SsdScalingPoint:
        """Evaluate every Figure 13 metric at one scaling factor."""
        overlap = self.overlap_fraction(cost, num_items, embedding_scale, frontend_seconds)
        return SsdScalingPoint(
            embedding_scale=embedding_scale,
            fraction_in_ssd=self.fraction_in_ssd(cost, embedding_scale),
            onchip_miss_rate=self.onchip_miss_rate(cost, embedding_scale),
            ssd_access_fraction=self.ssd_access_fraction(cost, embedding_scale),
            overlap_fraction=overlap,
            backend_gather_seconds=self.backend_gather_seconds(
                cost, num_items, embedding_scale
            ),
        )
