"""Baseline single-stage recommendation accelerator (Centaur-like).

The baseline the paper compares against (Hwang et al., "Centaur") minimizes
single-stage inference latency with a TPU-like monolithic systolic array and a
static cache for hot embedding vectors.  Two properties matter for the
comparison with RPAccel:

* the monolithic engine processes one query at a time, executing its stages
  (if any) back to back, so system throughput is bounded by the full
  per-query service time;
* it has no on-chip top-k filtering: when forced to run a multi-stage
  pipeline, the intermediate candidate filtering is offloaded to the host
  processor, paying PCIe transfers and a host-side sort between every pair of
  stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.embedding_cache import EmbeddingCacheConfig, MultiStageEmbeddingCache
from repro.accel.systolic import ReconfigurableArray, SystolicArrayConfig
from repro.hardware.memory import DramModel
from repro.hardware.pcie import PCIeModel
from repro.models.cost import ModelCost
from repro.serving.resources import PipelinePlan, StageResource


#: Host-side sorting cost per candidate when filtering between stages.
HOST_SORT_SECONDS_PER_ITEM = 25e-9


def host_filter_seconds(pcie: PCIeModel, num_items: int, next_stage_items: int) -> float:
    """Host-side filtering: ship scores out, sort on the host, ship the survivors' ids back."""
    return (
        pcie.transfer_seconds(pcie.score_payload_bytes(num_items))
        + num_items * HOST_SORT_SECONDS_PER_ITEM
        + pcie.transfer_seconds(4 * next_stage_items)
    )


@dataclass(frozen=True)
class StageBreakdown:
    """Latency components of one stage execution on an accelerator."""

    name: str
    mlp_seconds: float
    embedding_seconds: float
    filter_seconds: float
    pcie_seconds: float
    overhead_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.mlp_seconds
            + self.embedding_seconds
            + self.filter_seconds
            + self.pcie_seconds
            + self.overhead_seconds
        )


@dataclass(frozen=True)
class BaselineConfig:
    """Fixed resources of the baseline accelerator (Table 3 equivalents)."""

    array: SystolicArrayConfig = field(default_factory=SystolicArrayConfig)
    cache: EmbeddingCacheConfig = field(
        default_factory=lambda: EmbeddingCacheConfig(lookahead_bytes=0)
    )
    pcie: PCIeModel = field(default_factory=PCIeModel)
    dram: DramModel = field(default_factory=DramModel)
    num_dense_features: int = 13
    num_sparse_features: int = 26
    #: per-stage control / weight-reconfiguration overhead (seconds).
    per_stage_overhead_s: float = 60e-6


class BaselineAccelerator:
    """Per-query latency model and serving plan for the baseline accelerator."""

    def __init__(self, config: BaselineConfig | None = None) -> None:
        self.config = config if config is not None else BaselineConfig()
        self._array = ReconfigurableArray(self.config.array).monolithic
        self._cache = MultiStageEmbeddingCache(config=self.config.cache, dram=self.config.dram)

    @property
    def name(self) -> str:
        return "baseline-accel"

    # ------------------------------------------------------------------ #
    # Per-stage latency
    # ------------------------------------------------------------------ #
    def stage_breakdown(
        self,
        cost: ModelCost,
        num_items: int,
        is_first_stage: bool,
        next_stage_items: int | None,
        hit_rate: float,
    ) -> StageBreakdown:
        """Latency components of running one stage on the monolithic engine."""
        cfg = self.config
        mlp = self._array.mlp_seconds(cost, num_items, cfg.dram)
        embedding = self._cache.gather_seconds(cost, num_items, hit_rate)
        pcie = 0.0
        if is_first_stage:
            pcie += cfg.pcie.transfer_seconds(
                cfg.pcie.candidate_payload_bytes(
                    num_items, cfg.num_dense_features, cfg.num_sparse_features
                )
            )
        filter_s = 0.0
        if next_stage_items is not None:
            filter_s = host_filter_seconds(cfg.pcie, num_items, next_stage_items)
        return StageBreakdown(
            name=cost.name,
            mlp_seconds=mlp,
            embedding_seconds=embedding,
            filter_seconds=filter_s,
            pcie_seconds=pcie,
            overhead_seconds=cfg.per_stage_overhead_s,
        )

    def query_breakdown(
        self,
        stage_costs: list[ModelCost],
        stage_items: list[int],
    ) -> list[StageBreakdown]:
        """Per-stage latency breakdown for one query through the pipeline."""
        if len(stage_costs) != len(stage_items) or not stage_costs:
            raise ValueError("stage_costs and stage_items must be non-empty parallel lists")
        partitions = self._cache.partition_static_cache(stage_costs)
        breakdowns = []
        for i, (cost, items) in enumerate(zip(stage_costs, stage_items)):
            next_items = stage_items[i + 1] if i + 1 < len(stage_items) else None
            breakdowns.append(
                self.stage_breakdown(
                    cost,
                    items,
                    is_first_stage=(i == 0),
                    next_stage_items=next_items,
                    hit_rate=partitions[i].hit_rate,
                )
            )
        return breakdowns

    def query_latency(
        self, stage_costs: list[ModelCost], stage_items: list[int]
    ) -> float:
        """Unloaded end-to-end latency of one query (stages run back to back)."""
        return sum(b.total_seconds for b in self.query_breakdown(stage_costs, stage_items))

    # ------------------------------------------------------------------ #
    # Serving plan
    # ------------------------------------------------------------------ #
    def plan_query(
        self, stage_costs: list[ModelCost], stage_items: list[int]
    ) -> PipelinePlan:
        """Serving-time plan: one monolithic engine serializes the whole query."""
        latency = self.query_latency(stage_costs, stage_items)
        stage_names = "+".join(c.name for c in stage_costs)
        return PipelinePlan(
            platform=self.name,
            stages=[
                StageResource(
                    name=f"{self.name}:{stage_names}",
                    num_servers=1,
                    service_seconds=latency,
                )
            ],
            description=(
                f"{len(stage_costs)}-stage pipeline on the monolithic baseline "
                "accelerator (host-side inter-stage filtering)"
            ),
        )
