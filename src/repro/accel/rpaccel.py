"""RPAccel: the multi-stage recommendation accelerator proposed by the paper.

RPAccel starts from the baseline TPU-like design and adds five co-designed
features (Section 3.2 / Figure 5):

* **O.1 multi-stage execution** -- the workload itself is a RecPipe funnel, so
  backend models only rank the filtered candidates;
* **O.2 on-chip top-k filtering units** -- intermediate filtering never leaves
  the chip, eliminating the host PCIe round-trip the baseline pays;
* **O.3 reconfigurable (fission) systolic array** -- the monolithic array is
  split into sub-arrays so frontend and backend stages of *different* queries
  execute concurrently, raising MAC utilization and throughput;
* **O.4 dual embedding caches** -- a static hot-row cache partitioned across
  stages plus a look-ahead cache that prefetches backend vectors while the
  frontend runs;
* **O.5 sub-batch pipelining** -- queries are split into sub-batches so the
  backend starts as soon as the first frontend sub-batch has been filtered.

Every feature can be toggled independently in :meth:`RPAccel.plan_query`,
which is how the Figure 5 ablation is produced.  :meth:`RPAccel.query_executions`
is the one per-stage accelerator cost model: with O.2--O.5 switched off over
a static-only cache it is the Centaur-like baseline
(:class:`~repro.accel.baseline.BaselineAccelerator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.accel.area_power import AreaPowerBreakdown, AreaPowerModel
from repro.accel.embedding_cache import EmbeddingCacheConfig, MultiStageEmbeddingCache
from repro.accel.systolic import ReconfigurableArray, SystolicArrayConfig
from repro.accel.topk import TopKFilterConfig, TopKFilterUnit
from repro.data.criteo import NUM_DENSE_FEATURES, NUM_TABLES
from repro.hardware.pcie import PCIeModel
from repro.models.cost import ModelCost
from repro.serving.resources import PipelinePlan, StageResource


#: Host-side sorting cost per candidate when filtering between stages.
HOST_SORT_SECONDS_PER_ITEM = 25e-9


def host_filter_seconds(num_items: int, next_stage_items: int) -> float:
    """Host-side filtering: ship scores out, sort on the host, ship the survivors' ids back."""
    pcie = RPAccelConfig.pcie
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
class RPAccelConfig:
    """Fixed resources of RPAccel (Table 3)."""

    array: ClassVar[SystolicArrayConfig] = SystolicArrayConfig()
    cache: EmbeddingCacheConfig = field(default_factory=EmbeddingCacheConfig)
    topk: ClassVar[TopKFilterConfig] = TopKFilterConfig()
    pcie: ClassVar[PCIeModel] = PCIeModel()
    #: features shipped per candidate: Criteo's, for every dataset.
    num_dense_features: ClassVar[int] = NUM_DENSE_FEATURES
    num_sparse_features: ClassVar[int] = NUM_TABLES
    #: number of sub-batches a query is split into for pipelining (Takeaway 4).
    sub_batches: int = 4
    #: per-stage control / weight-load / reconfiguration overhead (seconds).
    per_stage_overhead_s: ClassVar[float] = 60e-6
    #: per-query host-interface and sequencing overhead on the shared
    #: front-end (input staging, descriptor setup); this is the shared-
    #: resource term that bounds RPAccel's throughput.
    sequencer_overhead_s: ClassVar[float] = 50e-6

    def __post_init__(self) -> None:
        if self.sub_batches <= 0:
            raise ValueError("sub_batches must be positive")


@dataclass(frozen=True)
class StageExecution:
    """One stage's mapping onto RPAccel: latency breakdown plus resources."""

    breakdown: StageBreakdown
    num_subarrays: int

    @property
    def service_seconds(self) -> float:
        return self.breakdown.total_seconds


class RPAccel:
    """Per-query latency model and serving plan for RPAccel."""

    def __init__(self, config: RPAccelConfig | None = None) -> None:
        self.config = config if config is not None else RPAccelConfig()
        self.array = ReconfigurableArray()
        self.cache = MultiStageEmbeddingCache(config=self.config.cache)
        self.topk = TopKFilterUnit(self.config.topk)

    @property
    def name(self) -> str:
        return "rpaccel"

    def area_power(self) -> AreaPowerBreakdown:
        """Die area and power: the baseline's plus RPAccel's additions (Figure 11)."""
        return AreaPowerModel().rpaccel_breakdown()

    # ------------------------------------------------------------------ #
    # Resource provisioning
    # ------------------------------------------------------------------ #
    def default_subarrays_per_stage(self, num_stages: int) -> list[int]:
        """Default partition counts: 8 sub-arrays per stage (RPAccel8,8)."""
        if num_stages <= 0:
            raise ValueError("num_stages must be positive")
        if num_stages == 1:
            return [2]
        return [8] * num_stages

    def default_fractions(
        self, stage_costs: list[ModelCost], stage_items: list[int]
    ) -> list[float]:
        """MAC fraction per stage, proportional to each stage's MLP demand."""
        demands = [
            max(cost.macs_per_item * items, 1.0)
            for cost, items in zip(stage_costs, stage_items)
        ]
        total = sum(demands)
        # Every stage gets a 10% floor so tiny frontends still get enough
        # columns to map their layers; the rest is split proportionally.
        floor = 0.10
        num_stages = len(demands)
        if floor * num_stages >= 1.0:
            return [1.0 / num_stages] * num_stages
        remaining = 1.0 - floor * num_stages
        return [floor + remaining * d / total for d in demands]

    # ------------------------------------------------------------------ #
    # Per-stage latency
    # ------------------------------------------------------------------ #
    def query_executions(
        self,
        stage_costs: list[ModelCost],
        stage_items: list[int],
        subarrays_per_stage: list[int] | None = None,
        reconfigurable: bool = True,
        onchip_filter: bool = True,
        lookahead: bool = True,
        frontend_cache_fraction: float | None = None,
    ) -> list[StageExecution]:
        """Map every stage of one query onto the accelerator.

        A stage runs its MLP on its sub-array (the monolithic array when
        ``reconfigurable`` is off) and gathers its embeddings through its
        share of the static cache.  The first stage also receives the
        candidates over PCIe, and every stage but the last filters down to
        the next stage's items: on chip, or on the host over PCIe when
        ``onchip_filter`` is off.
        """
        if len(stage_costs) != len(stage_items) or not stage_costs:
            raise ValueError("stage_costs and stage_items must be non-empty parallel lists")
        num_stages = len(stage_costs)
        if subarrays_per_stage is None:
            subarrays_per_stage = self.default_subarrays_per_stage(num_stages)
        if len(subarrays_per_stage) != num_stages:
            raise ValueError("subarrays_per_stage must have one entry per stage")
        fractions = self.default_fractions(stage_costs, stage_items)

        cfg = self.config
        partitions = self.cache.partition_static_cache(
            stage_costs, frontend_fraction=frontend_cache_fraction
        )
        executions = []
        for i, (cost, items) in enumerate(zip(stage_costs, stage_items)):
            if reconfigurable:
                subarray = self.array.split(subarrays_per_stage[i], fractions[i])[0]
                servers = subarrays_per_stage[i]
            else:
                subarray = self.array.monolithic
                servers = 1
            # The look-ahead cache can hide backend misses behind the
            # preceding stage's execution (the first stage has nothing to
            # hide behind), and the dual static + look-ahead design keeps
            # more misses in flight than a single static cache.
            embedding = self.cache.gather_seconds(
                cost,
                items,
                partitions[i].hit_rate,
                overlap_fraction=0.8 if lookahead and i > 0 else 0.0,
                outstanding_misses=32 if lookahead else 8,
            )
            pcie = 0.0
            if i == 0:
                pcie = cfg.pcie.transfer_seconds(
                    cfg.pcie.candidate_payload_bytes(
                        items, cfg.num_dense_features, cfg.num_sparse_features
                    )
                )
            filter_s = 0.0
            if i + 1 < num_stages:
                next_items = stage_items[i + 1]
                if onchip_filter:
                    filter_s = self.topk.filter_cycles(items, next_items) / cfg.array.frequency_hz
                else:
                    filter_s = host_filter_seconds(items, next_items)
            breakdown = StageBreakdown(
                name=cost.name,
                mlp_seconds=subarray.mlp_seconds(cost, items),
                embedding_seconds=embedding,
                filter_seconds=filter_s,
                pcie_seconds=pcie,
                overhead_seconds=cfg.per_stage_overhead_s,
            )
            executions.append(StageExecution(breakdown=breakdown, num_subarrays=servers))
        return executions

    # ------------------------------------------------------------------ #
    # Serving plan
    # ------------------------------------------------------------------ #
    def plan_query(
        self,
        stage_costs: list[ModelCost],
        stage_items: list[int],
        subarrays_per_stage: list[int] | None = None,
        reconfigurable: bool = True,
        onchip_filter: bool = True,
        lookahead: bool = True,
        pipelined: bool = True,
        frontend_cache_fraction: float | None = None,
    ) -> PipelinePlan:
        """Build the at-scale serving plan for one pipeline configuration.

        The plan contains a shared per-query sequencer resource (host
        interface + input staging over PCIe), then for each stage a shared
        embedding-gather resource (there is one gather unit / cache pair per
        stage) followed by the stage's MLP resource whose server count is its
        sub-array allocation.  When the reconfigurable array is disabled the
        plan degenerates to the baseline's monolithic, serialized behaviour.
        """
        executions = self.query_executions(
            stage_costs,
            stage_items,
            subarrays_per_stage=subarrays_per_stage,
            reconfigurable=reconfigurable,
            onchip_filter=onchip_filter,
            lookahead=lookahead,
            frontend_cache_fraction=frontend_cache_fraction,
        )
        cfg = self.config
        forward = 1.0 / cfg.sub_batches if pipelined else 1.0
        sequencer_service = cfg.sequencer_overhead_s + executions[0].breakdown.pcie_seconds
        stages = [
            StageResource(
                name=f"{self.name}:sequencer",
                num_servers=1,
                service_seconds=sequencer_service,
            )
        ]
        if not reconfigurable:
            # Monolithic execution: one engine serializes every stage.
            total = sum(e.service_seconds - e.breakdown.pcie_seconds for e in executions)
            stages.append(
                StageResource(
                    name=f"{self.name}:monolithic",
                    num_servers=1,
                    service_seconds=total,
                    forward_fraction=1.0,
                )
            )
        else:
            for i, execution in enumerate(executions):
                brk = execution.breakdown
                if brk.embedding_seconds > 0:
                    stages.append(
                        StageResource(
                            name=f"{self.name}:gather{i}:{brk.name}",
                            num_servers=1,
                            service_seconds=brk.embedding_seconds,
                            forward_fraction=forward,
                        )
                    )
                compute = brk.mlp_seconds + brk.filter_seconds + brk.overhead_seconds
                stages.append(
                    StageResource(
                        name=f"{self.name}:stage{i}:{brk.name}",
                        num_servers=execution.num_subarrays,
                        service_seconds=compute,
                        forward_fraction=forward,
                    )
                )
        description = (
            f"{len(stage_costs)}-stage pipeline on RPAccel "
            f"(subarrays={[e.num_subarrays for e in executions]}, "
            f"sub_batches={cfg.sub_batches if pipelined else 1})"
        )
        return PipelinePlan(platform=self.name, stages=stages, description=description)
