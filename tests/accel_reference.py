"""Reference accelerator cost models the one stage loop is checked against.

These are the two per-stage cost functions the accelerator layer had
before :meth:`repro.accel.rpaccel.RPAccel.query_executions` became the
only one, kept verbatim in logic:

* :class:`ReferenceBaselineAccelerator` with its :class:`BaselineConfig` -- the
  baseline's own ``stage_breakdown`` over a monolithic array and a 16 MB
  static-only cache, with host-side filtering between stages;
* :class:`ReferenceRPAccel` -- RPAccel with its ten-parameter
  ``stage_execution`` called once per stage by ``query_executions``, and
  the ``plan_query`` built on it.

The equivalence suite in ``tests/test_accel_equivalence.py`` requires the
accelerator layer to reproduce both exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.embedding_cache import EmbeddingCacheConfig, MultiStageEmbeddingCache
from repro.accel.rpaccel import RPAccel, StageExecution
from repro.accel.systolic import ReconfigurableArray, SubArray, SystolicArrayConfig
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


class ReferenceBaselineAccelerator:
    """Per-query latency model and serving plan for the baseline accelerator."""

    def __init__(self, config: BaselineConfig | None = None) -> None:
        self.config = config if config is not None else BaselineConfig()
        self._array = ReconfigurableArray().monolithic
        self._cache = MultiStageEmbeddingCache(config=self.config.cache)

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
        mlp = self._array.mlp_seconds(cost, num_items)
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


class ReferenceRPAccel(RPAccel):
    """RPAccel whose stages are costed one ``stage_execution`` call at a time."""

    def stage_execution(
        self,
        cost: ModelCost,
        num_items: int,
        subarray: SubArray,
        num_subarrays: int,
        is_first_stage: bool,
        next_stage_items: int | None,
        hit_rate: float,
        onchip_filter: bool = True,
        lookahead: bool = True,
        prefetch_overlap: float = 0.0,
    ) -> StageExecution:
        """Latency breakdown of one stage on one of its sub-arrays."""
        cfg = self.config
        mlp = subarray.mlp_seconds(cost, num_items)
        overlap = prefetch_overlap if lookahead else 0.0
        # The dual static + look-ahead cache design keeps more embedding
        # misses in flight than the baseline's single static cache.
        outstanding = 32 if lookahead else 8
        embedding = self.cache.gather_seconds(
            cost,
            num_items,
            hit_rate,
            overlap_fraction=overlap,
            outstanding_misses=outstanding,
        )
        pcie = 0.0
        if is_first_stage:
            pcie += cfg.pcie.transfer_seconds(
                cfg.pcie.candidate_payload_bytes(
                    num_items, cfg.num_dense_features, cfg.num_sparse_features
                )
            )
        filter_s = 0.0
        if next_stage_items is not None:
            if onchip_filter:
                cycles = self.topk.filter_cycles(num_items, next_stage_items)
                filter_s = cycles / cfg.array.frequency_hz
            else:
                filter_s = host_filter_seconds(cfg.pcie, num_items, next_stage_items)
        breakdown = StageBreakdown(
            name=cost.name,
            mlp_seconds=mlp,
            embedding_seconds=embedding,
            filter_seconds=filter_s,
            pcie_seconds=pcie,
            overhead_seconds=cfg.per_stage_overhead_s,
        )
        return StageExecution(breakdown=breakdown, num_subarrays=num_subarrays)

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
        """Map every stage of one query onto the accelerator."""
        if len(stage_costs) != len(stage_items) or not stage_costs:
            raise ValueError("stage_costs and stage_items must be non-empty parallel lists")
        num_stages = len(stage_costs)
        if subarrays_per_stage is None:
            subarrays_per_stage = self.default_subarrays_per_stage(num_stages)
        if len(subarrays_per_stage) != num_stages:
            raise ValueError("subarrays_per_stage must have one entry per stage")
        fractions = self.default_fractions(stage_costs, stage_items)

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
            # preceding stage's execution; the first stage has nothing to
            # hide behind.
            prefetch_overlap = 0.0 if i == 0 else 0.8
            next_items = stage_items[i + 1] if i + 1 < len(stage_items) else None
            executions.append(
                self.stage_execution(
                    cost,
                    items,
                    subarray=subarray,
                    num_subarrays=servers,
                    is_first_stage=(i == 0),
                    next_stage_items=next_items,
                    hit_rate=partitions[i].hit_rate,
                    onchip_filter=onchip_filter,
                    lookahead=lookahead,
                    prefetch_overlap=prefetch_overlap,
                )
            )
        return executions

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
