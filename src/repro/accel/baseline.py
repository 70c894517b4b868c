"""Baseline single-stage recommendation accelerator (Centaur-like).

The baseline the paper compares against (Hwang et al., "Centaur") minimizes
single-stage inference latency with a TPU-like monolithic systolic array and a
static cache for hot embedding vectors.  It is RPAccel's stage model
(:meth:`~repro.accel.rpaccel.RPAccel.query_executions`) with O.2--O.5
switched off over a static-only cache -- the same 16 MB, with no look-ahead
share.  Two properties matter for the comparison with RPAccel:

* the monolithic engine processes one query at a time, executing its stages
  (if any) back to back, so system throughput is bounded by the full
  per-query service time;
* it has no on-chip top-k filtering: when forced to run a multi-stage
  pipeline, the intermediate candidate filtering is offloaded to the host
  processor, paying PCIe transfers and a host-side sort between every pair of
  stages.
"""

from __future__ import annotations

from repro.accel.embedding_cache import EmbeddingCacheConfig
from repro.accel.rpaccel import RPAccel, RPAccelConfig, StageBreakdown
from repro.models.cost import ModelCost
from repro.serving.resources import PipelinePlan, StageResource


class BaselineAccelerator:
    """Per-query latency model and serving plan for the baseline accelerator."""

    def __init__(self) -> None:
        self._stage_model = RPAccel(RPAccelConfig(cache=EmbeddingCacheConfig(lookahead_bytes=0)))

    @property
    def name(self) -> str:
        return "baseline-accel"

    def query_breakdown(
        self,
        stage_costs: list[ModelCost],
        stage_items: list[int],
    ) -> list[StageBreakdown]:
        """Per-stage latency breakdown for one query through the pipeline."""
        executions = self._stage_model.query_executions(
            stage_costs,
            stage_items,
            reconfigurable=False,
            onchip_filter=False,
            lookahead=False,
        )
        return [execution.breakdown for execution in executions]

    def query_latency(
        self, stage_costs: list[ModelCost], stage_items: list[int]
    ) -> float:
        """Unloaded end-to-end latency of one query (stages run back to back)."""
        return sum(b.total_seconds for b in self.query_breakdown(stage_costs, stage_items))

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
