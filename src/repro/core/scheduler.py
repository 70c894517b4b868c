"""The RecPipe scheduler: exhaustive design-space exploration.

The scheduler combines the three ingredients of the paper's methodology:

1. the multi-stage configuration space (models per stage x items per stage x
   number of stages) from :func:`repro.core.pipeline.enumerate_pipelines`,
2. quality evaluation over a query workload (:class:`repro.quality.QualityEvaluator`),
3. performance evaluation by mapping each configuration onto a hardware
   platform (:meth:`RecPipeScheduler.plan_for`, :mod:`repro.core.mapping`)
   and reading its p99 under Poisson load at every offered load of a column
   from one :func:`repro.serving.simulator.simulated_p99` call.

Its outputs are the cross-sections the paper analyzes: quality/latency
Pareto frontiers at a fixed load (iso-throughput), latency/throughput curves
at a fixed quality target (iso-quality), and the best configuration meeting a
tail-latency SLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.mapping import PLATFORMS, build_heterogeneous_plan
from repro.core.pareto import pareto_frontier
from repro.core.pipeline import PipelineConfig
from repro.data.criteo import NUM_TABLES
from repro.quality.evaluator import QualityEvaluator
from repro.serving.resources import PipelinePlan
from repro.serving.simulator import SimulationConfig, simulated_p99


@dataclass(frozen=True)
class EvaluatedConfig:
    """One pipeline configuration mapped to one platform and load."""

    pipeline: PipelineConfig
    platform: str
    quality: float
    p99_latency: float
    unloaded_latency: float
    throughput_capacity: float
    offered_qps: float
    saturated: bool

    @property
    def feasible(self) -> bool:
        """Whether the platform sustained the offered load at all."""
        return not self.saturated

    def meets(self, quality_target: float, sla_seconds: float) -> bool:
        """Whether this evaluation satisfies both application targets."""
        return (
            self.feasible
            and self.quality >= quality_target
            and self.p99_latency <= sla_seconds
        )


@dataclass
class RecPipeScheduler:
    """Explore multi-stage configurations across heterogeneous hardware.

    Parameters
    ----------
    evaluator : QualityEvaluator
        Ranking-quality (NDCG) evaluator over the target workload's queries.
    simulation : SimulationConfig
        At-scale simulation budget, seed and engine selection.
    num_tables : int
        Embedding tables of the workload (26 Criteo, 2 MovieLens).
    """

    evaluator: QualityEvaluator
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    num_tables: int = NUM_TABLES

    # ------------------------------------------------------------------ #
    # Plan construction
    # ------------------------------------------------------------------ #
    def plan_for(self, pipeline: PipelineConfig, platform: str) -> PipelinePlan:
        """Build the serving plan of ``pipeline`` on ``platform``.

        ``platform`` is a key of :data:`repro.core.mapping.PLATFORMS`.  A
        device pair runs the first stage on its first device and the rest on
        its second (:func:`~repro.core.mapping.build_heterogeneous_plan`);
        an accelerator builds its default plan.
        """
        if platform not in PLATFORMS:
            raise ValueError(f"unknown platform {platform!r}; expected one of {tuple(PLATFORMS)}")
        entry = PLATFORMS[platform]
        if isinstance(entry, tuple):
            first, later = entry
            devices = [first] + [later] * (pipeline.num_stages - 1)
            return build_heterogeneous_plan(pipeline, devices, num_tables=self.num_tables)
        return entry.plan_query(pipeline.stage_costs(self.num_tables), pipeline.stage_items())

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, pipeline: PipelineConfig, platform: str, qps: float) -> EvaluatedConfig:
        """Quality + at-scale performance of one configuration on one platform at one load.

        Quality is independent of the platform and the offered load, so
        callers sweeping many (platform, qps) cells compute it once per
        pipeline (see :meth:`quality_map`) and pass it to
        :meth:`evaluate_grid` instead.
        """
        return self.evaluate_grid(pipeline, platform, (qps,))[0]

    def evaluate_grid(
        self,
        pipeline: PipelineConfig,
        platform: str,
        qps_values: Sequence[float],
        quality: float | None = None,
        seed: int | None = None,
    ) -> list[EvaluatedConfig]:
        """Evaluate one (pipeline, platform) column across every offered load.

        The plan is constructed once and the whole column's p99s come from
        one :func:`~repro.serving.simulator.simulated_p99` call (one arrival
        draw, one vectorized kernel pass on the analytic engine, one report
        call).  Saturated loads are not simulated -- they report infinite
        tail latency, as in the paper's greyed-out cells, and a load is
        flagged saturated exactly where its p99 is ``inf``.

        Parameters
        ----------
        pipeline : PipelineConfig
            The funnel to evaluate.
        platform : str
            Hardware platform (see :meth:`plan_for`).
        qps_values : sequence of float
            Offered loads of the column.
        quality : float, optional
            Precomputed platform-independent quality (skips the evaluator).
        seed : int, optional
            Overrides the simulation seed for this column (see
            :func:`repro.core.sweep.column_seeds`).

        Returns
        -------
        list[EvaluatedConfig]
            One record per load, in ``qps_values`` order.
        """
        quality_value = self.evaluator.evaluate_pipeline(pipeline) if quality is None else quality
        plan = self.plan_for(pipeline, platform)
        capacity = plan.throughput_capacity()
        unloaded = plan.unloaded_latency()
        qps_list = [float(qps) for qps in qps_values]
        p99s = simulated_p99(plan, qps_list, self.simulation, seed=seed).tolist()
        return [
            EvaluatedConfig(
                pipeline=pipeline,
                platform=platform,
                quality=quality_value,
                p99_latency=p99,
                unloaded_latency=unloaded,
                throughput_capacity=capacity,
                offered_qps=qps,
                saturated=p99 == float("inf"),
            )
            for qps, p99 in zip(qps_list, p99s)
        ]

    def quality_map(self, pipelines: Sequence[PipelineConfig]) -> dict[str, float]:
        """Quality of each unique pipeline, evaluated once per pipeline.

        The returned dict is the memo that :func:`repro.core.sweep.run_sweep`
        shares across every (platform, qps) cell: quality depends only on the
        funnel configuration, never on the hardware mapping or offered load.
        """
        qualities: dict[str, float] = {}
        for pipeline in pipelines:
            if pipeline.name not in qualities:
                qualities[pipeline.name] = self.evaluator.evaluate_pipeline(pipeline)
        return qualities

    # ------------------------------------------------------------------ #
    # Cross-sections of the design space
    # ------------------------------------------------------------------ #
    def quality_latency_frontier(
        self, evaluated: Sequence[EvaluatedConfig]
    ) -> list[EvaluatedConfig]:
        """Pareto frontier of (maximize quality, minimize p99) at fixed load."""
        feasible = [e for e in evaluated if e.feasible]
        return pareto_frontier(
            feasible,
            objectives=lambda e: (e.quality, e.p99_latency),
            minimize=[False, True],
        )

    def best_at_iso_quality(
        self,
        evaluated: Sequence[EvaluatedConfig],
        quality_target: float,
    ) -> EvaluatedConfig | None:
        """Lowest-latency feasible configuration meeting the quality target."""
        candidates = [e for e in evaluated if e.feasible and e.quality >= quality_target]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.p99_latency)

    def best_quality_under_sla(
        self,
        evaluated: Sequence[EvaluatedConfig],
        sla_seconds: float,
    ) -> EvaluatedConfig | None:
        """Highest-quality feasible configuration within the latency SLA.

        Quality ties break toward the lower tail latency, so pooling
        several platforms' evaluations picks the fastest platform among
        equal-quality candidates.
        """
        candidates = [e for e in evaluated if e.feasible and e.p99_latency <= sla_seconds]
        if not candidates:
            return None
        return max(candidates, key=lambda e: (e.quality, -e.p99_latency))
