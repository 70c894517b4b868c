"""The RecPipe scheduler: exhaustive design-space exploration.

The scheduler combines the three ingredients of the paper's methodology:

1. the multi-stage configuration space (models per stage x items per stage x
   number of stages) from :func:`repro.core.pipeline.enumerate_pipelines`,
2. quality evaluation over a query workload (:class:`repro.quality.QualityEvaluator`),
3. performance evaluation by mapping each configuration onto a hardware
   platform and simulating it under Poisson load (:mod:`repro.core.mapping` +
   :mod:`repro.serving`).

Its outputs are the cross-sections the paper analyzes: quality/latency
Pareto frontiers at a fixed load (iso-throughput), latency/throughput curves
at a fixed quality target (iso-quality), and the best configuration meeting a
tail-latency SLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.mapping import (
    DEVICE_PLATFORMS,
    HardwarePool,
    build_accelerator_plan,
    build_heterogeneous_plan,
)
from repro.core.pareto import pareto_frontier
from repro.core.pipeline import PipelineConfig
from repro.quality.evaluator import QualityEvaluator
from repro.serving.metrics import LatencyReport
from repro.serving.resources import PipelinePlan
from repro.serving.simulator import SimulationConfig, simulate


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
    hardware : HardwarePool
        The CPU/GPU/PCIe/accelerator models plans are built against.
    simulation : SimulationConfig
        At-scale simulation budget, seed and engine selection.
    num_tables : int
        Embedding tables of the workload (26 Criteo, 2 MovieLens).
    """

    evaluator: QualityEvaluator
    hardware: HardwarePool = field(default_factory=HardwarePool)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    num_tables: int = 26

    # ------------------------------------------------------------------ #
    # Plan construction
    # ------------------------------------------------------------------ #
    def plan_for(
        self,
        pipeline: PipelineConfig,
        platform: str,
        devices: Sequence[str] | None = None,
        **accel_kwargs,
    ) -> PipelinePlan:
        """Build the serving plan of ``pipeline`` on ``platform``.

        ``platform`` is one of ``"cpu"`` (every stage on the CPU), ``"gpu"``
        (every stage on the GPU), ``"gpu-cpu"`` (the frontend stage on the
        GPU, the rest on the CPU), ``"baseline-accel"`` or ``"rpaccel"``.
        The first three map one device list (``devices``, when given,
        overrides the platform's) through
        :func:`~repro.core.mapping.build_heterogeneous_plan`.
        """
        hw = self.hardware
        if platform in DEVICE_PLATFORMS:
            if devices is None:
                first, later = DEVICE_PLATFORMS[platform]
                devices = [first] + [later] * (pipeline.num_stages - 1)
            return build_heterogeneous_plan(
                pipeline, devices, hw.cpu, hw.gpu, hw.pcie, num_tables=self.num_tables
            )
        if platform == "baseline-accel":
            return build_accelerator_plan(pipeline, hw.baseline_accel, num_tables=self.num_tables)
        if platform == "rpaccel":
            return build_accelerator_plan(
                pipeline, hw.rpaccel, num_tables=self.num_tables, **accel_kwargs
            )
        raise ValueError(
            f"unknown platform {platform!r}; expected cpu, gpu, gpu-cpu, "
            "baseline-accel or rpaccel"
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        pipeline: PipelineConfig,
        platform: str,
        qps: float,
        devices: Sequence[str] | None = None,
        sub_batches: int = 1,
        quality: float | None = None,
        **accel_kwargs,
    ) -> EvaluatedConfig:
        """Quality + at-scale performance of one configuration on one platform.

        Quality is independent of the platform and the offered load, so
        callers sweeping many (platform, qps) cells can compute it once per
        pipeline (see :meth:`quality_map`) and pass it via ``quality`` to
        skip the evaluator entirely.
        """
        return self.evaluate_grid(
            pipeline,
            platform,
            (qps,),
            devices=devices,
            sub_batches=sub_batches,
            quality=quality,
            **accel_kwargs,
        )[0]

    def evaluate_grid(
        self,
        pipeline: PipelineConfig,
        platform: str,
        qps_values: Sequence[float],
        devices: Sequence[str] | None = None,
        sub_batches: int = 1,
        quality: float | None = None,
        seed: int | None = None,
        **accel_kwargs,
    ) -> list[EvaluatedConfig]:
        """Evaluate one (pipeline, platform) column across every offered load.

        The plan is constructed once and the whole column is one
        :func:`~repro.serving.simulator.simulate` call (one arrival draw, one
        vectorized kernel pass on the analytic engine) whose live rows are
        summarized by one report call.  Saturated loads are not simulated --
        they report infinite tail latency, as in the paper's greyed-out
        cells.

        Parameters
        ----------
        pipeline : PipelineConfig
            The funnel to evaluate.
        platform : str
            Hardware platform (see :meth:`plan_for`).
        qps_values : sequence of float
            Offered loads of the column.
        devices : sequence of str, optional
            Per-stage device pinning for ``gpu-cpu`` mappings.
        sub_batches : int
            Sub-batch pipelining factor forwarded to the quality evaluator.
        quality : float, optional
            Precomputed platform-independent quality (skips the evaluator).
        seed : int, optional
            Overrides the simulation seed for this column (see
            :func:`repro.core.sweep.column_seeds`).
        **accel_kwargs
            Forwarded to the accelerator plan builder.

        Returns
        -------
        list[EvaluatedConfig]
            One record per load, in ``qps_values`` order.
        """
        quality_value = (
            self.evaluator.evaluate(pipeline.funnel_stages(), sub_batches=sub_batches)
            if quality is None
            else quality
        )
        plan = self.plan_for(pipeline, platform, devices=devices, **accel_kwargs)
        capacity = plan.throughput_capacity()
        unloaded = plan.unloaded_latency()
        qps_list = [float(qps) for qps in qps_values]
        live, arrivals, latencies = simulate(plan, qps_list, self.simulation, seed=seed)
        offered = [qps for qps, ok in zip(qps_list, live) if ok]
        reports = iter(
            LatencyReport.from_latencies(latencies, arrivals, offered, [False] * len(offered))
            if offered
            else ()
        )
        return [
            EvaluatedConfig(
                pipeline=pipeline,
                platform=platform,
                quality=quality_value,
                p99_latency=next(reports).p99_latency if ok else float("inf"),
                unloaded_latency=unloaded,
                throughput_capacity=capacity,
                offered_qps=qps,
                saturated=not ok,
            )
            for qps, ok in zip(qps_list, live.tolist())
        ]

    def quality_map(
        self, pipelines: Sequence[PipelineConfig], sub_batches: int = 1
    ) -> dict[str, float]:
        """Quality of each unique pipeline, evaluated once per pipeline.

        The returned dict is the memo that :func:`repro.core.sweep.run_sweep`
        shares across every (platform, qps) cell: quality depends only on the
        funnel configuration, never on the hardware mapping or offered load.
        """
        qualities: dict[str, float] = {}
        for pipeline in pipelines:
            if pipeline.name not in qualities:
                qualities[pipeline.name] = self.evaluator.evaluate(
                    pipeline.funnel_stages(), sub_batches=sub_batches
                )
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
        key: Callable[[EvaluatedConfig], float] | None = None,
    ) -> EvaluatedConfig | None:
        """Lowest-latency feasible configuration meeting the quality target."""
        key = key if key is not None else (lambda e: e.p99_latency)
        candidates = [e for e in evaluated if e.feasible and e.quality >= quality_target]
        if not candidates:
            return None
        return min(candidates, key=key)

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
