"""RecPipe core: multi-stage pipeline configuration, mapping, and scheduling.

This is the paper's primary contribution: a system that

1. represents a recommendation engine as a multi-stage ranking funnel
   (:class:`~repro.core.pipeline.PipelineConfig`),
2. evaluates each configuration's quality (via :mod:`repro.quality`) and
   performance (by mapping it onto CPUs, GPUs, heterogeneous CPU-GPU systems
   or accelerators -- :mod:`repro.core.mapping` -- and simulating it at scale
   with :mod:`repro.serving`), and
3. exhaustively explores the design space to find the configurations that
   maximize quality under tail-latency and throughput constraints
   (:class:`~repro.core.scheduler.RecPipeScheduler`).
"""

from repro.core.pareto import pareto_frontier
from repro.core.pipeline import PipelineConfig, Stage, enumerate_pipelines
from repro.core.mapping import build_accelerator_plan, build_heterogeneous_plan
from repro.core.scheduler import EvaluatedConfig, RecPipeScheduler
from repro.core.sweep import SweepConfig, SweepOutcome, run_sweep

__all__ = [
    "Stage",
    "PipelineConfig",
    "enumerate_pipelines",
    "pareto_frontier",
    "build_heterogeneous_plan",
    "build_accelerator_plan",
    "RecPipeScheduler",
    "EvaluatedConfig",
    "SweepConfig",
    "SweepOutcome",
    "run_sweep",
]
