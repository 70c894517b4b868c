"""Figure 14: cross-dataset, cross-load, cross-platform summary at iso-quality.

For each dataset (Criteo, MovieLens-1M, MovieLens-20M), system load (QPS 100,
500, 2000) and hardware platform (CPU, GPU/GPU-CPU, accelerator), the paper
reports the tail latency of the best one-, two- and three-stage designs,
greying out configurations that cannot sustain the load.  The optimal number
of stages varies across loads, platforms and datasets.
"""

from __future__ import annotations

from repro.core.scheduler import RecPipeScheduler
from repro.data.criteo import NUM_TABLES
from repro.experiments.common import (
    CRITEO_POOL,
    ExperimentResult,
    criteo_one_stage,
    criteo_quality_evaluator,
    criteo_three_stage,
    criteo_two_stage,
    make_scheduler,
    movielens_pipelines,
    movielens_quality_evaluator,
)

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Cross-dataset, cross-load, cross-platform summary at iso-quality"
PAPER_REF = "Figure 14"
TAGS = ("criteo", "movielens", "summary", "scheduling")

#: The load axis.
QPS_VALUES = (100, 500, 2000)


def _criteo_setup() -> tuple[RecPipeScheduler, dict]:
    scheduler = make_scheduler(criteo_quality_evaluator(CRITEO_POOL), num_tables=NUM_TABLES)
    pipelines = {1: criteo_one_stage(), 2: criteo_two_stage(), 3: criteo_three_stage()}
    return scheduler, pipelines


def _movielens_setup(preset: str, pool: int) -> tuple[RecPipeScheduler, dict]:
    scheduler = make_scheduler(movielens_quality_evaluator(preset, pool), num_tables=2)
    return scheduler, movielens_pipelines(pool)


def run() -> ExperimentResult:
    """Tail latency of 1/2/3-stage designs on every platform, load and dataset."""
    result = ExperimentResult(name="fig14_summary")
    for dataset, (scheduler, pipelines) in (
        ("criteo", _criteo_setup()),
        ("movielens-1m", _movielens_setup("1m", 1024)),
        ("movielens-20m", _movielens_setup("20m", 2048)),
    ):
        for qps in QPS_VALUES:
            for platform_label, platform in (
                ("cpu", "cpu"),
                ("gpu", "gpu"),
                ("accel", "rpaccel"),
            ):
                for num_stages, pipeline in pipelines.items():
                    # Multi-stage GPU configurations run frontend-on-GPU,
                    # backend-on-CPU (Section 5.2).
                    multi_gpu = platform == "gpu" and num_stages > 1
                    evaluated = scheduler.evaluate(
                        pipeline, "gpu-cpu" if multi_gpu else platform, qps
                    )
                    result.add(
                        dataset=dataset,
                        qps=qps,
                        platform=platform_label,
                        num_stages=num_stages,
                        quality_ndcg=evaluated.quality,
                        p99_latency_ms=evaluated.p99_latency * 1e3,
                        saturated=evaluated.saturated,
                    )
    result.note(
        "the optimal stage count and platform vary with dataset and load; the "
        "accelerator dominates tail latency everywhere (paper Figure 14)"
    )
    return result
