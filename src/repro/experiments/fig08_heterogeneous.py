"""Figure 8: mapping multi-stage pipelines onto heterogeneous CPU-GPU systems.

* **top** -- at iso-quality, the tradeoff between throughput and tail latency
  for the best CPU-only (two-stage), GPU-only (single-stage) and GPU-CPU
  (two-stage, frontend on the GPU) mappings.  GPUs give the lowest latency at
  low load, the CPU sustains the highest load, and the GPU-CPU split sits in
  between (it is the only option once models outgrow GPU memory).
* **bottom** -- at a low load (QPS 70), trading latency for quality by growing
  the number of items ranked: under a 25 ms SLA the GPU ranks the full 4096
  candidates while the CPU has to stop around 3200, so the GPU achieves
  higher quality at the same SLA.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineConfig, Stage
from repro.core.sweep import SLA_MS
from repro.experiments.common import (
    CRITEO_POOL,
    ExperimentResult,
    criteo_one_stage,
    criteo_quality_evaluator,
    criteo_two_stage,
    make_scheduler,
    merge_panels,
)
from repro.models.zoo import RM_LARGE, RM_SMALL

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Mapping multi-stage pipelines onto heterogeneous CPU-GPU systems"
PAPER_REF = "Figure 8"
TAGS = ("criteo", "gpu", "heterogeneous", "scheduling")

#: The top panel's load axis.
QPS_VALUES = (25, 50, 70, 100, 150, 250, 500, 1000)
#: The bottom panel's load.
QPS = 70.0
#: The bottom panel's items-ranked axis.
ITEM_COUNTS = (1024, 2048, 3200, 4096)


def run_iso_quality() -> ExperimentResult:
    """Figure 8 top: latency vs load for the three best mappings at iso-quality."""
    scheduler = make_scheduler(criteo_quality_evaluator(CRITEO_POOL))
    mappings = {
        "cpu 2-stage": (criteo_two_stage(), "cpu"),
        "gpu 1-stage": (criteo_one_stage(), "gpu"),
        "gpu-cpu 2-stage": (criteo_two_stage(), "gpu-cpu"),
    }
    result = ExperimentResult(name="fig08_top_heterogeneous_iso_quality")
    for label, (pipeline, platform) in mappings.items():
        for qps in QPS_VALUES:
            evaluated = scheduler.evaluate(pipeline, platform, qps)
            result.add(
                config=label,
                qps=qps,
                quality_ndcg=evaluated.quality,
                p99_latency_ms=evaluated.p99_latency * 1e3,
                saturated=evaluated.saturated,
            )
    return result


def run_sla_quality() -> ExperimentResult:
    """Figure 8 bottom: quality achievable under a 25 ms SLA at QPS 70."""
    scheduler = make_scheduler(criteo_quality_evaluator(CRITEO_POOL))
    result = ExperimentResult(name="fig08_bottom_sla_quality")
    best = {"cpu 2-stage": None, "gpu 1-stage": None}
    for items in ITEM_COUNTS:
        cpu_pipeline = PipelineConfig(
            (Stage(RM_SMALL, items), Stage(RM_LARGE, max(items // 8, 64)))
        )
        gpu_pipeline = PipelineConfig((Stage(RM_LARGE, items),))
        for label, pipeline, platform in (
            ("cpu 2-stage", cpu_pipeline, "cpu"),
            ("gpu 1-stage", gpu_pipeline, "gpu"),
        ):
            evaluated = scheduler.evaluate(pipeline, platform, QPS)
            meets = evaluated.feasible and evaluated.p99_latency * 1e3 <= SLA_MS
            result.add(
                config=label,
                items_ranked=items,
                quality_ndcg=evaluated.quality,
                p99_latency_ms=evaluated.p99_latency * 1e3,
                meets_sla=meets,
            )
            if meets and (
                best[label] is None or evaluated.quality > best[label]["quality_ndcg"]
            ):
                best[label] = result.rows[-1]
    for label, row in best.items():
        if row is not None:
            result.note(
                f"best quality under {SLA_MS:.0f} ms SLA for {label}: "
                f"{row['quality_ndcg']:.2f} NDCG at {row['items_ranked']} items"
            )
    return result


def run() -> ExperimentResult:
    return merge_panels("fig08_heterogeneous", run_iso_quality(), run_sla_quality())
