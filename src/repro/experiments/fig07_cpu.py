"""Figure 7: RecPipe scheduling of multi-stage pipelines on CPUs.

Three panels for the Criteo deep dive on the Cascade Lake CPU:

* **left** -- single-stage designs: larger models reach higher quality at the
  cost of higher tail latency;
* **center** -- at a fixed load (QPS 500), tuning multi-stage parameters
  (one/two/three stages) improves quality under strict latency targets; the
  RMsmall->RMlarge frontend beats RMmed->RMlarge despite RMmed's higher
  accuracy;
* **right** -- at the highest quality target, the two-stage pipeline reduces
  tail latency by roughly 4x versus single-stage across loads, while the
  three-stage design loses some of that benefit to inter-stage overheads.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineConfig, Stage
from repro.experiments.common import (
    CRITEO_POOL,
    ExperimentResult,
    criteo_one_stage,
    criteo_quality_evaluator,
    criteo_three_stage,
    criteo_two_stage,
    criteo_two_stage_med,
    make_scheduler,
    merge_panels,
)
from repro.models.zoo import criteo_model_specs

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "RecPipe scheduling of multi-stage pipelines on CPUs"
PAPER_REF = "Figure 7"
TAGS = ("criteo", "cpu", "scheduling")

#: The fixed load of the left and center panels.
QPS = 500.0
#: The left panel's items-ranked axis.
ITEM_COUNTS = (1024, 2048, 4096)
#: The right panel's load axis.
QPS_VALUES = (100, 250, 500, 1000, 2000)


def run_single_stage() -> ExperimentResult:
    """Figure 7 left: quality vs tail latency for single-stage designs on CPU."""
    scheduler = make_scheduler(criteo_quality_evaluator(CRITEO_POOL))
    result = ExperimentResult(name="fig07_left_single_stage_cpu")
    for spec in criteo_model_specs():
        for items in ITEM_COUNTS:
            pipeline = PipelineConfig((Stage(spec, items),))
            evaluated = scheduler.evaluate(pipeline, "cpu", QPS)
            result.add(
                model=spec.name,
                items_ranked=items,
                quality_ndcg=evaluated.quality,
                p99_latency_ms=evaluated.p99_latency * 1e3,
                saturated=evaluated.saturated,
            )
    return result


def run_multistage() -> ExperimentResult:
    """Figure 7 center: one/two/three-stage designs at iso-throughput (QPS 500)."""
    scheduler = make_scheduler(criteo_quality_evaluator(CRITEO_POOL))
    configs = {
        "one-stage": criteo_one_stage(),
        "two-stage (RMsmall-RMlarge)": criteo_two_stage(),
        "two-stage (RMmed-RMlarge)": criteo_two_stage_med(),
        "three-stage": criteo_three_stage(),
    }
    result = ExperimentResult(name="fig07_center_multistage_cpu")
    for label, pipeline in configs.items():
        evaluated = scheduler.evaluate(pipeline, "cpu", QPS)
        result.add(
            config=label,
            pipeline=pipeline.name,
            quality_ndcg=evaluated.quality,
            p99_latency_ms=evaluated.p99_latency * 1e3,
            saturated=evaluated.saturated,
        )
    return result


def run_iso_quality() -> ExperimentResult:
    """Figure 7 right: latency vs throughput at the highest quality target."""
    scheduler = make_scheduler(criteo_quality_evaluator(CRITEO_POOL))
    configs = {
        "one-stage": criteo_one_stage(),
        "two-stage": criteo_two_stage(),
        "three-stage": criteo_three_stage(),
    }
    result = ExperimentResult(name="fig07_right_iso_quality_cpu")
    for label, pipeline in configs.items():
        for qps in QPS_VALUES:
            evaluated = scheduler.evaluate(pipeline, "cpu", qps)
            result.add(
                config=label,
                qps=qps,
                p99_latency_ms=evaluated.p99_latency * 1e3,
                saturated=evaluated.saturated,
            )
    return result


def run() -> ExperimentResult:
    """All three panels merged."""
    return merge_panels(
        "fig07_cpu_scheduling", run_single_stage(), run_multistage(), run_iso_quality()
    )
