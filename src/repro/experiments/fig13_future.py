"""Figure 13: projecting RPAccel onto future, SSD-backed recommendation models.

* **top** -- as the backend's embedding tables grow (1x to 32x), a larger
  fraction must live on SSD, the on-chip miss rate rises, and a shrinking
  fraction of the SSD access time can be hidden behind the frontend stage.
* **bottom** -- scaling the whole workload (backend tables and frontend items
  to rank) at iso-throughput (QPS 500): the multi-stage RPAccel design
  degrades gracefully while the single-stage design's latency grows much
  faster, because only the multi-stage design can overlap the growing
  embedding-fetch time with frontend compute.
"""

from __future__ import annotations

from repro.accel.rpaccel import RPAccel
from repro.accel.ssd import SsdScalingModel
from repro.experiments.common import CRITEO_POOL, ExperimentResult, merge_panels
from repro.models.zoo import RM_LARGE, RM_SMALL
from repro.serving.resources import PipelinePlan, StageResource

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Projecting RPAccel onto future, SSD-backed recommendation models"
PAPER_REF = "Figure 13"
TAGS = ("accel", "rpaccel", "ssd", "scaling")

#: The embedding-table scale axis of both panels.
SCALES = (1, 2, 4, 8, 16, 32)
#: The top panel's backend stage ranks this many items.
BACKEND_ITEMS = 512
#: The bottom panel's iso-throughput load.
QPS = 500.0


def run_locality() -> ExperimentResult:
    """Figure 13 top: SSD fraction, miss rate, and overlap vs embedding scale."""
    model = SsdScalingModel()
    rpaccel = RPAccel()
    large = RM_LARGE.reference_cost()
    small = RM_SMALL.reference_cost()
    # The frontend stage's duration bounds how much backend fetch time can hide.
    frontend = rpaccel.query_executions([small, large], [CRITEO_POOL, BACKEND_ITEMS])[0]
    frontend_seconds = frontend.service_seconds
    result = ExperimentResult(name="fig13_top_ssd_locality")
    for scale in SCALES:
        point = model.scaling_point(large, BACKEND_ITEMS, scale, frontend_seconds)
        result.add(
            embedding_scale=scale,
            fraction_in_ssd=point.fraction_in_ssd,
            onchip_miss_rate=point.onchip_miss_rate,
            overlap_fraction=point.overlap_fraction,
            backend_gather_ms=point.backend_gather_seconds * 1e3,
        )
    result.note(
        "growing tables push most vectors to SSD, raise miss rates, and shrink the "
        "fraction of SSD time the pipeline can hide (paper Figure 13 top)"
    )
    return result


def run_scaling() -> ExperimentResult:
    """Figure 13 bottom: single- vs multi-stage latency as the workload scales."""
    ssd = SsdScalingModel()
    rpaccel = RPAccel()
    small = RM_SMALL.reference_cost()
    result = ExperimentResult(name="fig13_bottom_future_scaling")
    for scale in SCALES:
        # The workload scales both memory (backend tables) and compute
        # (frontend items to rank: 4K items at 1x growing toward 12K at 32x).
        items = int(CRITEO_POOL * (1.0 + 2.0 * (scale - 1) / 31.0))
        backend_items = max(items // 8, 64)
        large_scaled = RM_LARGE.reference_cost().scaled(scale)

        single_plan = rpaccel.plan_query([large_scaled], [items])
        single_extra = ssd.backend_gather_seconds(large_scaled, items, scale)
        single_latency = single_plan.unloaded_latency() + single_extra

        multi_plan = rpaccel.plan_query(
            [small, large_scaled], [items, backend_items], frontend_cache_fraction=0.5
        )
        frontend_seconds = multi_plan.stages[2].service_seconds
        point = ssd.scaling_point(large_scaled, backend_items, scale, frontend_seconds)
        multi_extra = point.backend_gather_seconds * (1.0 - point.overlap_fraction)
        multi_latency = multi_plan.unloaded_latency() + multi_extra

        result.add(
            embedding_scale=scale,
            items_ranked=items,
            single_stage_latency_ms=_loaded(single_plan, single_latency, QPS) * 1e3,
            multi_stage_latency_ms=_loaded(multi_plan, multi_latency, QPS) * 1e3,
        )
    result.note(
        "multi-stage RPAccel degrades gracefully with workload scale; the "
        "single-stage design's latency grows much faster (paper Figure 13 bottom)"
    )
    return result


def _loaded(plan: PipelinePlan, unloaded_latency: float, qps: float) -> float:
    """First-order queueing inflation of the unloaded latency at ``qps``."""
    stages = list(plan.stages)
    ssd_overhead = unloaded_latency - plan.unloaded_latency()
    if ssd_overhead > 0:
        stages.append(StageResource(name="ssd-tier", num_servers=4, service_seconds=ssd_overhead))
    augmented = PipelinePlan(
        platform=plan.platform,
        stages=stages,
        description=plan.description,
    )
    utilization = min(augmented.utilization(qps), 0.97)
    return unloaded_latency / max(1e-9, (1.0 - utilization))


def run() -> ExperimentResult:
    return merge_panels("fig13_future_scaling", run_locality(), run_scaling())
