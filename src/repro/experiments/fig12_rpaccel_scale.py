"""Figure 12: at-scale evaluation of RPAccel vs the baseline accelerator.

* **top** -- at iso-quality and iso-resources, the throughput / tail-latency
  tradeoff of the baseline single-stage accelerator versus RPAccel running
  one-, two- and three-stage pipelines.  RPAccel's multi-stage designs reach
  roughly 3x lower latency and 6x higher sustainable throughput.
* **bottom** -- asymmetric sub-array provisioning for the two-stage pipeline:
  RPAccel8,2 (two large backend sub-arrays) minimizes latency at low load,
  RPAccel8,16 (sixteen small backend sub-arrays) wins at high load, with the
  homogeneous RPAccel8,8 in between.
"""

from __future__ import annotations

from repro.accel.baseline import BaselineAccelerator
from repro.accel.rpaccel import RPAccel
from repro.experiments.common import (
    ExperimentResult,
    criteo_one_stage,
    criteo_three_stage,
    criteo_two_stage,
    merge_panels,
)
from repro.serving.simulator import SimulationConfig, simulated_p99

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "At-scale evaluation of RPAccel vs the baseline accelerator"
PAPER_REF = "Figure 12"
TAGS = ("accel", "rpaccel", "serving")

#: The at-scale budget every figure point is simulated with.
SIMULATION = SimulationConfig(num_queries=2000, warmup_queries=200)
#: The top panel's load axis.
QPS_VALUES = (200, 400, 800, 1600, 2400, 3200)
#: The bottom panel's low and high loads.
LOW_QPS = 400.0
HIGH_QPS = 2400.0


def run_scale() -> ExperimentResult:
    """Figure 12 top: tail latency vs load for the baseline and RPAccel designs."""
    baseline = BaselineAccelerator()
    rpaccel = RPAccel()
    one, two, three = criteo_one_stage(), criteo_two_stage(), criteo_three_stage()
    plans = {
        "baseline accel (1-stage)": baseline.plan_query(one.stage_costs(), one.stage_items()),
        "rpaccel 1-stage": rpaccel.plan_query(one.stage_costs(), one.stage_items()),
        "rpaccel 2-stage": rpaccel.plan_query(
            two.stage_costs(), two.stage_items(), frontend_cache_fraction=0.5
        ),
        "rpaccel 3-stage": rpaccel.plan_query(
            three.stage_costs(), three.stage_items(), frontend_cache_fraction=0.4
        ),
    }
    result = ExperimentResult(name="fig12_top_rpaccel_at_scale")
    for label, plan in plans.items():
        for qps, p99 in zip(QPS_VALUES, simulated_p99(plan, QPS_VALUES, SIMULATION).tolist()):
            result.add(
                config=label,
                qps=qps,
                p99_latency_ms=p99 * 1e3,
                unloaded_latency_ms=plan.unloaded_latency() * 1e3,
                capacity_qps=plan.throughput_capacity(),
                saturated=p99 == float("inf"),
            )
    base_plan = plans["baseline accel (1-stage)"]
    best_plan = plans["rpaccel 2-stage"]
    result.note(
        f"latency: {base_plan.unloaded_latency() / best_plan.unloaded_latency():.1f}x lower "
        "for rpaccel 2-stage (paper: ~3x)"
    )
    result.note(
        f"throughput: {best_plan.throughput_capacity() / base_plan.throughput_capacity():.1f}x "
        "higher for rpaccel 2-stage (paper: ~6x)"
    )
    return result


def run_asymmetric() -> ExperimentResult:
    """Figure 12 bottom: asymmetric backend sub-array provisioning."""
    rpaccel = RPAccel()
    two = criteo_two_stage()
    costs, items = two.stage_costs(), two.stage_items()
    result = ExperimentResult(name="fig12_bottom_asymmetric_provisioning")
    for backend_subarrays in (2, 8, 16):
        plan = rpaccel.plan_query(
            costs,
            items,
            subarrays_per_stage=[8, backend_subarrays],
            frontend_cache_fraction=0.5,
        )
        loads = (LOW_QPS, HIGH_QPS)
        p99s = simulated_p99(plan, loads, SIMULATION).tolist()
        for qps, load, p99 in zip(loads, ("low", "high"), p99s):
            result.add(
                config=f"RPAccel8,{backend_subarrays}",
                load=load,
                qps=qps,
                p99_latency_ms=p99 * 1e3,
                unloaded_latency_ms=plan.unloaded_latency() * 1e3,
                saturated=p99 == float("inf"),
            )
    result.note(
        "fewer, larger backend sub-arrays minimize latency at low load; more, "
        "smaller sub-arrays win at high load (paper Figure 12 bottom)"
    )
    return result


def run() -> ExperimentResult:
    return merge_panels("fig12_rpaccel_scale", run_scale(), run_asymmetric())
