"""Figure 5 (right): ablation of RPAccel's optimizations O.1 - O.5.

Starting from the baseline single-stage accelerator, the paper incrementally
enables: (O.1) multi-stage execution, (O.2) on-chip top-k filtering,
(O.3) the reconfigurable systolic array, (O.4) the dual static/look-ahead
embedding caches, and (O.5) sub-batch pipelining, reporting the latency and
throughput improvement of each step.
"""

from __future__ import annotations

from repro.accel.baseline import BaselineAccelerator
from repro.accel.rpaccel import RPAccel
from repro.experiments.common import (
    ExperimentResult,
    criteo_one_stage,
    criteo_two_stage,
)


#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "RPAccel optimization ablation (O.1 - O.5)"
PAPER_REF = "Figure 5 (right)"
TAGS = ("accel", "rpaccel", "ablation")


def run() -> ExperimentResult:
    """Unloaded latency and throughput capacity for each ablation step."""
    one = criteo_one_stage()
    two = criteo_two_stage()
    one_costs, one_items = one.stage_costs(), one.stage_items()
    two_costs, two_items = two.stage_costs(), two.stage_items()

    baseline = BaselineAccelerator()
    rpaccel = RPAccel()

    steps = []
    steps.append(("baseline single-stage", baseline.plan_query(one_costs, one_items)))
    steps.append(("O.1 multi-stage (host filter)", baseline.plan_query(two_costs, two_items)))
    toggles = dict(reconfigurable=False, onchip_filter=True, lookahead=False, pipelined=False)
    steps.append(
        ("O.2 + on-chip top-k filter", rpaccel.plan_query(two_costs, two_items, **toggles))
    )
    toggles["reconfigurable"] = True
    steps.append(
        ("O.3 + reconfigurable sub-arrays", rpaccel.plan_query(two_costs, two_items, **toggles))
    )
    toggles["lookahead"] = True
    steps.append(
        ("O.4 + dual embedding caches", rpaccel.plan_query(two_costs, two_items, **toggles))
    )
    toggles["pipelined"] = True
    steps.append(
        ("O.5 + sub-batch pipelining", rpaccel.plan_query(two_costs, two_items, **toggles))
    )

    result = ExperimentResult(name="fig05_rpaccel_ablation")
    base_latency = steps[0][1].unloaded_latency()
    base_capacity = steps[0][1].throughput_capacity()
    for label, plan in steps:
        latency = plan.unloaded_latency()
        capacity = plan.throughput_capacity()
        result.add(
            step=label,
            latency_ms=latency * 1e3,
            capacity_qps=capacity,
            latency_speedup=base_latency / latency,
            throughput_gain=capacity / base_capacity,
        )
    final = steps[-1][1]
    result.note(
        f"cumulative: {base_latency / final.unloaded_latency():.1f}x latency, "
        f"{final.throughput_capacity() / base_capacity:.1f}x throughput "
        "(paper reports up to 5x latency and 10x throughput)"
    )
    return result
