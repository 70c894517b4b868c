"""Accelerator comparison: the baseline Centaur-like accelerator vs RPAccel.

Reproduces the Figure 12 workflow -- sweep the offered load and report p99
tail latency for the baseline single-stage accelerator and RPAccel running
one-, two- and three-stage pipelines, then show the effect of asymmetric
backend sub-array provisioning and the O.1-O.5 ablation.

Run with:  python examples/accelerator_comparison.py
"""

from repro.accel import BaselineAccelerator, RPAccel
from repro.experiments.registry import default_registry
from repro.experiments.common import (
    criteo_one_stage,
    criteo_three_stage,
    criteo_two_stage,
)
from repro.serving import LatencyReport, SimulationConfig, simulate


def sweep(plan, qps_values):
    """``(qps, p99 ms)`` per load, ``None`` where the plan cannot sustain it."""
    config = SimulationConfig(num_queries=3000, warmup_queries=300)
    live, arrivals, latencies = simulate(plan, qps_values, config)
    offered = [qps for qps, ok in zip(qps_values, live) if ok]
    reports = iter(
        LatencyReport.from_latencies(latencies, arrivals, offered, [False] * len(offered))
    )
    return [
        (qps, next(reports).p99_latency * 1e3 if ok else None) for qps, ok in zip(qps_values, live)
    ]


def main() -> None:
    baseline = BaselineAccelerator()
    rpaccel = RPAccel()
    one, two, three = criteo_one_stage(), criteo_two_stage(), criteo_three_stage()

    plans = {
        "baseline (1-stage)": baseline.plan_query(one.stage_costs(), one.stage_items()),
        "rpaccel (1-stage)": rpaccel.plan_query(one.stage_costs(), one.stage_items()),
        "rpaccel (2-stage)": rpaccel.plan_query(
            two.stage_costs(), two.stage_items(), frontend_cache_fraction=0.5
        ),
        "rpaccel (3-stage)": rpaccel.plan_query(
            three.stage_costs(), three.stage_items(), frontend_cache_fraction=0.4
        ),
    }
    qps_values = (200, 400, 800, 1600, 2400)

    print("p99 tail latency (ms) vs offered load ('--' = cannot sustain the load)\n")
    header = f"{'config':<22}" + "".join(f"{q:>10}" for q in qps_values)
    print(header)
    for label, plan in plans.items():
        cells = []
        for _, latency in sweep(plan, qps_values):
            cells.append("--" if latency is None else f"{latency:.2f}")
        print(f"{label:<22}" + "".join(f"{c:>10}" for c in cells))

    base = plans["baseline (1-stage)"]
    best = plans["rpaccel (2-stage)"]
    print(
        f"\nrpaccel 2-stage vs baseline: "
        f"{base.unloaded_latency() / best.unloaded_latency():.1f}x lower latency, "
        f"{best.throughput_capacity() / base.throughput_capacity():.1f}x higher throughput "
        "(paper: ~3x and ~6x)"
    )

    print("\nasymmetric backend provisioning (unloaded latency):")
    for backend in (2, 8, 16):
        plan = rpaccel.plan_query(
            two.stage_costs(), two.stage_items(), subarrays_per_stage=[8, backend]
        )
        print(f"  RPAccel8,{backend:<3} {plan.unloaded_latency() * 1e3:.3f} ms")

    print("\nablation (Figure 5, O.1-O.5):")
    print(default_registry().get("fig05").execute().format_table())
    print("\n(artifact-producing equivalent: recpipe run --tag rpaccel --output-dir out/)")


if __name__ == "__main__":
    main()
