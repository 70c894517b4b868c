"""Figure 11: area and power breakdown of RPAccel vs the baseline accelerator.

The paper synthesizes the added components in 12nm FinFET and reports RPAccel
at +11% area and +36% power over the baseline, dominated by the banked
activation memory; the reconfigurable-array interconnect and top-k filtering
units themselves are small.
"""

from __future__ import annotations

from repro.accel.area_power import AreaPowerModel
from repro.experiments.common import ExperimentResult

#: Spec metadata consumed by :mod:`repro.experiments.registry`.
TITLE = "Area and power breakdown of RPAccel vs the baseline accelerator"
PAPER_REF = "Figure 11"
TAGS = ("accel", "rpaccel", "area-power")


def run() -> ExperimentResult:
    model = AreaPowerModel()
    baseline = model.baseline_breakdown()
    rpaccel = model.rpaccel_breakdown()
    area_overhead, power_overhead = model.overheads()

    result = ExperimentResult(name="fig11_area_power")
    for component in rpaccel.components_area_mm2:
        result.add(
            component=component,
            in_baseline=component in baseline.components_area_mm2,
            area_mm2=rpaccel.components_area_mm2[component],
            power_w=rpaccel.components_power_w[component],
        )
    result.add(
        component="TOTAL baseline",
        in_baseline=True,
        area_mm2=baseline.total_area_mm2,
        power_w=baseline.total_power_w,
    )
    result.add(
        component="TOTAL rpaccel",
        in_baseline=False,
        area_mm2=rpaccel.total_area_mm2,
        power_w=rpaccel.total_power_w,
    )
    result.note(f"area overhead {area_overhead * 100:.1f}% (paper: 11%)")
    result.note(f"power overhead {power_overhead * 100:.1f}% (paper: 36%)")
    return result
