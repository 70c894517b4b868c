"""Analytic area and power model (Figure 11).

The paper synthesizes the reconfigurable systolic array, the top-k filtering
units, and the on-chip memories in a 12nm FinFET process and reports RPAccel's
overheads relative to the baseline TPU-like accelerator as a component
breakdown: +11% area and +36% power, dominated by the banked activation
memory needed to feed independent sub-arrays.

This model reproduces that breakdown analytically.  Component costs are
expressed per MAC unit and per byte of SRAM, with banking/reconfiguration
multipliers taken from the paper's reported relative overheads (and from the
Planaria comparison: RPAccel's restricted interconnect costs 6% area / 11%
power on the compute fabric versus Planaria's 13% / 21%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.accel.systolic import SystolicArrayConfig
from repro.accel.embedding_cache import EmbeddingCacheConfig
from repro.models.cost import MiB

# 12nm-class component cost constants (arbitrary but self-consistent units:
# mm^2 and watts for a 128x128 array / 24 MB SRAM accelerator in the range of
# the 40 W datacenter inference parts the paper compares against).
AREA_PER_MAC_MM2 = 900e-6
AREA_PER_SRAM_MB_MM2 = 0.95
POWER_PER_MAC_W = 1.5e-3
POWER_PER_SRAM_MB_W = 0.45

# Overheads of RPAccel's additions, expressed as multipliers on the component
# they modify (calibrated to the Figure 11 breakdown).
RECONFIG_AREA_MULT = 0.06  # fission interconnect, on the systolic array area
RECONFIG_POWER_MULT = 0.03
TOPK_AREA_PER_UNIT_MM2 = 0.035
TOPK_POWER_PER_UNIT_W = 0.08
BANKED_ACTIVATION_AREA_MULT = 1.0  # extra banking on the activation SRAM
BANKED_ACTIVATION_POWER_MULT = 6.6


@dataclass(frozen=True)
class AreaPowerBreakdown:
    """Per-component area (mm^2) and power (W) for one accelerator design."""

    components_area_mm2: dict[str, float]
    components_power_w: dict[str, float]

    @property
    def total_area_mm2(self) -> float:
        return sum(self.components_area_mm2.values())

    @property
    def total_power_w(self) -> float:
        return sum(self.components_power_w.values())


@dataclass
class AreaPowerModel:
    """Area/power of the baseline accelerator and RPAccel's overhead over it."""

    array: ClassVar[SystolicArrayConfig] = SystolicArrayConfig()
    cache: ClassVar[EmbeddingCacheConfig] = EmbeddingCacheConfig()
    activation_sram_bytes: ClassVar[int] = 4 * MiB
    num_topk_units: ClassVar[int] = 8

    def baseline_breakdown(self) -> AreaPowerBreakdown:
        """TPU-like baseline: monolithic array, static embedding SRAM only."""
        macs = self.array.total_macs
        weight_mb = self.array.weight_sram_bytes / MiB
        act_mb = self.activation_sram_bytes / MiB
        emb_mb = self.cache.total_bytes / MiB
        area = {
            "systolic_array": macs * AREA_PER_MAC_MM2,
            "mlp_weight_sram": weight_mb * AREA_PER_SRAM_MB_MM2,
            "activation_sram": act_mb * AREA_PER_SRAM_MB_MM2,
            "embedding_sram": emb_mb * AREA_PER_SRAM_MB_MM2,
        }
        power = {
            "systolic_array": macs * POWER_PER_MAC_W,
            "mlp_weight_sram": weight_mb * POWER_PER_SRAM_MB_W,
            "activation_sram": act_mb * POWER_PER_SRAM_MB_W,
            "embedding_sram": emb_mb * POWER_PER_SRAM_MB_W,
        }
        return AreaPowerBreakdown(area, power)

    def rpaccel_breakdown(self) -> AreaPowerBreakdown:
        """RPAccel: baseline plus reconfiguration, top-k units, banked SRAM."""
        base = self.baseline_breakdown()
        area = dict(base.components_area_mm2)
        power = dict(base.components_power_w)
        area["reconfigurable_interconnect"] = (area["systolic_array"] * RECONFIG_AREA_MULT)
        power["reconfigurable_interconnect"] = (power["systolic_array"] * RECONFIG_POWER_MULT)
        area["topk_filter_units"] = self.num_topk_units * TOPK_AREA_PER_UNIT_MM2
        power["topk_filter_units"] = self.num_topk_units * TOPK_POWER_PER_UNIT_W
        area["banked_activation_sram"] = (
            base.components_area_mm2["activation_sram"] * BANKED_ACTIVATION_AREA_MULT
        )
        power["banked_activation_sram"] = (
            base.components_power_w["activation_sram"] * BANKED_ACTIVATION_POWER_MULT
        )
        return AreaPowerBreakdown(area, power)

    def overheads(self) -> tuple[float, float]:
        """(area overhead, power overhead) of RPAccel relative to the baseline."""
        base = self.baseline_breakdown()
        rp = self.rpaccel_breakdown()
        area_overhead = rp.total_area_mm2 / base.total_area_mm2 - 1.0
        power_overhead = rp.total_power_w / base.total_power_w - 1.0
        return area_overhead, power_overhead
