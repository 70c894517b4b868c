"""Weight-stationary systolic array cycle model, with Planaria-style fission.

The MLP engine of both the baseline accelerator and RPAccel is a weight-
stationary systolic array (as in the TPU and Centaur).  For one dense layer of
shape ``(in_features, out_features)`` mapped onto an ``rows x cols`` array:

* only ``min(in, rows) * min(out, cols)`` MAC units hold useful weights, so
  small recommendation layers leave a large monolithic array mostly idle
  (Figure 10a: RMsmall achieves single-digit utilization on a 128x128 array);
* the layer's MACs are executed at that utilization, plus a fill/drain ramp
  and the cycles to stream the layer's weights from DRAM.

RPAccel splits the monolithic array into independent sub-arrays (a fission
architecture adapted from Planaria) so that frontend and backend models run
concurrently, each on an array sized closer to its layer dimensions -- this
is what doubles MAC utilization in the paper's Takeaway 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.hardware.memory import DramModel
from repro.hardware.spec import ACCELERATOR_FREQUENCY_HZ
from repro.models.cost import FP32_BYTES, MiB, ModelCost


@dataclass(frozen=True)
class SystolicArrayConfig:
    """Fixed resources of the monolithic systolic array (Table 3)."""

    rows: ClassVar[int] = 128
    cols: ClassVar[int] = 128
    frequency_hz: ClassVar[float] = ACCELERATOR_FREQUENCY_HZ
    weight_sram_bytes: ClassVar[int] = 8 * MiB

    @property
    def total_macs(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class SubArray:
    """One independent partition of the reconfigurable array."""

    rows: int
    cols: int
    frequency_hz: ClassVar[float] = ACCELERATOR_FREQUENCY_HZ
    #: The off-chip memory the MLP weights stream from.
    dram: ClassVar[DramModel] = DramModel()

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("sub-array dimensions must be positive")

    @property
    def total_macs(self) -> int:
        return self.rows * self.cols

    # ------------------------------------------------------------------ #
    # Utilization and cycle model
    # ------------------------------------------------------------------ #
    def layer_utilization(self, in_features: int, out_features: int) -> float:
        """Fraction of MAC units holding useful weights for one dense layer."""
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        active = min(in_features, self.rows) * min(out_features, self.cols)
        return active / self.total_macs

    def model_utilization(self, cost: ModelCost) -> float:
        """MAC utilization for a model, weighted by per-layer MAC counts."""
        if not cost.mlp_layer_dims:
            # Without layer shapes assume a mid-sized layer.
            return self.layer_utilization(64, 64)
        total_macs = 0.0
        weighted = 0.0
        for in_f, out_f in cost.mlp_layer_dims:
            layer_macs = in_f * out_f
            total_macs += layer_macs
            weighted += layer_macs * self.layer_utilization(in_f, out_f)
        if total_macs == 0:
            return self.layer_utilization(64, 64)
        return weighted / total_macs

    def layer_cycles(self, in_features: int, out_features: int, num_items: int) -> float:
        """Cycles to push ``num_items`` activations through one dense layer.

        The array processes ``min(out, cols)`` output columns at once; items
        stream through in a pipeline, so the dominant term is one cycle per
        item per column-tile per row-tile plus the fill/drain ramp.
        """
        if num_items <= 0:
            return 0.0
        row_tiles = -(-in_features // self.rows)  # ceil division
        col_tiles = -(-out_features // self.cols)
        fill_drain = min(in_features, self.rows) + min(out_features, self.cols)
        return row_tiles * col_tiles * (num_items + fill_drain)

    def mlp_cycles(self, cost: ModelCost, num_items: int) -> float:
        """Cycles to run the model's MLPs over ``num_items`` candidates.

        Includes streaming the MLP weights from DRAM once per stage execution
        (weight-stationary arrays reload weights when the resident model
        changes between stages and queries).
        """
        if num_items < 0:
            raise ValueError("num_items must be non-negative")
        if num_items == 0:
            return 0.0
        weight_load = self.dram.access_cycles(cost.mlp_parameters * FP32_BYTES)
        if cost.mlp_layer_dims:
            compute = sum(
                self.layer_cycles(in_f, out_f, num_items)
                for in_f, out_f in cost.mlp_layer_dims
            )
        else:
            utilization = max(self.model_utilization(cost), 1e-3)
            compute = num_items * cost.macs_per_item / (self.total_macs * utilization)
        return weight_load + compute

    def mlp_seconds(self, cost: ModelCost, num_items: int) -> float:
        return self.mlp_cycles(cost, num_items) / self.frequency_hz


@dataclass
class ReconfigurableArray:
    """A monolithic array split into independent sub-arrays.

    ``split(num_subarrays, fraction)`` carves a fraction of the total MAC
    resources into ``num_subarrays`` equal partitions.  RPAccel's scheduler
    uses two calls -- one for the frontend, one for the backend -- so that the
    partitions always sum to the iso-resource budget.
    """

    config: ClassVar[SystolicArrayConfig] = SystolicArrayConfig()

    @property
    def monolithic(self) -> SubArray:
        return SubArray(rows=self.config.rows, cols=self.config.cols)

    def split(self, num_subarrays: int, fraction: float = 1.0) -> list[SubArray]:
        """Partition ``fraction`` of the array into equal sub-arrays.

        The partition keeps the aggregate MAC count at
        ``fraction * total_macs`` (iso-resource) and shapes each sub-array as
        close to square as possible, which is how the fission architecture
        lays out partitions.
        """
        if num_subarrays <= 0:
            raise ValueError("num_subarrays must be positive")
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        macs_per_subarray = self.config.total_macs * fraction / num_subarrays
        if macs_per_subarray < 1:
            raise ValueError(
                f"partition too fine: {num_subarrays} sub-arrays over "
                f"{fraction:.0%} of a {self.config.total_macs}-MAC array"
            )
        side = int(round(macs_per_subarray**0.5))
        side = max(1, side)
        rows = min(side, self.config.rows)
        cols = max(1, int(round(macs_per_subarray / rows)))
        return [SubArray(rows=rows, cols=cols) for _ in range(num_subarrays)]

    def average_utilization(
        self,
        assignments: list[tuple[SubArray, ModelCost]],
    ) -> float:
        """MAC-weighted average utilization across concurrently active partitions."""
        if not assignments:
            raise ValueError("at least one (sub-array, model) assignment is required")
        total_macs = sum(sub.total_macs for sub, _ in assignments)
        return (
            sum(sub.total_macs * sub.model_utilization(cost) for sub, cost in assignments)
            / total_macs
        )
