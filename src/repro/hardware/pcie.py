"""PCIe transfer model.

Host-to-device transfers appear in three places in the paper:

* moving candidate features to the GPU / accelerator at the start of a query,
* moving intermediate results between stages when consecutive stages run on
  different devices (the GPU-CPU heterogeneous mapping),
* the baseline accelerator's host-side top-k filtering, which ships scores to
  the host and filtered candidate ids back.

The model is a fixed per-transfer latency plus payload over sustained PCIe
bandwidth, matching the paper's "PCIe measured overhead" input to the
accelerator methodology (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.models.cost import FP32_BYTES


@dataclass(frozen=True)
class PCIeModel:
    """PCIe 3.0 x16-class link between host and device."""

    bandwidth_bytes_per_s: ClassVar[float] = 12e9
    latency_s: ClassVar[float] = 10e-6

    def transfer_seconds(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` across the link."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s

    def candidate_payload_bytes(
        self, num_items: int, num_dense: int, num_sparse: int
    ) -> int:
        """Bytes to ship ``num_items`` candidates' dense + sparse features."""
        if num_items < 0 or num_dense < 0 or num_sparse < 0:
            raise ValueError("payload dimensions must be non-negative")
        return num_items * (num_dense + num_sparse) * FP32_BYTES

    def score_payload_bytes(self, num_items: int) -> int:
        """Bytes to ship predicted scores plus item ids for ``num_items``."""
        if num_items < 0:
            raise ValueError("num_items must be non-negative")
        return num_items * 2 * FP32_BYTES
