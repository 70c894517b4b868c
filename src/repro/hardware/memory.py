"""Simple SRAM / DRAM latency and bandwidth models.

The paper's accelerator methodology (Section 4) computes embedding memory
latency "using simple latency and bandwidth models for SRAM and DRAM".  These
classes are that model: an access costs a fixed latency (in cycles of the
consuming device) plus the transfer time of its payload at the memory's
sustained bandwidth.  Batched accesses expose ``access_time`` for a whole
byte stream, which is what the embedding-gather units use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.hardware.spec import ACCELERATOR_FREQUENCY_HZ


@dataclass(frozen=True)
class SramModel:
    """On-chip SRAM: single-digit-cycle latency, very high bandwidth."""

    latency_cycles: ClassVar[int] = 2
    bandwidth_bytes_per_cycle: ClassVar[float] = 512.0

    def access_cycles(self, num_bytes: float) -> float:
        """Cycles to stream ``num_bytes`` from SRAM (one latency charge)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency_cycles + num_bytes / self.bandwidth_bytes_per_cycle


@dataclass(frozen=True)
class DramModel:
    """Off-chip DRAM: ~100-cycle latency, bandwidth from Table 3 (64 GB/s)."""

    latency_cycles: ClassVar[int] = 100
    bandwidth_bytes_per_s: ClassVar[float] = 64e9
    frequency_hz: ClassVar[float] = ACCELERATOR_FREQUENCY_HZ

    @property
    def bandwidth_bytes_per_cycle(self) -> float:
        return self.bandwidth_bytes_per_s / self.frequency_hz

    def access_cycles(self, num_bytes: float) -> float:
        """Cycles to stream ``num_bytes`` from DRAM (one latency charge)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency_cycles + num_bytes / self.bandwidth_bytes_per_cycle

    def access_seconds(self, num_bytes: float) -> float:
        return self.access_cycles(num_bytes) / self.frequency_hz


@dataclass(frozen=True)
class SsdModel:
    """SSD storage used by the future-model projections (Figure 13).

    Non-volatile storage holds the cold portion of TB-scale embedding tables;
    an access pays a large fixed latency plus transfer at SSD bandwidth.
    """

    latency_s: ClassVar[float] = 80e-6
    bandwidth_bytes_per_s: ClassVar[float] = 3e9

    def access_seconds(self, num_bytes: float) -> float:
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s
