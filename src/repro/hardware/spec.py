"""Hardware specifications (Tables 2 and 3 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.cost import GiB, MiB

#: Clock of the accelerators' arrays, on-chip memories and memory interface
#: (Table 3); accelerator cycle counts convert to seconds at this rate.
ACCELERATOR_FREQUENCY_HZ = 250e6


@dataclass(frozen=True)
class HardwareSpec:
    """Static description of a commodity platform.

    Fields mirror Table 2: frequency, core/lane counts, cache sizes, DRAM
    capacity and bandwidth, and TDP.  ``simd_width`` is the number of fp32
    lanes a single core (CPU) or the whole device (GPU) retires per cycle.
    """

    name: str
    frequency_hz: float
    num_cores: int
    simd_width: int
    cache_bytes: int
    dram_capacity_bytes: int
    dram_bandwidth_bytes_per_s: float
    tdp_watts: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if self.dram_bandwidth_bytes_per_s <= 0:
            raise ValueError("dram_bandwidth_bytes_per_s must be positive")


#: Server-class Intel Cascade Lake CPU (Table 2).
CASCADE_LAKE_CPU = HardwareSpec(
    name="cascade-lake-cpu",
    frequency_hz=2.8e9,
    num_cores=64,
    simd_width=16,  # AVX-512: 16 fp32 lanes
    cache_bytes=22 * MiB,
    dram_capacity_bytes=384 * GiB,
    dram_bandwidth_bytes_per_s=75e9,
    tdp_watts=300.0,
)

#: NVIDIA T4 inference GPU (Table 2).
NVIDIA_T4_GPU = HardwareSpec(
    name="nvidia-t4-gpu",
    frequency_hz=585e6,
    num_cores=2560,
    simd_width=1,  # already expressed as CUDA cores
    cache_bytes=int(6 * MiB),
    dram_capacity_bytes=15 * GiB,
    dram_bandwidth_bytes_per_s=300e9,
    tdp_watts=70.0,
)
