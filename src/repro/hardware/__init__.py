"""Analytic performance models for commodity hardware.

The paper measures multi-stage recommendation on a server-class Intel Cascade
Lake CPU and an NVIDIA T4 GPU (Table 2).  Real hardware is not available to
this reproduction, so this package provides first-order analytic latency
models calibrated to reproduce the relationships the paper reports:

* CPUs execute one query per core (task parallelism): per-query latency grows
  with per-item embedding and MLP work, but 64 cores sustain high throughput.
* GPUs execute one query at a time data-parallel across items: small and
  large models have comparable latency (launch + embedding-transform
  overheads dominate), so GPUs provide low latency but saturate at lower
  throughput.
* PCIe transfers between host and device add per-stage overheads that the
  heterogeneous (GPU-CPU) mappings and the baseline accelerator pay.

Every calibration constant is defined once, with a note on where it comes
from: the CPU and GPU calibrations are module constants of
:mod:`~repro.hardware.cpu` and :mod:`~repro.hardware.gpu`; the memory and
PCIe parameters are class constants (``ClassVar``) of :class:`SramModel`,
:class:`DramModel`, :class:`~repro.hardware.memory.SsdModel` and
:class:`PCIeModel`; and the accelerators' 250 MHz clock is
:data:`~repro.hardware.spec.ACCELERATOR_FREQUENCY_HZ`.  None of them is a
constructor parameter, and code that needs one of these models references
it rather than taking it as a parameter.  The byte units (``FP32_BYTES``,
``MiB``, ``GiB``) are defined once in :mod:`repro.models.cost`, and the
platforms these devices make up in :data:`repro.core.mapping.PLATFORMS`.
"""

from repro.hardware.spec import (
    CASCADE_LAKE_CPU,
    NVIDIA_T4_GPU,
    HardwareSpec,
)
from repro.hardware.memory import DramModel, SramModel
from repro.hardware.pcie import PCIeModel
from repro.hardware.cpu import CPUPerformanceModel
from repro.hardware.gpu import GPUPerformanceModel

__all__ = [
    "HardwareSpec",
    "CASCADE_LAKE_CPU",
    "NVIDIA_T4_GPU",
    "SramModel",
    "DramModel",
    "PCIeModel",
    "CPUPerformanceModel",
    "GPUPerformanceModel",
]
