"""Mapping multi-stage pipelines onto hardware (RecPipe step 2).

Each builder turns a :class:`~repro.core.pipeline.PipelineConfig` into a
:class:`~repro.serving.resources.PipelinePlan`:

* **Device list** (:func:`build_heterogeneous_plan`) -- each stage is pinned
  to ``"cpu"`` or ``"gpu"``.  CPU stages run one query per core; the 64
  cores are partitioned across them proportionally to each stage's
  per-query service time, so the bottleneck stage is minimized.  GPU stages
  run data-parallel on the single GPU.  Whenever the host feeds the GPU or
  consecutive stages run on different devices the intermediate candidates
  cross PCIe, which is the overhead that limits multi-stage GPU-CPU designs
  in the paper's Section 5.2.  The ``cpu``, ``gpu`` and ``gpu-cpu``
  platforms are the all-CPU, all-GPU and GPU-then-CPU lists
  (:data:`DEVICE_PLATFORMS`).
* **Accelerator** -- delegates to the baseline accelerator or RPAccel models
  in :mod:`repro.accel`.
"""

from __future__ import annotations

from typing import Sequence

from repro.accel.baseline import BaselineAccelerator
from repro.accel.rpaccel import RPAccel
from repro.core.pipeline import PipelineConfig
from repro.hardware.cpu import CPUPerformanceModel
from repro.hardware.gpu import GPUPerformanceModel
from repro.hardware.pcie import PCIeModel
from repro.serving.resources import PipelinePlan, StageResource


#: The (first-stage, later-stage) device of each CPU/GPU platform.
DEVICE_PLATFORMS = {"cpu": ("cpu", "cpu"), "gpu": ("gpu", "gpu"), "gpu-cpu": ("gpu", "cpu")}

#: Dense features shipped per candidate when a stage's input crosses PCIe
#: (Criteo's 13, for every dataset).
NUM_DENSE_FEATURES = 13


def build_heterogeneous_plan(
    pipeline: PipelineConfig,
    devices: Sequence[str],
    cpu: CPUPerformanceModel,
    gpu: GPUPerformanceModel,
    num_tables: int = 26,
) -> PipelinePlan:
    """Device-list mapping: each stage pinned to ``"cpu"`` or ``"gpu"``.

    The CPU's cores are split across the CPU stages proportionally to their
    service times; every GPU stage gets the GPU.  Crossing devices between
    consecutive stages (or feeding the GPU from the host at the start of the
    query) charges a PCIe transfer of the candidate payload entering that
    stage.
    """
    if len(devices) != pipeline.num_stages:
        raise ValueError(
            f"need one device per stage: {len(devices)} devices for "
            f"{pipeline.num_stages} stages"
        )
    for device in devices:
        if device not in ("cpu", "gpu"):
            raise ValueError(f"unknown device {device!r}; expected 'cpu' or 'gpu'")
    pcie = PCIeModel()
    costs = pipeline.stage_costs(num_tables)
    items = pipeline.stage_items()

    cpu_stage_services = [
        cpu.stage_latency(cost, n)
        for cost, n, device in zip(costs, items, devices)
        if device == "cpu"
    ]
    cpu_allocation = (
        _proportional_allocation(cpu_stage_services, cpu.num_servers)
        if cpu_stage_services
        else []
    )

    stages = []
    cpu_index = 0
    previous_device = "host"
    for i, (cost, n, device) in enumerate(zip(costs, items, devices)):
        transfer = 0.0
        crosses_pcie = (device == "gpu" and previous_device != "gpu") or (
            device == "cpu" and previous_device == "gpu"
        )
        if crosses_pcie:
            transfer = pcie.transfer_seconds(
                pcie.candidate_payload_bytes(n, NUM_DENSE_FEATURES, cost.embedding_lookups_per_item)
            )
        if device == "cpu":
            servers = cpu_allocation[cpu_index]
            cpu_index += 1
            service = cpu.stage_latency(cost, n)
        else:
            servers = gpu.num_servers
            service = gpu.stage_latency(cost, n)
        stages.append(
            StageResource(
                name=f"{device}:{cost.name}@{n}",
                num_servers=servers,
                service_seconds=service,
                transfer_seconds=transfer,
            )
        )
        previous_device = device
    return PipelinePlan(
        platform="-".join(devices),
        stages=stages,
        description=f"Heterogeneous mapping of {pipeline.name} onto {list(devices)}",
    )


def build_accelerator_plan(
    pipeline: PipelineConfig,
    accelerator: BaselineAccelerator | RPAccel,
    num_tables: int = 26,
) -> PipelinePlan:
    """Accelerator mapping: the baseline's or RPAccel's default plan of the funnel."""
    return accelerator.plan_query(pipeline.stage_costs(num_tables), pipeline.stage_items())


def _proportional_allocation(services: Sequence[float], total: int) -> list[int]:
    """Split ``total`` servers across stages proportionally to their load."""
    if not services:
        raise ValueError("at least one stage is required")
    if total < len(services):
        raise ValueError("need at least one server per stage")
    weights = [max(s, 1e-12) for s in services]
    weight_sum = sum(weights)
    allocation = [max(1, int(total * w / weight_sum)) for w in weights]
    # Fix rounding so the allocation sums exactly to ``total``.
    while sum(allocation) > total:
        idx = allocation.index(max(allocation))
        allocation[idx] -= 1
    while sum(allocation) < total:
        deficits = [w / a for w, a in zip(weights, allocation)]
        idx = deficits.index(max(deficits))
        allocation[idx] += 1
    return allocation
