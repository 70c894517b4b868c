"""Specialized recommendation accelerators: the Centaur-like baseline and RPAccel.

The paper's accelerator methodology (Section 4) is two-level: a per-query
latency model built from cycle-level component models (systolic array, top-k
filtering unit, embedding caches, PCIe) feeds an at-scale simulator that
measures tail latency and throughput under Poisson load.  This package holds
the component models and the two accelerator compositions:

* :class:`~repro.accel.rpaccel.RPAccel` -- the proposed accelerator with a
  reconfigurable (fission) systolic array, on-chip streaming top-k filtering
  units, a static + look-ahead embedding cache pair, and sub-batch pipelining
  of frontend and backend stages.  Its
  :meth:`~repro.accel.rpaccel.RPAccel.query_executions` is the one per-stage
  accelerator cost model.
* :class:`~repro.accel.baseline.BaselineAccelerator` -- the single-stage,
  TPU-like (Centaur-like) accelerator: RPAccel's stage model with O.2--O.5
  switched off over a static-only cache, i.e. a monolithic systolic array,
  a static hot-embedding cache, and top-k filtering between stages (when
  forced to run multi-stage pipelines) offloaded to the host over PCIe.
"""

from repro.accel.systolic import ReconfigurableArray, SubArray, SystolicArrayConfig
from repro.accel.topk import TopKFilterUnit, TopKFilterConfig
from repro.accel.embedding_cache import (
    EmbeddingCacheConfig,
    MultiStageEmbeddingCache,
    StaticCachePartition,
)
from repro.accel.area_power import AreaPowerModel, AreaPowerBreakdown
from repro.accel.ssd import SsdScalingModel, SsdScalingPoint
from repro.accel.rpaccel import RPAccel, RPAccelConfig, StageExecution
from repro.accel.baseline import BaselineAccelerator

__all__ = [
    "SystolicArrayConfig",
    "SubArray",
    "ReconfigurableArray",
    "TopKFilterUnit",
    "TopKFilterConfig",
    "EmbeddingCacheConfig",
    "StaticCachePartition",
    "MultiStageEmbeddingCache",
    "AreaPowerModel",
    "AreaPowerBreakdown",
    "SsdScalingModel",
    "SsdScalingPoint",
    "BaselineAccelerator",
    "RPAccel",
    "RPAccelConfig",
    "StageExecution",
]
