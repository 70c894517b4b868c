"""At-scale serving simulation: Poisson arrivals, queueing, tail latency.

The paper evaluates every configuration at scale: tens of thousands of
queries arrive following a Poisson process at a target QPS, flow through the
multi-stage pipeline mapped onto its hardware, and the system reports p99
tail latency and sustained throughput.  This package provides

* :class:`~repro.serving.resources.StageResource` /
  :class:`~repro.serving.resources.PipelinePlan` -- the platform-agnostic
  description of a scheduled pipeline,
* :class:`~repro.serving.simulator.ServingSimulator` -- the engine-selecting
  simulator facade (closed-form ``analytic`` default, discrete-event
  ``event`` reference),
* :mod:`repro.serving.engine` -- the closed-form kernel and the batched
  :func:`~repro.serving.engine.simulate_grid` entry point,
* :class:`~repro.serving.metrics.LatencyReport` and helpers for percentiles
  and sustained-throughput search,
* :mod:`repro.serving.trace` / :mod:`repro.serving.estimators` /
  :mod:`repro.serving.router` -- the online serving layer: time-varying
  load traces (:func:`~repro.serving.trace.diurnal_trace`,
  :func:`~repro.serving.trace.spike_trace`,
  :func:`~repro.serving.trace.ramp_trace`), pluggable causal load
  estimators (:class:`~repro.serving.estimators.WindowedMean`,
  :class:`~repro.serving.estimators.EWMA`,
  :class:`~repro.serving.estimators.HoltTrend`) and MP-Rec-style
  serving-time path selection (:class:`~repro.serving.router.PathTable`,
  :class:`~repro.serving.router.MultiPathRouter`).
"""

from repro.serving.engine import (
    ENGINES,
    SimulationConfig,
    analytic_latencies,
    event_latencies,
    simulate_grid,
)
from repro.serving.estimators import (
    ESTIMATORS,
    EWMA,
    HoltTrend,
    LoadEstimator,
    WindowedMean,
    estimator_from_knobs,
    make_estimator,
)
from repro.serving.metrics import LatencyReport, makespan_seconds, percentile
from repro.serving.resources import PipelinePlan, StageResource
from repro.serving.router import (
    MultiPathRouter,
    PathTable,
    RoutingResult,
    ServingPath,
    route_oracle,
    route_static,
)
from repro.serving.simulator import ServingSimulator, sweep_load
from repro.serving.trace import (
    TRACES,
    LoadTrace,
    diurnal_trace,
    make_trace,
    ramp_trace,
    spike_trace,
)

__all__ = [
    "StageResource",
    "PipelinePlan",
    "LatencyReport",
    "percentile",
    "makespan_seconds",
    "ServingSimulator",
    "SimulationConfig",
    "ENGINES",
    "analytic_latencies",
    "event_latencies",
    "simulate_grid",
    "sweep_load",
    "LoadEstimator",
    "WindowedMean",
    "EWMA",
    "HoltTrend",
    "ESTIMATORS",
    "make_estimator",
    "estimator_from_knobs",
    "LoadTrace",
    "TRACES",
    "diurnal_trace",
    "spike_trace",
    "ramp_trace",
    "make_trace",
    "ServingPath",
    "PathTable",
    "MultiPathRouter",
    "RoutingResult",
    "route_static",
    "route_oracle",
]
