"""At-scale serving simulation: Poisson arrivals, queueing, tail latency.

The paper evaluates every configuration at scale: tens of thousands of
queries arrive following a Poisson process at a target QPS, flow through the
multi-stage pipeline mapped onto its hardware, and the system reports p99
tail latency and sustained throughput.  This package provides

* :class:`~repro.serving.resources.StageResource` /
  :class:`~repro.serving.resources.PipelinePlan` -- the platform-agnostic
  description of a scheduled pipeline,
* :func:`~repro.serving.simulator.simulate` -- the one path from a plan and
  a column of loads to latency samples: one arrival draw, one service draw,
  the saturation rule (:meth:`SimulationConfig.saturated`) and the
  engine-selected kernel (closed-form ``analytic`` default, discrete-event
  ``event`` reference); sweep cells, router dwell cells and figure points
  all come from it,
* :func:`~repro.serving.simulator.simulated_p99` -- the one path from a
  plan and a column of loads to p99s (``inf`` where saturated): the
  scheduler's columns, the router's path-table rows and Figure 12's points
  read it,
* :mod:`repro.serving.engine` -- :class:`SimulationConfig`, the seed
  helpers and the two kernels,
* :class:`~repro.serving.metrics.LatencyReport` -- the latency summary of
  one simulated load,
* :mod:`repro.serving.trace` / :mod:`repro.serving.estimators` /
  :mod:`repro.serving.router` -- the online serving layer: time-varying
  load traces (:func:`~repro.serving.trace.diurnal_trace`,
  :func:`~repro.serving.trace.spike_trace`,
  :func:`~repro.serving.trace.ramp_trace`), pluggable causal load
  estimators (:class:`~repro.serving.estimators.WindowedMean`,
  :class:`~repro.serving.estimators.EWMA`,
  :class:`~repro.serving.estimators.HoltTrend`) and MP-Rec-style
  serving-time path selection (:class:`~repro.serving.router.PathTable`,
  whose one lookup is ``p99_profile`` and one decision rule
  ``best_path_batch``, and :class:`~repro.serving.router.MultiPathRouter`).
"""

from repro.serving.engine import (
    ENGINES,
    SimulationConfig,
    analytic_latencies,
    event_latencies,
)
from repro.serving.estimators import (
    ESTIMATORS,
    EWMA,
    HoltTrend,
    LoadEstimator,
    WindowedMean,
    make_estimator,
)
from repro.serving.metrics import LatencyReport
from repro.serving.resources import PipelinePlan, StageResource
from repro.serving.router import (
    MultiPathRouter,
    PathTable,
    RoutingResult,
    ServingPath,
    route_oracle,
    route_static,
)
from repro.serving.simulator import simulate, simulated_p99
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
    "SimulationConfig",
    "simulate",
    "simulated_p99",
    "ENGINES",
    "analytic_latencies",
    "event_latencies",
    "LoadEstimator",
    "WindowedMean",
    "EWMA",
    "HoltTrend",
    "ESTIMATORS",
    "make_estimator",
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
