"""At-scale simulation of a multi-stage pipeline under Poisson load.

Queries arrive following a Poisson process at the offered QPS and flow through
the stages of a :class:`~repro.serving.resources.PipelinePlan`.  Each stage is
a FCFS multi-server queue (servers = CPU cores, the GPU, accelerator
sub-arrays...).  A query becomes eligible for stage ``k+1`` once stage ``k``
has produced its first results -- after ``forward_fraction_k * service_k`` --
which is how RPAccel's sub-batch pipelining shortens end-to-end latency
without changing stage occupancy.  The query completes when every one of its
stage executions has finished.

:func:`simulate` is the one place latency samples are made: every sweep
cell, router dwell cell and figure point comes from it.  It selects between
two engines producing the same schedule (see :mod:`repro.serving.engine`):

* ``engine="analytic"`` (default) -- the closed-form per-lane Lindley
  recurrence, a handful of vectorized numpy passes per stage;
* ``engine="event"`` -- the discrete-event reference, one heappop/heappush
  per (query, stage), kept for validating the closed form.

Loads at or beyond the saturation threshold
(:meth:`~repro.serving.engine.SimulationConfig.saturated`) are not simulated;
the paper's figures grey out configurations that cannot meet the system load.

:func:`simulated_p99` is the one place ``simulate`` rows become p99s: the
scheduler's columns, the router's path-table rows and Figure 12's points
all read their tail latency from it, ``inf`` marking the saturated loads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.serving.engine import (
    SimulationConfig,
    analytic_latencies,
    draw_unit_arrivals,
    event_latencies,
    service_seed,
)
from repro.serving.metrics import LatencyReport
from repro.serving.resources import PipelinePlan
from repro.serving.service_times import sampled_service

__all__ = ["SimulationConfig", "simulate", "simulated_p99"]


def simulate(
    plan: PipelinePlan,
    qps_values: Sequence[float],
    config: SimulationConfig,
    seed=None,
    service: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate ``plan`` at every load of ``qps_values`` from one arrival draw.

    One unit inter-arrival draw is scaled to each live load (bitwise the
    draw a one-load call with the same seed makes), and one load-independent
    service matrix serves every load.  The analytic kernel runs over the
    whole ``(load, query)`` matrix at once; the event kernel replays it one
    row at a time.

    Parameters
    ----------
    plan : PipelinePlan
        The mapped pipeline to simulate.
    qps_values : sequence of float
        Offered loads; each must be positive.
    config : SimulationConfig
        Query budget, warm-up, seed, engine and service model.
    seed : optional
        Overrides ``config.seed`` (any :func:`np.random.default_rng` seed).
    service : np.ndarray, optional
        A ``(stages, queries)`` service matrix to use instead of drawing one
        from ``config.service``.

    Returns
    -------
    tuple of np.ndarray
        ``(live, arrivals, latencies)``: ``live[i]`` is False when load ``i``
        is saturated, and row ``j`` of ``arrivals`` and ``latencies`` is the
        post-warm-up window of the ``j``-th live load.
    """
    loads = [float(qps) for qps in qps_values]
    if any(qps <= 0 for qps in loads):
        raise ValueError(f"qps points must be positive, got {loads}")
    live = np.array([not config.saturated(plan, qps) for qps in loads], dtype=bool)
    warmup = config.warmup_queries
    if not live.any():
        empty = np.empty((0, config.num_queries - warmup))
        return live, empty, empty
    effective_seed = config.seed if seed is None else seed
    unit = draw_unit_arrivals(config.num_queries, effective_seed)
    if service is None and config.service is not None:
        service = sampled_service(
            plan, config.service, config.num_queries, service_seed(effective_seed)
        )
    scales = 1.0 / np.asarray(loads, dtype=np.float64)[live]
    arrivals = np.cumsum(unit[None, :] * scales[:, None], axis=1)
    if config.engine == "event":
        latencies = np.stack([event_latencies(plan, row, service=service) for row in arrivals])
    else:
        # The service a query needs does not depend on how fast queries
        # arrive, so one matrix broadcasts over the load axis.
        column = None if service is None else np.expand_dims(service, 1)
        latencies = analytic_latencies(plan, arrivals, service=column)
    return live, arrivals[:, warmup:], latencies[:, warmup:]


def simulated_p99(
    plan: PipelinePlan,
    qps_values: Sequence[float],
    config: SimulationConfig,
    seed=None,
) -> np.ndarray:
    """The p99 latency of ``plan`` at every load of ``qps_values``.

    One :func:`simulate` call and one
    :meth:`~repro.serving.metrics.LatencyReport.from_latencies` call over
    its live rows.  A simulated load's latencies are finite, so the result
    is ``inf`` exactly at the saturated loads.

    Parameters
    ----------
    plan : PipelinePlan
        The mapped pipeline to simulate.
    qps_values : sequence of float
        Offered loads; each must be positive.
    config : SimulationConfig
        Query budget, warm-up, seed, engine and service model.
    seed : optional
        Overrides ``config.seed`` (any :func:`np.random.default_rng` seed).

    Returns
    -------
    np.ndarray
        p99 seconds per load, in ``qps_values`` order; ``inf`` where saturated.
    """
    live, arrivals, latencies = simulate(plan, qps_values, config, seed=seed)
    p99 = np.full(live.shape, np.inf)
    if live.any():
        offered = [float(qps) for qps, ok in zip(qps_values, live) if ok]
        reports = LatencyReport.from_latencies(latencies, arrivals, offered, [False] * len(offered))
        p99[live] = [report.p99_latency for report in reports]
    return p99
