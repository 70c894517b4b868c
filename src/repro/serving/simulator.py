"""At-scale simulation of a multi-stage pipeline under Poisson load.

Queries arrive following a Poisson process at the offered QPS and flow through
the stages of a :class:`~repro.serving.resources.PipelinePlan`.  Each stage is
a FCFS multi-server queue (servers = CPU cores, the GPU, accelerator
sub-arrays...).  A query becomes eligible for stage ``k+1`` once stage ``k``
has produced its first results -- after ``forward_fraction_k * service_k`` --
which is how RPAccel's sub-batch pipelining shortens end-to-end latency
without changing stage occupancy.  The query completes when every one of its
stage executions has finished.

:class:`ServingSimulator` selects between two engines producing the same
schedule (see :mod:`repro.serving.engine`):

* ``engine="analytic"`` (default) -- the closed-form per-lane Lindley
  recurrence, a handful of vectorized numpy passes per stage;
* ``engine="event"`` -- the discrete-event reference, one heappop/heappush
  per (query, stage), kept for validating the closed form.

The simulator reports the latency distribution (mean, p50/p95/p99, max) and
whether the configuration is saturated (offered load at or beyond the
bottleneck stage's capacity), which the paper's figures display by greying
out configurations that cannot meet the system load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.serving.engine import (
    SimulationConfig,
    analytic_latencies,
    arrivals_at_qps,
    build_reports,
    draw_unit_arrivals,
    event_latencies,
    service_seed,
    simulate_grid,
)
from repro.serving.metrics import LatencyReport
from repro.serving.resources import PipelinePlan
from repro.serving.service_times import sampled_service

__all__ = ["ServingSimulator", "SimulationConfig"]


@dataclass
class ServingSimulator:
    """Simulate a pipeline plan under Poisson arrivals at a fixed QPS."""

    plan: PipelinePlan
    config: SimulationConfig = field(default_factory=SimulationConfig)

    def _service(self, effective_seed) -> np.ndarray | None:
        """Per-query service matrix for ``config.service`` (None = deterministic)."""
        if self.config.service is None:
            return None
        return sampled_service(
            self.plan, self.config.service, self.config.num_queries,
            service_seed(effective_seed),
        )

    def _latencies(self, arrivals: np.ndarray, service: np.ndarray | None = None) -> np.ndarray:
        if self.config.engine == "event":
            return event_latencies(self.plan, arrivals, service=service)
        return analytic_latencies(self.plan, arrivals, service=service)

    def run(self, qps: float, seed=None) -> LatencyReport:
        """Simulate ``config.num_queries`` arrivals at ``qps`` and report latency.

        ``seed`` overrides ``config.seed`` for this run (any
        :func:`np.random.default_rng` seed).
        """
        if qps <= 0:
            raise ValueError(f"qps must be positive, got {qps}")
        cfg = self.config
        effective_seed = cfg.seed if seed is None else seed
        unit = draw_unit_arrivals(cfg.num_queries, effective_seed)
        arrivals = arrivals_at_qps(unit, qps)
        latencies = self._latencies(arrivals, self._service(effective_seed))
        return build_reports(self.plan, cfg, [qps], arrivals[None, :], latencies[None, :])[0]

    def run_grid(self, qps_values: Sequence[float], seed=None) -> list[LatencyReport]:
        """One report per load in ``qps_values`` from a single arrival draw.

        On the analytic engine the whole column is simulated in one batched
        call; the event engine replays the same arrivals (and, under a
        service model, the same load-independent service draw) per load.
        """
        cfg = self.config
        if cfg.engine == "analytic":
            return simulate_grid(self.plan, qps_values, cfg, seed=seed)
        qps_list = [float(qps) for qps in qps_values]
        if not qps_list:
            return []
        effective_seed = cfg.seed if seed is None else seed
        unit = draw_unit_arrivals(cfg.num_queries, effective_seed)
        service = self._service(effective_seed)
        arrivals = np.stack([arrivals_at_qps(unit, qps) for qps in qps_list])
        latencies = np.stack([self._latencies(row, service) for row in arrivals])
        return build_reports(self.plan, cfg, qps_list, arrivals, latencies)
