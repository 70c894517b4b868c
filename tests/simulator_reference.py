"""Reference implementation :func:`repro.serving.simulator.simulate` is checked against.

:class:`ReferenceSimulator` is ``ServingSimulator.run`` as it was before every
latency sample moved into one ``simulate`` call, kept verbatim in logic: one
unit inter-arrival draw per load with arrivals at
``cumsum(unit * (1 / qps))``, one service draw seeded from
:func:`~repro.serving.engine.service_seed`, the analytic or event kernel,
the warm-up cut, and a report whose ``saturated`` flag comes from the
utilization rule.  Unlike ``simulate`` it simulates saturated loads too.

The equivalence suite in ``tests/test_engine.py`` requires ``simulate``'s
live mask, its reports and ``PathTable``'s dwell cells to reproduce it
exactly (``==``).

:func:`reference_p99_column` is the report step ``RecPipeScheduler.evaluate_grid``
and Figure 12 each kept before ``simulated_p99`` took it over: one
``simulate`` call, one report per live load, ``inf`` at the others.  The
suite requires ``simulated_p99`` to equal it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.engine import (
    SimulationConfig,
    analytic_latencies,
    event_latencies,
    service_seed,
)
from repro.serving.metrics import LatencyReport
from repro.serving.resources import PipelinePlan
from repro.serving.service_times import sampled_service
from repro.serving.simulator import simulate


@dataclass
class ReferenceSimulator:
    """Simulate a pipeline plan under Poisson arrivals at a fixed QPS."""

    plan: PipelinePlan
    config: SimulationConfig = field(default_factory=SimulationConfig)

    def _service(self, effective_seed) -> np.ndarray | None:
        if self.config.service is None:
            return None
        return sampled_service(
            self.plan, self.config.service, self.config.num_queries, service_seed(effective_seed)
        )

    def simulate(self, qps: float, seed=None) -> tuple[np.ndarray, np.ndarray]:
        """Full ``(arrivals, latencies)`` of one load, warm-up included."""
        if qps <= 0:
            raise ValueError(f"qps must be positive, got {qps}")
        cfg = self.config
        effective_seed = cfg.seed if seed is None else seed
        unit = np.random.default_rng(effective_seed).standard_exponential(cfg.num_queries)
        arrivals = np.cumsum(unit * (1.0 / qps))
        service = self._service(effective_seed)
        if cfg.engine == "event":
            return arrivals, event_latencies(self.plan, arrivals, service=service)
        return arrivals, analytic_latencies(self.plan, arrivals, service=service)

    def run(self, qps: float, seed=None) -> LatencyReport:
        """Report of ``config.num_queries`` arrivals at ``qps`` after the warm-up."""
        arrivals, latencies = self.simulate(qps, seed)
        warmup = self.config.warmup_queries
        return LatencyReport.from_latencies(
            latencies[None, warmup:],
            arrivals[None, warmup:],
            offered_qps=[qps],
            saturated=[self.plan.utilization(qps) >= self.config.saturation_utilization],
        )[0]


def reference_p99_column(plan, qps_values, config, seed=None) -> list[float]:
    """p99 seconds of ``plan`` at each load; ``inf`` where ``simulate`` finds it saturated."""
    qps_list = [float(qps) for qps in qps_values]
    live, arrivals, latencies = simulate(plan, qps_list, config, seed=seed)
    offered = [qps for qps, ok in zip(qps_list, live) if ok]
    reports = iter(
        LatencyReport.from_latencies(latencies, arrivals, offered, [False] * len(offered))
        if offered
        else ()
    )
    return [next(reports).p99_latency if ok else float("inf") for ok in live.tolist()]
