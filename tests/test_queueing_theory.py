"""The serving engine against exact queueing theory on a one-stage, one-server plan.

The engines agree with each other to 1e-9 s, but they share the model, so
that agreement cannot see a kernel change that breaks the queue itself.
These checks compare ``simulate`` plus ``LatencyReport.from_latencies``
with closed forms, on the analytic engine at 10^6 Poisson arrivals
(10^4 of them warm-up) and 1 ms mean service:

* M/D/1 (the plan's deterministic service): mean sojourn
  ``D + rho * D / (2 * (1 - rho))`` (Pollaczek–Khinchine);
* M/M/1 (exponential ``service=`` draws): the FCFS sojourn time is
  exponential with rate ``mu - lambda``, so mean ``1 / (mu - lambda)`` and
  p99 ``ln(100) / (mu - lambda)``.

Each tolerance is about three standard deviations of the relative error
over seeds 0-29, measured on this engine before the tests were written
(sd, in that order: M/D/1 mean 0.13%, 0.54% and 1.27% at rho 0.5, 0.8 and
0.9; M/M/1 mean 0.27% and 0.92%, and M/M/1 p99 0.66% and 2.07%, at rho 0.5
and 0.8).  The tests run seeds 0-2.
"""

import math

import numpy as np
import pytest

from repro.serving.engine import SimulationConfig
from repro.serving.metrics import LatencyReport
from repro.serving.resources import PipelinePlan, StageResource
from repro.serving.simulator import simulate

SERVICE_S = 1e-3
QUERIES = 10**6
WARMUP = 10**4
SEEDS = (0, 1, 2)
PLAN = PipelinePlan(
    platform="theory",
    stages=[StageResource(name="s0", num_servers=1, service_seconds=SERVICE_S)],
)


def report(utilization: float, seed: int, service: np.ndarray | None = None) -> LatencyReport:
    """The post-warm-up report of one simulation at ``utilization``."""
    qps = utilization / SERVICE_S
    config = SimulationConfig(num_queries=QUERIES, warmup_queries=WARMUP, seed=seed)
    live, arrivals, latencies = simulate(PLAN, [qps], config, service=service)
    assert live.all()
    (result,) = LatencyReport.from_latencies(latencies, arrivals, [qps], [False])
    return result


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("utilization, tolerance", [(0.5, 0.005), (0.8, 0.02), (0.9, 0.04)])
def test_md1_mean_sojourn_is_pollaczek_khinchine(utilization, tolerance, seed):
    expected = SERVICE_S + utilization * SERVICE_S / (2 * (1 - utilization))
    assert report(utilization, seed).mean_latency == pytest.approx(expected, rel=tolerance)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "utilization, mean_tolerance, p99_tolerance", [(0.5, 0.01, 0.02), (0.8, 0.03, 0.065)]
)
def test_mm1_sojourn_is_exponential(utilization, mean_tolerance, p99_tolerance, seed):
    service = np.random.default_rng((seed, 7)).exponential(SERVICE_S, size=(1, QUERIES))
    result = report(utilization, seed, service)
    rate = (1 - utilization) / SERVICE_S  # mu - lambda
    assert result.mean_latency == pytest.approx(1 / rate, rel=mean_tolerance)
    assert result.p99_latency == pytest.approx(math.log(100) / rate, rel=p99_tolerance)
