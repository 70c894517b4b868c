"""Simulation engines: the closed-form (analytic) serving simulator.

Every stage of a :class:`~repro.serving.resources.PipelinePlan` is an FCFS
multi-server queue with a *deterministic* per-query service time.  Under
deterministic service the discrete-event schedule admits an exact closed
form, which is what makes dense design-space sweeps cheap: the grid, not the
cell, becomes the unit of cost.

**Derivation.**  Queries enter a stage in arrival order.  With ``c`` servers
and a constant service time ``S``, the earliest-free server for the ``q``-th
query is always the one that served query ``q - c`` (start times are
non-decreasing when eligibility times are non-decreasing, which holds
inductively stage by stage because arrivals are sorted).  Query ``q``
therefore lands on lane ``q mod c``, and within one lane the start times obey
the Lindley recurrence

    ``start_j = max(eligible_j, start_{j-1} + S)``

whose closed-form solution is a running maximum:

    ``start_j = j*S + max_{i <= j}(eligible_i - i*S)``

i.e. one subtraction, one :func:`np.maximum.accumulate` and one addition per
stage — no event loop, no heap.  Between stages, eligibility propagates
exactly as in the event engine: stage ``k+1`` may start
``forward_fraction_k * service_k`` after stage ``k`` starts (sub-batch
pipelining), plus the next stage's ``transfer_seconds``; the query completes
when the slowest stage finishes.

The event-loop reference (:func:`event_latencies`) is kept for validation:
the two engines agree to floating-point noise (``atol=1e-9``; see
``tests/test_engine.py``).  :func:`repro.serving.simulator.simulate` is the
one caller of both kernels: it amortizes one arrival draw across an entire
QPS column — ``rng.exponential(scale)`` is bitwise
``standard_exponential() * scale``, so scaling a shared unit draw by
``1/qps`` reproduces the exact arrivals a per-cell draw with the same seed
would produce, while the Lindley kernel runs batched over the whole
``(qps, query)`` matrix.

**Stochastic service.**  Both engines also accept *per-query* service times
(sampled from :mod:`repro.serving.service_times`).  With heterogeneous
service the earliest-free-server discipline loses its closed form (the
Kiefer–Wolfowitz recursion has no running-maximum solution), so the model is
*defined* as round-robin lane dispatch: query ``q`` runs on lane
``q mod c``, which coincides exactly with earliest-free-server when service
is constant.  Within one lane the Lindley recurrence still solves in closed
form with exclusive per-lane cumulative sums replacing ``j*S``:

    ``start_j = C_j + max_{i <= j}(eligible_i - C_i)``,  ``C_j = sum_{i<j} S_i``

The event engine mirrors the same dispatch rule per query, keeping it a
genuinely independent oracle (sequential scalar recursion vs batched
cummax); the two agree to ``atol=1e-9`` on stochastic vectors too (see
``tests/test_service_times.py``).  Service draws use a seed derived from the
arrival seed (:func:`service_seed`), so arrivals stay bit-identical whether
or not a service model is active.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.serving.resources import PipelinePlan
from repro.serving.service_times import CachedServiceConfig

#: Engines :func:`~repro.serving.simulator.simulate` can select.
ENGINES = ("analytic", "event")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one at-scale simulation run.

    ``service`` selects the per-query service-time model: ``None`` keeps the
    historical deterministic service, a :class:`CachedServiceConfig` samples
    cache-aware stochastic service vectors (seeded from the arrival seed via
    :func:`service_seed`, so arrivals are unchanged either way).
    """

    num_queries: int = 4000
    warmup_queries: int = 200
    seed: int = 0
    saturation_utilization: float = 0.98
    engine: str = "analytic"
    service: CachedServiceConfig | None = None

    def __post_init__(self) -> None:
        """Validate the simulation budget, engine and service model."""
        if self.num_queries <= 0:
            raise ValueError("num_queries must be positive")
        if not 0 <= self.warmup_queries < self.num_queries:
            raise ValueError("warmup_queries must be smaller than num_queries")
        if not 0.0 < self.saturation_utilization <= 1.0:
            raise ValueError("saturation_utilization must lie in (0, 1]")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.service is not None and not isinstance(self.service, CachedServiceConfig):
            raise ValueError(
                f"service must be a CachedServiceConfig or None, got {type(self.service)!r}"
            )

    def saturated(self, plan: PipelinePlan, qps: float) -> bool:
        """Whether ``qps`` loads ``plan``'s bottleneck at or past the saturation threshold.

        The one saturation rule: a saturated load is not simulated and
        reports infinite tail latency (the paper's greyed-out cells).
        """
        return plan.utilization(qps) >= self.saturation_utilization

    @classmethod
    def with_budget(
        cls,
        num_queries: int,
        seed: int = 0,
        engine: str = "analytic",
        service: CachedServiceConfig | None = None,
    ) -> "SimulationConfig":
        """A config whose warmup scales with the query budget (CI-friendly)."""
        return cls(
            num_queries=num_queries,
            warmup_queries=min(200, num_queries // 10),
            seed=seed,
            engine=engine,
            service=service,
        )


# --------------------------------------------------------------------------- #
# Seeds, the arrival draw and the service check (shared by both engines)
# --------------------------------------------------------------------------- #
def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent integer seeds from ``seed``.

    :meth:`np.random.SeedSequence.spawn` guarantees statistically independent
    streams while staying fully deterministic: the same root seed always
    derives the same children.  Each child is collapsed to a 128-bit integer
    (wide enough that collisions are out of the question) so seeds stay
    hashable, comparable and cheap to ship to worker processes.  This is the
    one definition of the collapse; sweep columns and router paths both use
    it.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [
        int.from_bytes(child.generate_state(4, np.uint32).tobytes(), "little")
        for child in children
    ]


def service_seed(seed) -> int:
    """Derive the service-draw seed paired with arrival seed ``seed``.

    Arrivals consume ``default_rng(seed)`` directly (bit-compatible with
    every pre-stochastic result); service sampling must not share that
    stream, so it uses the first spawned child instead.
    :func:`~repro.serving.simulator.simulate` and the router's memoized
    dwell draws derive the pair the same way, which is what makes a
    column's cells equal one-load runs under a service model.
    """
    if isinstance(seed, np.random.SeedSequence):
        seed = int.from_bytes(seed.generate_state(4, np.uint32).tobytes(), "little")
    return spawn_seeds(int(seed), 1)[0]


def draw_unit_arrivals(num_queries: int, seed) -> np.ndarray:
    """One standard-exponential inter-arrival draw, reusable across loads.

    Scaling by ``1/qps`` yields exactly the inter-arrivals that
    ``default_rng(seed).exponential(1/qps, num_queries)`` would produce, so a
    single draw serves every QPS point of a sweep column without changing any
    per-cell result.
    """
    return np.random.default_rng(seed).standard_exponential(num_queries)


def _stage_service(plan: PipelinePlan, service) -> np.ndarray | None:
    """A per-query service array whose axis 0 indexes ``plan``'s stages, checked.

    Both kernels read ``service[k]`` as stage ``k``'s times, so an array
    with any other axis-0 length is rejected rather than broadcast.
    """
    if service is None:
        return None
    service = np.asarray(service, dtype=np.float64)
    if service.ndim == 0 or service.shape[0] != len(plan.stages):
        raise ValueError(
            f"service axis 0 must match the {len(plan.stages)} plan stages, "
            f"got shape {service.shape}"
        )
    return service


# --------------------------------------------------------------------------- #
# The analytic engine
# --------------------------------------------------------------------------- #
def fcfs_start_times(eligible: np.ndarray, num_servers: int, service_seconds) -> np.ndarray:
    """Exact start times of an FCFS multi-server queue, round-robin lanes.

    ``eligible`` holds per-query eligibility times along the last axis;
    leading axes batch independent columns (e.g. one row per QPS point).
    Query ``q`` runs on lane ``q mod num_servers``; per lane the Lindley
    recurrence is solved with one running maximum (the cummax computes the
    recurrence for any eligibility ordering, so downstream stages with
    non-monotone eligibility under heterogeneous service are fine).

    ``service_seconds`` is either a scalar (deterministic service, where
    round-robin coincides with earliest-free-server) or an array
    broadcastable to ``eligible`` carrying per-query service times, in which
    case the per-lane offsets become exclusive cumulative sums.
    """
    eligible = np.asarray(eligible, dtype=np.float64)
    n = eligible.shape[-1]
    if n == 0:
        return eligible.copy()
    lanes = min(num_servers, n)
    rounds = -(-n // lanes)
    lead = eligible.shape[:-1]
    padded = np.full(lead + (rounds * lanes,), np.inf, dtype=np.float64)
    padded[..., :n] = eligible
    grid = padded.reshape(lead + (rounds, lanes))
    # start[j] = C_j + cummax(eligible[i] - C_i) along the per-lane axis with
    # C_j the exclusive service prefix sum (j*S for a scalar S); the +inf
    # padding sits in the final round only, downstream of every real entry.
    service = np.asarray(service_seconds, dtype=np.float64)
    if service.ndim == 0:
        offsets = service * np.arange(rounds, dtype=np.float64)
        offsets = offsets.reshape((1,) * len(lead) + (rounds, 1))
    else:
        svc = np.zeros(lead + (rounds * lanes,), dtype=np.float64)
        svc[..., :n] = np.broadcast_to(service, eligible.shape)
        svc_grid = svc.reshape(lead + (rounds, lanes))
        offsets = np.cumsum(svc_grid, axis=-2) - svc_grid
    starts = np.maximum.accumulate(grid - offsets, axis=-2) + offsets
    return starts.reshape(lead + (rounds * lanes,))[..., :n]


def analytic_latencies(
    plan: PipelinePlan, arrivals: np.ndarray, service: np.ndarray | None = None
) -> np.ndarray:
    """End-to-end latencies of sorted ``arrivals`` through ``plan``, closed form.

    ``arrivals`` may carry leading batch axes; each row is an independent
    simulation sharing the plan.  Eligibility propagates between stages the
    same way the event engine propagates it: ``transfer_seconds`` before a
    stage starts, ``forward_fraction * service`` after it starts.

    ``service`` optionally carries per-query service times: axis 0 indexes
    stages, the rest broadcasts against ``arrivals`` (e.g. shape
    ``(num_stages, 1, num_queries)`` for a QPS grid whose service draw is
    load-independent).  ``None`` keeps each stage's deterministic time.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    service = _stage_service(plan, service)
    eligible = arrivals
    completion = arrivals
    for k, stage in enumerate(plan.stages):
        svc = (
            stage.service_seconds
            if service is None
            else np.broadcast_to(service[k], arrivals.shape)
        )
        eligible = eligible + stage.transfer_seconds
        start = fcfs_start_times(eligible, stage.num_servers, svc)
        completion = np.maximum(completion, start + svc)
        eligible = start + stage.forward_fraction * svc
    return completion - arrivals


# --------------------------------------------------------------------------- #
# The event-loop reference engine
# --------------------------------------------------------------------------- #
def event_latencies(
    plan: PipelinePlan, arrivals: np.ndarray, service: np.ndarray | None = None
) -> np.ndarray:
    """End-to-end latencies via the discrete-event reference (1-D arrivals).

    Kept for validating the closed form: one heappop/heappush per (query,
    stage) under deterministic service, or one round-robin lane update per
    (query, stage) when ``service`` supplies per-query times -- the same
    scalar recursion the analytic cummax must reproduce, computed a
    completely different way.  ``service`` has shape ``(num_stages,)`` or
    ``(num_stages, num_queries)`` (axis 1 broadcasts).
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.ndim != 1:
        raise ValueError("event engine simulates one arrival column at a time")
    latencies = np.empty(arrivals.size, dtype=np.float64)
    service = _stage_service(plan, service)
    if service is not None:
        matrix = np.broadcast_to(
            service.reshape(service.shape[0], -1), (len(plan.stages), arrivals.size)
        )
        lane_free = [np.zeros(stage.num_servers) for stage in plan.stages]
        for q in range(arrivals.size):
            eligible = arrivals[q]
            completion = arrivals[q]
            for s, stage in enumerate(plan.stages):
                svc = matrix[s, q]
                eligible += stage.transfer_seconds
                lane = q % stage.num_servers
                start = max(eligible, lane_free[s][lane])
                finish = start + svc
                lane_free[s][lane] = finish
                completion = max(completion, finish)
                eligible = start + stage.forward_fraction * svc
            latencies[q] = completion - arrivals[q]
        return latencies
    server_free: list[list[float]] = [[0.0] * stage.num_servers for stage in plan.stages]
    for heap in server_free:
        heapq.heapify(heap)
    for q in range(arrivals.size):
        eligible = arrivals[q]
        completion = arrivals[q]
        for s, stage in enumerate(plan.stages):
            eligible += stage.transfer_seconds
            free_at = heapq.heappop(server_free[s])
            start = max(eligible, free_at)
            finish = start + stage.service_seconds
            heapq.heappush(server_free[s], finish)
            completion = max(completion, finish)
            eligible = start + stage.forward_fraction * stage.service_seconds
        latencies[q] = completion - arrivals[q]
    return latencies
