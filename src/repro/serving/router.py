"""Online multi-path serving: pick the (platform, pipeline) path as load shifts.

The sweep layer answers the *offline* question — which execution path is
best at each fixed load — and emits best-platform-per-load cross-sections.
This module turns those cross-sections into a *serving-time* policy, the
MP-Rec-style closing of the loop the roadmap asks for:

* :class:`ServingPath` — one runnable (platform, pipeline) execution path
  with its hardware plan and platform-independent quality;
* :class:`PathTable` — the compiled routing table: per path, a p99-vs-load
  curve over a swept QPS grid.  Each path's *feasible frontier* — the
  monotone prefix of finite grid cells before its first saturated one — is
  precomputed at construction; lookups interpolate only over that frontier
  and return an explicit ``inf`` beyond it, so ``p99_at`` is finite-or-
  ``inf`` and non-decreasing in load, never NaN (interpolating across
  ``inf`` cells used to produce ``inf - inf`` NaNs exactly in the saturated
  regime where shedding decisions matter).  The decision rule
  ``best_path(qps)`` picks the highest-quality path whose frontier p99
  meets the SLA, degrading to latency shedding when nothing does;
* :class:`MultiPathRouter` — the online policy: it forecasts offered load
  through a pluggable :class:`~repro.serving.estimators.LoadEstimator`
  (windowed mean, EWMA, or Holt level+trend — all strictly causal), and
  commits a switch only after the candidate persists for
  ``hysteresis_steps`` consecutive decisions *and* — for shedding
  switches, when ``switch_cost_seconds`` is set — the predicted p99 gain
  over the expected dwell (estimated from the candidate's persistence
  streak) repays the switch cost.  The first step served by a new path
  charges ``switch_penalty_seconds`` to every query (warm-up);
* :func:`route_static` / :func:`route_oracle` — the two bounding policies:
  the single best path a planner would provision offline for the trace's
  typical load, and the clairvoyant per-step optimum with no lag, no
  hysteresis and free switches.

Every dwell step of a routed schedule is evaluated on the closed-form
analytic engine (:mod:`repro.serving.engine`): a steady-state arrival window
is simulated at the step's offered load for the active path, one batched
kernel call per (path, distinct-load) set, and per-query SLA violations,
trace-wide weighted p99 and query-weighted quality are aggregated into a
:class:`RoutingResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.serving.engine import (
    SimulationConfig,
    analytic_latencies,
    draw_unit_arrivals,
    service_seed,
    spawn_seeds,
)
from repro.serving.estimators import HazardDwellForecaster, LoadEstimator, WindowedMean
from repro.serving.metrics import weighted_percentile
from repro.serving.resources import PipelinePlan
from repro.serving.service_times import CachedServiceConfig, ServiceTimeSampler, sampled_service
from repro.serving.trace import LoadTrace

if TYPE_CHECKING:  # the core layer imports serving; keep the reverse edge type-only
    from repro.core.pipeline import PipelineConfig
    from repro.core.scheduler import RecPipeScheduler
    from repro.core.sweep import SweepOutcome

__all__ = [
    "MultiPathRouter",
    "PathTable",
    "RoutingResult",
    "ServingPath",
    "route_oracle",
    "route_static",
]


def _event_log():
    """The active :class:`~repro.core.events.EventLog`, or ``None``.

    Imported lazily because the core layer imports serving at module
    scope; the reverse runtime edge must not exist at import time.  The
    lookup runs once per routed *trace*, never per step, so the hot loop
    cost is one ``is None`` check.
    """
    from repro.core.events import active_log

    return active_log()


@dataclass(frozen=True)
class ServingPath:
    """One runnable execution path: a pipeline mapped onto a platform.

    Parameters
    ----------
    platform : str
        Hardware platform name (``cpu``, ``gpu``, ``gpu-cpu``, ...).
    pipeline : PipelineConfig
        The multi-stage funnel this path serves.
    plan : PipelinePlan
        The pipeline mapped onto the platform (what the engine simulates).
    quality : float
        Platform-independent NDCG of the funnel, shared with the sweep memo.
    """

    platform: str
    pipeline: PipelineConfig
    plan: PipelinePlan
    quality: float

    @property
    def name(self) -> str:
        """Stable path label used in artifacts: ``platform:pipeline``."""
        return f"{self.platform}:{self.pipeline.name}"

    @property
    def capacity_qps(self) -> float:
        """Bottleneck-stage throughput capacity of the mapped plan."""
        return self.plan.throughput_capacity()


@dataclass(frozen=True)
class RoutingResult:
    """Aggregate serving metrics of one policy over one load trace.

    Attributes
    ----------
    policy : str
        ``static``, ``oracle`` or ``online``.
    trace_name : str
        Name of the :class:`~repro.serving.trace.LoadTrace` served.
    quality : float
        Query-weighted mean NDCG of the paths that served the trace.
    effective_quality : float
        Quality *delivered within the SLA*: the same query-weighted NDCG
        with every SLA-violating query discounted to zero (saturated dwell
        steps contribute nothing).  Quality promised by a path the load has
        saturated is not quality served.
    p99_seconds : float
        Trace-wide query-weighted p99 latency (``inf`` when saturated
        dwell steps hold at least 1% of the queries).
    violation_rate : float
        Fraction of queries whose latency exceeded the SLA (saturated
        steps count every query as violating).
    num_switches : int
        Path switches committed while serving the trace.
    total_queries : float
        Expected queries offered by the trace.
    path_steps : tuple[int, ...]
        Active path index per trace step.
    switch_steps : tuple[bool, ...]
        Whether each step is the first of a new dwell segment.
    occupancy : dict[str, float]
        Fraction of queries served by each path, keyed by path name.
    """

    policy: str
    trace_name: str
    quality: float
    effective_quality: float
    p99_seconds: float
    violation_rate: float
    num_switches: int
    total_queries: float
    path_steps: tuple[int, ...]
    switch_steps: tuple[bool, ...]
    occupancy: dict[str, float]


@dataclass
class PathTable:
    """The compiled routing table: p99-vs-load per path plus the decision rule.

    A table is compiled from a finished sweep (:meth:`from_outcome`) or
    directly from the scheduler (:meth:`compile`, one
    :meth:`~repro.core.scheduler.RecPipeScheduler.evaluate_grid` column per
    path).  At construction each path's **feasible frontier** is
    precomputed: the prefix of finite grid cells before the path's first
    saturated (``inf``) cell, forced non-decreasing (a physical p99 curve
    rises with load; simulation noise may dip, routing decisions should
    not).  Lookups interpolate linearly *within* the frontier, clamp to the
    first value below it, and return an explicit ``inf`` beyond it — both
    past the last feasible grid point and past the whole grid (the un-swept
    high-load region is treated as violating).  Interpolating across
    ``inf`` cells is never attempted, so :meth:`p99_at` cannot produce the
    ``inf - inf = NaN`` values that once made saturated-regime shedding
    decisions order-dependent.

    Parameters
    ----------
    paths : list[ServingPath]
        The candidate execution paths, in compile order.
    qps_grid : tuple[float, ...]
        The swept loads backing the p99 curves, strictly increasing.
    p99_grid : np.ndarray
        ``(len(paths), len(qps_grid))`` p99 seconds; ``inf`` marks
        saturated cells.
    sla_seconds : float
        The tail-latency SLA the decision rule enforces.
    quality_target : float or None
        Minimum NDCG a path needs to be routable (``None``: all paths).
    simulation : SimulationConfig
        Engine budget used when simulating dwell segments.
    seed : int
        Root seed; per-path arrival draws are spawned from it.
    """

    paths: list[ServingPath]
    qps_grid: tuple[float, ...]
    p99_grid: np.ndarray
    sla_seconds: float
    quality_target: float | None = None
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    seed: int = 0
    _segments: dict[tuple, np.ndarray | None] = field(
        default_factory=dict, init=False, repr=False
    )
    _service_samplers: dict[
        tuple[int, CachedServiceConfig], tuple[ServiceTimeSampler, np.ndarray]
    ] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        """Validate the grid; precompute frontiers, eligibility, per-path seeds."""
        if not self.paths:
            raise ValueError("a path table needs at least one path")
        grid = tuple(float(q) for q in self.qps_grid)
        if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("qps_grid must hold at least two strictly increasing loads")
        self.qps_grid = grid
        self.p99_grid = np.asarray(self.p99_grid, dtype=np.float64)
        if self.p99_grid.shape != (len(self.paths), len(grid)):
            raise ValueError(
                "p99_grid must be (num_paths, num_qps) = "
                f"({len(self.paths)}, {len(grid)}), got {self.p99_grid.shape}"
            )
        if np.isnan(self.p99_grid).any():
            raise ValueError("p99_grid must not contain NaN (use inf for saturated cells)")
        if self.sla_seconds <= 0:
            raise ValueError("sla_seconds must be positive")
        # Feasible frontier per path: the finite prefix before the first
        # saturated cell, forced non-decreasing.  Finite cells *after* an
        # inf cell are distrusted (a physical p99 curve never recovers from
        # saturation as load rises) and treated as saturated too.
        grid_array = np.asarray(grid)
        self._frontier_qps: list[np.ndarray] = []
        self._frontier_p99: list[np.ndarray] = []
        for row in self.p99_grid:
            finite = np.isfinite(row)
            length = int(row.size if finite.all() else np.argmin(finite))
            self._frontier_qps.append(grid_array[:length])
            self._frontier_p99.append(np.maximum.accumulate(row[:length]))
        self._eligible = [
            i
            for i, path in enumerate(self.paths)
            if self.quality_target is None or path.quality >= self.quality_target
        ]
        if not self._eligible:
            raise ValueError(
                f"no path reaches quality_target={self.quality_target}; "
                "lower the target or widen the path set"
            )
        self._path_seeds = spawn_seeds(self.seed, len(self.paths))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(
        cls,
        scheduler: "RecPipeScheduler",
        pipelines: Sequence[PipelineConfig],
        platforms: Sequence[str],
        qps_grid: Sequence[float],
        sla_ms: float,
        quality_target: float | None = None,
        seed: int = 0,
    ) -> "PathTable":
        """Compile a table by sweeping every (platform, pipeline) path.

        Quality is evaluated once per unique pipeline
        (:meth:`~repro.core.scheduler.RecPipeScheduler.quality_map`) and each
        path's p99 curve comes from one vectorized
        :meth:`~repro.core.scheduler.RecPipeScheduler.evaluate_grid` column,
        independently seeded via ``np.random.SeedSequence`` spawning.

        Parameters
        ----------
        scheduler : RecPipeScheduler
            Supplies quality evaluation, hardware plans and the engine.
        pipelines : sequence of PipelineConfig
            Candidate funnels.
        platforms : sequence of str
            Candidate hardware platforms; the cross product with
            ``pipelines`` is the path set.
        qps_grid : sequence of float
            Loads to sweep; must bracket the loads the router will see.
        sla_ms : float
            Tail-latency SLA in milliseconds.
        quality_target : float, optional
            Minimum NDCG a path needs to be routable.
        seed : int
            Root seed for arrival noise.

        Returns
        -------
        PathTable
            The compiled table.
        """
        platforms = tuple(dict.fromkeys(platforms))
        if not platforms:
            raise ValueError("at least one platform is required")
        qualities = scheduler.quality_map(pipelines)
        paths: list[ServingPath] = []
        p99_rows: list[list[float]] = []
        column_seeds = spawn_seeds(seed, len(platforms) * len(pipelines))
        seeds = iter(column_seeds)
        for platform in platforms:
            for pipeline in pipelines:
                column = scheduler.evaluate_grid(
                    pipeline,
                    platform,
                    qps_grid,
                    quality=qualities[pipeline.name],
                    seed=next(seeds),
                )
                paths.append(
                    ServingPath(
                        platform=platform,
                        pipeline=pipeline,
                        plan=scheduler.plan_for(pipeline, platform),
                        quality=qualities[pipeline.name],
                    )
                )
                p99_rows.append([e.p99_latency for e in column])
        return cls(
            paths=paths,
            qps_grid=tuple(float(q) for q in qps_grid),
            p99_grid=np.asarray(p99_rows),
            sla_seconds=sla_ms / 1e3,
            quality_target=quality_target,
            simulation=scheduler.simulation,
            seed=seed,
        )

    @classmethod
    def from_outcome(cls, outcome: "SweepOutcome", scheduler: "RecPipeScheduler") -> "PathTable":
        """Build a table from a finished sweep without re-simulating anything.

        Every (platform, pipeline) column of ``outcome.evaluated`` becomes a
        path; the sweep's SLA, quality target, engine budget and seed carry
        over.  ``scheduler`` only rebuilds the hardware plans (construction
        is cheap and plans are not serialized into sweep outcomes).

        Parameters
        ----------
        outcome : SweepOutcome
            A finished :func:`repro.core.sweep.run_sweep` result.
        scheduler : RecPipeScheduler
            Used to rebuild each path's :class:`PipelinePlan`.

        Returns
        -------
        PathTable
            The compiled table.
        """
        config = outcome.config
        paths: list[ServingPath] = []
        p99_rows: list[list[float]] = []
        for platform in config.platforms:
            for index, pipeline in enumerate(outcome.pipelines):
                paths.append(
                    ServingPath(
                        platform=platform,
                        pipeline=pipeline,
                        plan=scheduler.plan_for(pipeline, platform),
                        quality=outcome.quality_by_pipeline[pipeline.name],
                    )
                )
                p99_rows.append(
                    [outcome.evaluated[(platform, qps)][index].p99_latency for qps in config.qps]
                )
        return cls(
            paths=paths,
            qps_grid=config.qps,
            p99_grid=np.asarray(p99_rows),
            sla_seconds=config.sla_seconds,
            quality_target=config.quality_target,
            simulation=scheduler.simulation,
            seed=config.seed,
        )

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def p99_at(self, path_index: int, qps: float) -> float:
        """Frontier-interpolated p99 of one path at an arbitrary load.

        Linear interpolation over the path's precomputed feasible frontier
        (the non-decreasing finite prefix of its p99 row); loads below the
        frontier clamp to its first value and loads beyond it — past the
        last feasible grid point or past the whole grid — are an explicit
        ``inf``.  The result is always finite or ``inf``, never NaN, and
        non-decreasing in ``qps``.

        Parameters
        ----------
        path_index : int
            Index into :attr:`paths`.
        qps : float
            Offered load to look up.

        Returns
        -------
        float
            p99 latency in seconds, possibly ``inf``.
        """
        if qps <= 0:
            raise ValueError(f"qps must be positive, got {qps}")
        frontier_qps = self._frontier_qps[path_index]
        if frontier_qps.size == 0 or qps > frontier_qps[-1]:
            return float("inf")
        return float(np.interp(qps, frontier_qps, self._frontier_p99[path_index]))

    def max_feasible_qps(self, path_index: int) -> float:
        """The last swept load at which the path's p99 is finite (0.0: none)."""
        frontier_qps = self._frontier_qps[path_index]
        return float(frontier_qps[-1]) if frontier_qps.size else 0.0

    def p99_profile(self, path_index: int, qps_values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`p99_at`: one path's p99 at many loads at once.

        Element ``k`` equals ``p99_at(path_index, qps_values[k])`` exactly
        (both go through the same ``np.interp`` over the same frontier), so
        batched decisions and scalar decisions cannot disagree.

        Parameters
        ----------
        path_index : int
            Index into :attr:`paths`.
        qps_values : np.ndarray
            Strictly positive loads to look up, any shape.

        Returns
        -------
        np.ndarray
            p99 seconds per load, ``inf`` beyond the path's frontier.
        """
        qps_values = np.asarray(qps_values, dtype=np.float64)
        if qps_values.size and np.min(qps_values) <= 0:
            raise ValueError("qps values must be positive")
        profile = np.full(qps_values.shape, np.inf)
        frontier_qps = self._frontier_qps[path_index]
        if frontier_qps.size:
            inside = qps_values <= frontier_qps[-1]
            profile[inside] = np.interp(
                qps_values[inside], frontier_qps, self._frontier_p99[path_index]
            )
        return profile

    def best_path_batch(self, qps_values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`best_path`: route a whole load series at once.

        One pass over the eligible paths (a handful) instead of one pass
        per load: each path's frontier profile is interpolated for the full
        series and the running best is updated elementwise.  Tie-breaking
        is *strict*, replicating ``max``/``min`` first-wins semantics, so
        ``best_path_batch(q)[k] == best_path(q[k])`` for every element —
        the property the per-query frontend's equivalence guarantee rests
        on.

        Parameters
        ----------
        qps_values : np.ndarray
            Strictly positive loads to route, shape ``(n,)``.

        Returns
        -------
        np.ndarray
            Chosen path index per load, dtype ``intp``, shape ``(n,)``.
        """
        qps_values = np.asarray(qps_values, dtype=np.float64)
        if qps_values.ndim != 1:
            raise ValueError("qps_values must be one-dimensional")
        n = qps_values.size
        meet_index = np.full(n, -1, dtype=np.intp)
        meet_quality = np.full(n, -np.inf)
        meet_p99 = np.full(n, np.inf)
        shed_index = np.empty(n, dtype=np.intp)
        shed_p99 = np.full(n, np.inf)
        shed_capacity = np.full(n, -np.inf)
        for i in self._eligible:
            p99 = self.p99_profile(i, qps_values)
            quality = self.paths[i].quality
            capacity = self.paths[i].capacity_qps
            meets = p99 <= self.sla_seconds
            better = meets & (
                (meet_index < 0)
                | (quality > meet_quality)
                | ((quality == meet_quality) & (p99 < meet_p99))
            )
            meet_index[better] = i
            meet_quality[better] = quality
            meet_p99[better] = p99[better]
            if i == self._eligible[0]:
                shed_index[:] = i
                shed_p99 = p99.copy()
                shed_capacity[:] = capacity
            else:
                lower = (p99 < shed_p99) | ((p99 == shed_p99) & (capacity > shed_capacity))
                shed_index[lower] = i
                shed_p99[lower] = p99[lower]
                shed_capacity[lower] = capacity
        return np.where(meet_index >= 0, meet_index, shed_index)

    def best_path(self, qps: float) -> int:
        """The path the table routes to at ``qps``.

        Among quality-eligible paths whose interpolated p99 meets the SLA:
        the highest quality, ties broken toward lower p99.  When no eligible
        path meets the SLA the table degrades to latency shedding: the
        eligible path with the lowest interpolated p99, ties broken toward
        higher capacity (so fully saturated regimes pick the path that
        drains fastest).

        Parameters
        ----------
        qps : float
            Offered load the decision is for.

        Returns
        -------
        int
            Index into :attr:`paths`.
        """
        p99s = {i: self.p99_at(i, qps) for i in self._eligible}
        meeting = [i for i, p99 in p99s.items() if p99 <= self.sla_seconds]
        if meeting:
            return max(meeting, key=lambda i: (self.paths[i].quality, -p99s[i]))
        return min(self._eligible, key=lambda i: (p99s[i], -self.paths[i].capacity_qps))

    # ------------------------------------------------------------------ #
    # Dwell-segment simulation
    # ------------------------------------------------------------------ #
    def _resolve_service(self, service: CachedServiceConfig | None) -> CachedServiceConfig | None:
        """The service model a dwell cell runs under (explicit > table default)."""
        return self.simulation.service if service is None else service

    @staticmethod
    def _segment_key(path_index: int, qps: float, service: CachedServiceConfig | None) -> tuple:
        """Memo key of one dwell cell; deterministic cells keep the legacy shape."""
        if service is None:
            return (path_index, qps)
        return (path_index, qps, service)

    def _service_state(
        self, path_index: int, service: CachedServiceConfig
    ) -> tuple[ServiceTimeSampler, np.ndarray]:
        """The memoized (sampler, service matrix) of one (path, model) pair.

        One load-independent draw per pair, seeded from the path's arrival
        seed via :func:`service_seed` — the same derivation the simulator
        and grid paths use, so dwell cells reproduce their samples.  The
        sampler is kept alongside the matrix so its measured hit tallies
        stay readable (:meth:`service_stats`).
        """
        key = (path_index, service)
        state = self._service_samplers.get(key)
        if state is None:
            sampler = ServiceTimeSampler(service)
            matrix = sampled_service(
                self.paths[path_index].plan,
                service,
                self.simulation.num_queries,
                service_seed(self._path_seeds[path_index]),
                sampler=sampler,
            )
            state = (sampler, matrix)
            self._service_samplers[key] = state
        return state

    def service_stats(self) -> list[dict]:
        """Measured cache statistics of every (path, service model) sampled.

        One row per pair: simulated accesses, hits, the *measured* hit rate
        (the feedback signal replacing the Zipf closed form) and the
        closed-form rate for comparison.
        """
        rows = []
        for (path_index, config), (sampler, _) in self._service_samplers.items():
            rows.append(
                {
                    "path": self.paths[path_index].name,
                    "service": config,
                    "accesses": sampler.accesses,
                    "hits": sampler.hits,
                    "measured_hit_rate": sampler.measured_hit_rate,
                    "analytic_hit_rate": config.analytic_hit_rate,
                }
            )
        return rows

    def _segment_latencies(
        self, path_index: int, qps: float, service: CachedServiceConfig | None = None
    ) -> np.ndarray | None:
        """Steady-state per-query latencies of one (path, load) dwell cell.

        Returns ``None`` for saturated cells (offered load at or beyond the
        engine's saturation threshold).  Results are memoized; distinct
        loads of one path share a single unit arrival draw, so the batched
        fill in :meth:`_fill_segments` and this scalar path produce
        identical samples.
        """
        service = self._resolve_service(service)
        key = self._segment_key(path_index, float(qps), service)
        if key not in self._segments:
            self._fill_segments(path_index, [float(qps)], service=service)
        return self._segments[key]

    def _fill_segments(
        self,
        path_index: int,
        qps_values: Sequence[float],
        service: CachedServiceConfig | None = None,
    ) -> None:
        """Simulate every missing (path, load) cell in one batched kernel call.

        ``service`` selects the per-query service model of the filled cells
        (``None`` resolves to the table default).  The saturation pre-check
        stays on the deterministic utilization — a stochastic cell whose
        inflated service overloads the path is simulated honestly and shows
        up as latency mass, not silently dropped.
        """
        path = self.paths[path_index]
        cfg = self.simulation
        service = self._resolve_service(service)
        missing = [
            q
            for q in dict.fromkeys(float(q) for q in qps_values)
            if self._segment_key(path_index, q, service) not in self._segments
        ]
        if not missing:
            return
        live: list[float] = []
        for q in missing:
            if path.plan.utilization(q) >= cfg.saturation_utilization:
                self._segments[self._segment_key(path_index, q, service)] = None
            else:
                live.append(q)
        if not live:
            return
        service_matrix = None
        if service is not None:
            service_matrix = self._service_state(path_index, service)[1][:, None, :]
        unit = draw_unit_arrivals(cfg.num_queries, self._path_seeds[path_index])
        scales = 1.0 / np.asarray(live, dtype=np.float64)
        arrivals = np.cumsum(unit[None, :] * scales[:, None], axis=1)
        latencies = analytic_latencies(path.plan, arrivals, service=service_matrix)
        for row, q in enumerate(live):
            self._segments[self._segment_key(path_index, q, service)] = latencies[
                row, cfg.warmup_queries :
            ]

    def dwell_latencies(self, path_index: int, qps: float) -> np.ndarray | None:
        """Steady-state per-query latencies of one (path, load) dwell cell.

        The public face of the memoized dwell-segment cache the route
        evaluators share: the per-query frontend scores admitted windows on
        exactly the samples :meth:`evaluate_route` would draw for the same
        (path, load) pair.

        Parameters
        ----------
        path_index : int
            Index into :attr:`paths`.
        qps : float
            Offered load of the dwell cell; must be positive.

        Returns
        -------
        np.ndarray or None
            Post-warm-up latency sample, or ``None`` when the cell is
            saturated (offered load at or beyond the engine's saturation
            threshold).
        """
        if qps <= 0:
            raise ValueError(f"qps must be positive, got {qps}")
        return self._segment_latencies(path_index, float(qps))

    def prefill_dwell(self, path_index: int, qps_values: Sequence[float]) -> None:
        """Simulate every missing (path, load) dwell cell in one batched call.

        Callers that will read many :meth:`dwell_latencies` cells of one
        path (the route evaluators, the per-query frontend) prefill them
        here so the engine runs one vectorized kernel per path instead of
        one per load.

        Parameters
        ----------
        path_index : int
            Index into :attr:`paths`.
        qps_values : sequence of float
            The strictly positive dwell-cell loads about to be read.
        """
        if any(q <= 0 for q in qps_values):
            raise ValueError("qps values must be positive")
        self._fill_segments(path_index, [float(q) for q in qps_values])

    def evaluate_route(
        self,
        trace: LoadTrace,
        path_steps: Sequence[int],
        switch_steps: Sequence[bool],
        policy: str,
        switch_penalty_seconds: float = 0.0,
        service_steps: Sequence[CachedServiceConfig | None] | None = None,
    ) -> RoutingResult:
        """Simulate a routed schedule and aggregate its serving metrics.

        Each step is a dwell slice: the active path serves a steady-state
        arrival window at the step's offered load on the analytic engine.
        Steps flagged in ``switch_steps`` add ``switch_penalty_seconds`` to
        every query latency (path warm-up).  Saturated dwell cells count all
        of their queries as SLA violations and contribute ``inf`` latency
        mass to the trace-wide p99.  ``effective_quality`` re-weights the
        quality aggregate by SLA attainment: queries whose latency violates
        the SLA (and every query of a saturated cell) contribute zero
        quality, so policies are ranked by quality *delivered within SLA*,
        not quality promised.

        Parameters
        ----------
        trace : LoadTrace
            The served load trace.
        path_steps : sequence of int
            Active path index per step (same length as the trace).
        switch_steps : sequence of bool
            Marks the first step of each new dwell segment.
        policy : str
            Label recorded in the result (``static``/``oracle``/``online``).
        switch_penalty_seconds : float
            Latency added to every query of a switch step.
        service_steps : sequence of CachedServiceConfig or None, optional
            Per-step service-model overrides (a scenario's
            ``service_schedule`` shifts the cache state mid-trace this
            way).  ``None`` entries — and an omitted argument — fall back
            to the table's default model.

        Returns
        -------
        RoutingResult
            Aggregated quality, p99, violation rate, switches, occupancy.
        """
        path_steps = list(path_steps)
        switch_steps = list(switch_steps)
        if len(path_steps) != trace.num_steps or len(switch_steps) != trace.num_steps:
            raise ValueError("path_steps and switch_steps must cover every trace step")
        if service_steps is None:
            service_steps = [None] * trace.num_steps
        else:
            service_steps = list(service_steps)
            if len(service_steps) != trace.num_steps:
                raise ValueError("service_steps must cover every trace step")
        queries = trace.queries_per_step()
        total_queries = float(queries.sum())
        fill_groups: dict[tuple, list[float]] = {}
        for t, index in enumerate(path_steps):
            resolved = self._resolve_service(service_steps[t])
            fill_groups.setdefault((index, resolved), []).append(trace.qps[t])
        for (index, resolved), loads in fill_groups.items():
            self._fill_segments(index, loads, service=resolved)

        violations = 0.0
        quality_mass = 0.0
        effective_mass = 0.0
        occupancy: dict[str, float] = {}
        pooled_values: list[np.ndarray] = []
        pooled_weights: list[np.ndarray] = []
        for t, index in enumerate(path_steps):
            path = self.paths[index]
            weight = queries[t]
            quality_mass += weight * path.quality
            occupancy[path.name] = occupancy.get(path.name, 0.0) + weight
            penalty = switch_penalty_seconds if switch_steps[t] else 0.0
            latencies = self._segment_latencies(
                index, float(trace.qps[t]), service=service_steps[t]
            )
            if latencies is None:  # saturated: every query violates, none delivers
                violations += weight
                pooled_values.append(np.asarray([np.inf]))
                pooled_weights.append(np.asarray([weight]))
                continue
            observed = latencies + penalty if penalty else latencies
            violating = float(np.mean(observed > self.sla_seconds))
            violations += weight * violating
            effective_mass += weight * path.quality * (1.0 - violating)
            pooled_values.append(observed)
            pooled_weights.append(np.full(observed.size, weight / observed.size))
        p99 = weighted_percentile(
            np.concatenate(pooled_values), np.concatenate(pooled_weights), 99.0
        )
        return RoutingResult(
            policy=policy,
            trace_name=trace.name,
            quality=quality_mass / total_queries,
            effective_quality=effective_mass / total_queries,
            p99_seconds=p99,
            violation_rate=violations / total_queries,
            num_switches=int(sum(switch_steps[1:])),
            total_queries=total_queries,
            path_steps=tuple(path_steps),
            switch_steps=tuple(bool(s) for s in switch_steps),
            occupancy={name: mass / total_queries for name, mass in occupancy.items()},
        )


def route_static(
    table: PathTable,
    trace: LoadTrace,
    planning_qps: float | None = None,
    service_steps: Sequence[CachedServiceConfig | None] | None = None,
) -> RoutingResult:
    """Serve the whole trace on the single path provisioned offline.

    The static baseline is what a planner reads off the sweep today: the
    best path at the trace's *typical* load (its median, unless
    ``planning_qps`` overrides it), kept for every step regardless of how
    far the load drifts from the plan.

    Parameters
    ----------
    table : PathTable
        The compiled routing table.
    trace : LoadTrace
        The load trace to serve.
    planning_qps : float, optional
        The load the static path is provisioned for (default: trace median).
        Must be strictly positive — it is an offered load the table is
        consulted at.
    service_steps : sequence of CachedServiceConfig or None, optional
        Per-step service-model overrides, passed to
        :meth:`PathTable.evaluate_route`.

    Returns
    -------
    RoutingResult
        Metrics of the static path over the trace.
    """
    if planning_qps is None:
        provisioned = trace.median_qps()
    else:
        provisioned = float(planning_qps)
        if not provisioned > 0:  # also rejects NaN
            raise ValueError(
                f"planning_qps must be positive, got {planning_qps!r}: it is the "
                "offered load the static path is provisioned for (omit it to "
                "provision for the trace's median load)"
            )
    index = table.best_path(provisioned)
    steps = [index] * trace.num_steps
    return table.evaluate_route(
        trace, steps, [False] * trace.num_steps, policy="static", service_steps=service_steps
    )


def route_oracle(
    table: PathTable,
    trace: LoadTrace,
    service_steps: Sequence[CachedServiceConfig | None] | None = None,
) -> RoutingResult:
    """Serve the trace with clairvoyant per-step path selection.

    The oracle sees each step's true offered load before serving it and
    switches instantly and for free — the upper bound online policies chase.
    It is clairvoyant about load only: its choices come from the table, so
    ``service_steps`` overrides can cost it too.

    Parameters
    ----------
    table : PathTable
        The compiled routing table.
    trace : LoadTrace
        The load trace to serve.
    service_steps : sequence of CachedServiceConfig or None, optional
        Per-step service-model overrides, passed to
        :meth:`PathTable.evaluate_route`.

    Returns
    -------
    RoutingResult
        Metrics of the clairvoyant policy over the trace.
    """
    steps = [table.best_path(float(q)) for q in trace.qps]
    switches = [False] + [a != b for a, b in zip(steps, steps[1:])]
    return table.evaluate_route(
        trace, steps, switches, policy="oracle", service_steps=service_steps
    )


@dataclass
class MultiPathRouter:
    """The online policy: load forecasting, hysteresis, cost-aware switching.

    The router never sees the future: its load estimate for step ``t``
    comes from a strictly causal :class:`~repro.serving.estimators.LoadEstimator`
    that has observed only steps ``0 .. t-1`` (the default reproduces the
    original behavior — the mean of the last ``window`` observed steps;
    predictive estimators extrapolate instead of chasing).  A switch is
    only committed once the table proposes the same non-current path for
    ``hysteresis_steps`` consecutive decisions — noise straddling a path
    boundary therefore cannot flap the system.  When ``switch_cost_seconds``
    is set, *shedding* switches (the current path's predicted p99 already
    violates the SLA) additionally must pay for themselves: the predicted
    per-query p99 gain, accumulated over the expected dwell (estimated from
    the candidate's persistence streak — the longer a proposal has
    persisted, the longer it is expected to keep paying), must reach the
    switch cost.  Quality-motivated switches (both paths within SLA) are
    exempt: a one-step warm-up penalty never outweighs an indefinite
    quality gain, and the two are not commensurable.  The first step served
    by a new path charges ``switch_penalty_seconds`` to every query (state
    migration, cache warm-up).

    Parameters
    ----------
    table : PathTable
        The compiled routing table decisions are read from.
    window : int
        Sliding-window length (steps) of the default
        :class:`~repro.serving.estimators.WindowedMean` estimator; ignored
        when ``estimator`` is provided.
    hysteresis_steps : int
        Consecutive identical proposals required before switching.
    switch_penalty_seconds : float
        Warm-up latency charged to every query of a switch step.
    estimator : LoadEstimator, optional
        The load forecaster (default: ``WindowedMean(window)``).  The
        router resets it at the start of every decision pass, so one
        instance can replay many traces.
    switch_cost_seconds : float
        Predicted p99 gain (seconds, accumulated over the expected dwell)
        a shedding switch must repay before it is committed; ``0`` disables
        the gate.
    dwell_forecaster : HazardDwellForecaster, optional
        When set, the cost gate amortizes over
        ``max(streak, expected_dwell())`` — a hazard-rate forecast of the
        dwell ahead learned from completed dwell lengths — instead of the
        persistence streak alone.  The default (``None``) reproduces the
        streak-only decisions bit-for-bit.
    """

    table: PathTable
    window: int = 3
    hysteresis_steps: int = 2
    switch_penalty_seconds: float = 0.0
    estimator: LoadEstimator | None = None
    switch_cost_seconds: float = 0.0
    dwell_forecaster: HazardDwellForecaster | None = None

    def __post_init__(self) -> None:
        """Validate the policy knobs and default the estimator."""
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.hysteresis_steps <= 0:
            raise ValueError("hysteresis_steps must be positive")
        if self.switch_penalty_seconds < 0:
            raise ValueError("switch_penalty_seconds must be non-negative")
        if self.switch_cost_seconds < 0:
            raise ValueError("switch_cost_seconds must be non-negative")
        if self.estimator is None:
            self.estimator = WindowedMean(window=self.window)

    @property
    def estimator_name(self) -> str:
        """The active estimator's artifact label (``windowed``/``ewma``/...)."""
        return type(self.estimator).name

    def estimate_over(self, observed: np.ndarray) -> np.ndarray:
        """The load estimate entering every step of an observed load series.

        Step 0 bootstraps from the series' first value (the provisioning
        estimate a deployment starts from); the estimate for step ``t``
        then comes from the estimator after observing steps ``0 .. t-1`` —
        it never peeks at the current step.  The per-query frontend feeds
        its per-window observed rates through this same method, so the two
        layers cannot disagree on estimation semantics.

        Parameters
        ----------
        observed : np.ndarray
            Strictly positive observed loads, one per step.

        Returns
        -------
        np.ndarray
            The causal estimate entering each step, same length.
        """
        observed = np.asarray(observed, dtype=np.float64)
        if observed.ndim != 1 or observed.size == 0:
            raise ValueError("observed loads must form a 1-D, non-empty series")
        self.estimator.reset()
        estimates = np.empty(observed.size, dtype=np.float64)
        for t in range(observed.size):
            estimates[t] = self.estimator.predict() if t else float(observed[0])
            self.estimator.observe(float(observed[t]))
        return estimates

    def estimate_series(self, trace: LoadTrace) -> np.ndarray:
        """The router's load estimate entering every trace step, in one pass.

        Delegates to :meth:`estimate_over` on the trace's per-step loads.
        """
        return self.estimate_over(trace.qps)

    def estimate_qps(self, trace: LoadTrace, step: int) -> float:
        """The router's load estimate entering ``step``.

        Replays the estimator over the observed prefix ``trace.qps[:step]``
        (strictly causal); prefer :meth:`estimate_series` when every step's
        estimate is needed.
        """
        if step == 0:
            return float(trace.qps[0])
        self.estimator.reset()
        for qps in trace.qps[:step]:
            self.estimator.observe(float(qps))
        return self.estimator.predict()

    def _switch_pays_off(self, current: int, candidate: int, qps: float, streak: int) -> bool:
        """Whether committing ``candidate`` over ``current`` repays the switch cost.

        Quality-motivated switches (the current path still meets the SLA at
        the predicted load) always pass, and so do switches away from a
        *saturated* current path (``inf`` p99): whether the candidate is
        feasible or merely drains faster, staying saturated is never worth
        a warm-up saving.  The remaining case — the current path violates
        the SLA but is not saturated — passes when the predicted per-query
        p99 gain, summed over the expected dwell (``streak`` steps: the
        candidate's persistence so far is the forecast of its persistence
        to come), reaches ``switch_cost_seconds``.  The gain is finite
        there by construction: ``best_path`` proposes the lowest-p99
        eligible path, whose p99 cannot exceed the current path's.  With a
        :attr:`dwell_forecaster` attached, the amortization horizon is the
        larger of the streak and the hazard-rate forecast of the dwell
        ahead, so a router that has learned dwells run long commits
        profitable switches earlier.
        """
        if self.switch_cost_seconds == 0:
            return True
        p99_current = self.table.p99_at(current, qps)
        if p99_current <= self.table.sla_seconds:
            return True
        if np.isinf(p99_current):
            return True
        gain = p99_current - self.table.p99_at(candidate, qps)
        horizon = float(max(streak, 1))
        if self.dwell_forecaster is not None:
            horizon = max(horizon, self.dwell_forecaster.expected_dwell())
        return gain * horizon >= self.switch_cost_seconds

    def decide_from_estimates(self, estimates: np.ndarray) -> tuple[list[int], list[bool]]:
        """Run the hysteresis/cost state machine over precomputed estimates.

        The table's per-step candidate proposals come from one vectorized
        :meth:`PathTable.best_path_batch` call; the sequential part — the
        hysteresis streak, the cost gate, the dwell bookkeeping — is
        inherently stateful and stays a scalar loop over cheap integer
        comparisons.  Both :meth:`decide` and the per-query frontend
        delegate here, so the step router and the frontend share one
        decision state machine by construction.

        Parameters
        ----------
        estimates : np.ndarray
            The load estimate entering each step (strictly positive).

        Returns
        -------
        tuple[list[int], list[bool]]
            Per-step active path indices and switch markers.
        """
        estimates = np.asarray(estimates, dtype=np.float64)
        if estimates.ndim != 1 or estimates.size == 0:
            raise ValueError("estimates must form a 1-D, non-empty series")
        if self.dwell_forecaster is not None:
            self.dwell_forecaster.reset()
        log = _event_log()
        candidates = self.table.best_path_batch(estimates)
        current = int(candidates[0])
        steps = [current]
        switches = [False]
        pending: int | None = None
        streak = 0
        dwell_start = 0
        if log is not None:
            log.emit(
                "route_decision",
                step=0,
                path=current,
                path_name=self.table.paths[current].name,
                estimate_qps=float(estimates[0]),
                switch=False,
            )
        for t in range(1, estimates.size):
            candidate = int(candidates[t])
            if candidate == current:
                pending, streak = None, 0
            elif candidate == pending:
                streak += 1
            else:
                pending, streak = candidate, 1
            if (
                pending is not None
                and streak >= self.hysteresis_steps
                and self._switch_pays_off(current, pending, float(estimates[t]), streak)
            ):
                if self.dwell_forecaster is not None:
                    self.dwell_forecaster.observe_dwell(t - dwell_start)
                dwell_start = t
                if log is not None:
                    log.emit(
                        "route_decision",
                        step=t,
                        path=pending,
                        path_name=self.table.paths[pending].name,
                        previous=current,
                        estimate_qps=float(estimates[t]),
                        streak=streak,
                        switch=True,
                    )
                current = pending
                pending, streak = None, 0
                switches.append(True)
            else:
                switches.append(False)
            steps.append(current)
        return steps, switches

    def decide(self, trace: LoadTrace) -> tuple[list[int], list[bool]]:
        """Run the decision loop alone (no simulation): paths and switch flags.

        This is the serving-time hot path the routing-overhead benchmark
        measures; it touches only the compiled table and the estimator,
        never the engine.

        Parameters
        ----------
        trace : LoadTrace
            The observed load series.

        Returns
        -------
        tuple[list[int], list[bool]]
            Per-step active path indices and switch markers.
        """
        return self.decide_from_estimates(self.estimate_series(trace))

    def route(
        self,
        trace: LoadTrace,
        service_steps: Sequence[CachedServiceConfig | None] | None = None,
    ) -> RoutingResult:
        """Decide and simulate the whole trace online.

        Decisions are load-driven only; ``service_steps`` changes what the
        chosen paths pay, never which paths are chosen.

        Parameters
        ----------
        trace : LoadTrace
            The load trace to serve.
        service_steps : sequence of CachedServiceConfig or None, optional
            Per-step service-model overrides, passed to
            :meth:`PathTable.evaluate_route`.

        Returns
        -------
        RoutingResult
            Metrics of the online policy, switch penalties included.
        """
        steps, switches = self.decide(trace)
        return self.table.evaluate_route(
            trace,
            steps,
            switches,
            policy="online",
            switch_penalty_seconds=self.switch_penalty_seconds,
            service_steps=service_steps,
        )
