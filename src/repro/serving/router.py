"""Online multi-path serving: pick the (platform, pipeline) path as load shifts.

The sweep layer answers the *offline* question — which execution path is
best at each fixed load — and emits best-platform-per-load cross-sections.
This module turns those cross-sections into a *serving-time* policy, the
MP-Rec-style closing of the loop the roadmap asks for:

* :class:`ServingPath` — one runnable (platform, pipeline) execution path
  with its hardware plan and platform-independent quality;
* :class:`PathTable` — the compiled routing table: per path, a p99-vs-load
  curve over a swept QPS grid, one
  :func:`~repro.serving.simulator.simulated_p99` row per path.  Each
  path's *feasible frontier* — the monotone prefix of finite grid cells
  before its first saturated one — is precomputed at construction; the one
  lookup, ``p99_profile``, interpolates only over that frontier and returns
  an explicit ``inf`` beyond it, so it is finite-or-``inf`` and
  non-decreasing in load, never NaN (interpolating across ``inf`` cells
  used to produce ``inf - inf`` NaNs exactly in the saturated regime where
  shedding decisions matter).  The one decision rule, ``best_path_batch``,
  picks at each load the highest-quality path whose frontier p99 meets the
  SLA, degrading to latency shedding when nothing does;
* :class:`MultiPathRouter` — the online policy: it forecasts offered load
  through a pluggable :class:`~repro.serving.estimators.LoadEstimator`
  (windowed mean, EWMA, or Holt level+trend — all strictly causal), and
  commits a switch only after the candidate persists for
  ``hysteresis_steps`` consecutive decisions *and* — for shedding
  switches, when ``switch_cost_seconds`` is set — the predicted p99 gain
  over the expected dwell (estimated from the candidate's persistence
  streak) repays the switch cost.  The first step served by a new path
  charges ``switch_penalty_seconds`` to every query (warm-up).  The step-0
  choice and every committed switch go to the active :mod:`repro.events`
  log;
* :func:`route_static` / :func:`route_oracle` — the two bounding policies:
  the single best path a planner would provision offline for the trace's
  typical load, and the clairvoyant per-step optimum with no lag, no
  hysteresis and free switches.

Every dwell cell of a routed schedule comes from
:func:`~repro.serving.simulator.simulate`: a steady-state arrival window is
simulated at the cell's load for the active path, one batched kernel call
per (path, distinct-load) set.  :meth:`PathTable.score` is the one place
per-query SLA violations, trace-wide weighted p99 and query-weighted quality
are aggregated into a :class:`RoutingResult`, for the step policies here and
the per-query frontend alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.events import active_log
from repro.serving.engine import SimulationConfig, service_seed, spawn_seeds
from repro.serving.estimators import LoadEstimator, WindowedMean
from repro.serving.metrics import percentile_is_infinite, weighted_percentile
from repro.serving.resources import PipelinePlan
from repro.serving.service_times import CachedServiceConfig, ServiceTimeSampler, sampled_service
from repro.serving.simulator import simulate, simulated_p99
from repro.serving.trace import LoadTrace

if TYPE_CHECKING:  # the core layer imports serving; keep the reverse edge type-only
    from repro.core.pipeline import PipelineConfig
    from repro.core.scheduler import RecPipeScheduler

__all__ = [
    "MultiPathRouter",
    "PathTable",
    "RoutingResult",
    "ServingPath",
    "route_oracle",
    "route_static",
]


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

    @cached_property
    def capacity_qps(self) -> float:
        """Bottleneck-stage throughput capacity of the mapped plan (computed once)."""
        return self.plan.throughput_capacity()


@dataclass(frozen=True)
class RoutingResult:
    """Aggregate serving metrics of one policy over one load trace.

    Attributes
    ----------
    policy : str
        ``static``, ``oracle``, ``online`` or ``frontend``.
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

    A table is compiled from the scheduler (:meth:`compile`, one plan and
    one :func:`~repro.serving.simulator.simulated_p99` row per path).  At
    construction each path's **feasible frontier** is
    precomputed: the prefix of finite grid cells before the path's first
    saturated (``inf``) cell, forced non-decreasing (a physical p99 curve
    rises with load; simulation noise may dip, routing decisions should
    not).  Lookups interpolate linearly *within* the frontier, clamp to the
    first value below it, and return an explicit ``inf`` beyond it — both
    past the last feasible grid point and past the whole grid (the un-swept
    high-load region is treated as violating).  Interpolating across
    ``inf`` cells is never attempted, so :meth:`p99_profile` cannot produce
    the ``inf - inf = NaN`` values that once made saturated-regime shedding
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
        (:meth:`~repro.core.scheduler.RecPipeScheduler.quality_map`).  Each
        path's plan is built once
        (:meth:`~repro.core.scheduler.RecPipeScheduler.plan_for`) and its
        p99 curve is that plan's
        :func:`~repro.serving.simulator.simulated_p99` row, independently
        seeded via ``np.random.SeedSequence`` spawning.

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
        grid = tuple(float(q) for q in qps_grid)
        paths: list[ServingPath] = []
        p99_rows: list[np.ndarray] = []
        seeds = iter(spawn_seeds(seed, len(platforms) * len(pipelines)))
        for platform in platforms:
            for pipeline in pipelines:
                plan = scheduler.plan_for(pipeline, platform)
                paths.append(ServingPath(platform, pipeline, plan, qualities[pipeline.name]))
                p99_rows.append(simulated_p99(plan, grid, scheduler.simulation, seed=next(seeds)))
        return cls(
            paths=paths,
            qps_grid=grid,
            p99_grid=np.asarray(p99_rows),
            sla_seconds=sla_ms / 1e3,
            quality_target=quality_target,
            simulation=scheduler.simulation,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def max_feasible_qps(self, path_index: int) -> float:
        """The last swept load at which the path's p99 is finite (0.0: none)."""
        frontier_qps = self._frontier_qps[path_index]
        return float(frontier_qps[-1]) if frontier_qps.size else 0.0

    def p99_profile(self, path_index: int, qps_values: np.ndarray) -> np.ndarray:
        """Frontier-interpolated p99 of one path at every load of ``qps_values``.

        Linear interpolation over the path's precomputed feasible frontier
        (the non-decreasing finite prefix of its p99 row); loads below the
        frontier clamp to its first value and loads beyond it — past the
        last feasible grid point or past the whole grid — are an explicit
        ``inf``.  Every value is finite or ``inf``, never NaN, and
        non-decreasing in load.  This is the table's one lookup: a scalar
        load returns a 0-d array, so one load reads ``float(p99_profile(i,
        q))``.

        Parameters
        ----------
        path_index : int
            Index into :attr:`paths`.
        qps_values : np.ndarray or float
            Strictly positive loads to look up, any shape (a scalar too).

        Returns
        -------
        np.ndarray
            p99 seconds per load, same shape, ``inf`` beyond the path's
            frontier.
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
        """The path the table routes to at every load of ``qps_values``.

        At each load, among quality-eligible paths whose interpolated p99
        (:meth:`p99_profile`) meets the SLA: the highest quality, ties
        broken toward lower p99.  When no eligible path meets the SLA the
        table degrades to latency shedding: the eligible path with the
        lowest interpolated p99, ties broken toward higher capacity (so
        fully saturated regimes pick the path that drains fastest).  Every
        tie that remains goes to the earliest path in compile order.

        This is the table's one decision rule; one load routes as
        ``best_path_batch(np.array([q]))[0]``.  It makes one pass over the
        eligible paths (a handful): each path's frontier profile is
        interpolated for the full series and the running best is updated
        elementwise, with *strict* comparisons so the earlier path keeps a
        tie.

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

    # ------------------------------------------------------------------ #
    # Dwell-segment simulation
    # ------------------------------------------------------------------ #
    def _service_state(
        self, path_index: int, service: CachedServiceConfig
    ) -> tuple[ServiceTimeSampler, np.ndarray]:
        """The memoized (sampler, service matrix) of one (path, model) pair.

        One load-independent draw per pair, seeded from the path's arrival
        seed via :func:`service_seed` — the same derivation
        :func:`~repro.serving.simulator.simulate` uses, so dwell cells
        reproduce its samples.  The sampler is kept alongside the matrix so
        its measured hit tallies stay readable (:meth:`service_stats`).
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

    def _missing_dwell(
        self,
        path_index: int,
        qps_values: Sequence[float],
        service: CachedServiceConfig | None,
    ) -> tuple[CachedServiceConfig | None, list[float]]:
        """The model the cells run under (``None``: the table's) and their unmemoized loads."""
        if any(q <= 0 for q in qps_values):
            raise ValueError("qps values must be positive")
        service = self.simulation.service if service is None else service
        loads = dict.fromkeys(float(q) for q in qps_values)
        return service, [q for q in loads if (path_index, q, service) not in self._segments]

    def dwell_latencies(
        self, path_index: int, qps: float, service: CachedServiceConfig | None = None
    ) -> np.ndarray | None:
        """Steady-state per-query latencies of one (path, load) dwell cell.

        Cells are memoized per ``(path, load, service model)``; a miss
        simulates the cell through :meth:`prefill_dwell`, so a cell holds
        the same sample whether it was read alone or batched with others.

        Parameters
        ----------
        path_index : int
            Index into :attr:`paths`.
        qps : float
            Offered load of the dwell cell; must be positive.
        service : CachedServiceConfig, optional
            The cell's service model (default: the table's).

        Returns
        -------
        np.ndarray or None
            Post-warm-up latency sample, or ``None`` when the cell is
            saturated (offered load at or beyond the engine's saturation
            threshold).
        """
        if qps <= 0:
            raise ValueError(f"qps must be positive, got {qps}")
        key = (path_index, float(qps), self.simulation.service if service is None else service)
        if key not in self._segments:
            self.prefill_dwell(path_index, [qps], service)
        return self._segments[key]

    def prefill_dwell(
        self,
        path_index: int,
        qps_values: Sequence[float],
        service: CachedServiceConfig | None = None,
    ) -> None:
        """Simulate every missing (path, load) dwell cell in one :func:`simulate` call.

        Distinct loads of one path scale one shared unit arrival draw, so
        the engine runs one vectorized kernel per path instead of one per
        load.  Under a service model the call reuses the path's memoized
        matrix, drawn only once some load is live.  The saturation rule
        stays on the deterministic utilization — a stochastic cell whose
        inflated service overloads the path is simulated honestly and shows
        up as latency mass, not silently dropped.

        Parameters
        ----------
        path_index : int
            Index into :attr:`paths`.
        qps_values : sequence of float
            The strictly positive dwell-cell loads about to be read.
        service : CachedServiceConfig, optional
            The cells' service model (default: the table's).
        """
        service, missing = self._missing_dwell(path_index, qps_values, service)
        plan = self.paths[path_index].plan
        cfg = self.simulation
        matrix = None
        if service is not None and not all(cfg.saturated(plan, q) for q in missing):
            matrix = self._service_state(path_index, service)[1]
        live, _, latencies = simulate(
            plan, missing, cfg, seed=self._path_seeds[path_index], service=matrix
        )
        rows = iter(latencies)
        for q, ok in zip(missing, live):
            self._segments[(path_index, q, service)] = next(rows) if ok else None

    def score(
        self,
        policy: str,
        trace_name: str,
        path_steps: Sequence[int],
        switch_steps: Sequence[bool],
        cells: Sequence[tuple],
        total_queries: float,
        waits: Callable[[], np.ndarray] | None = None,
        shed: int = 0,
    ) -> RoutingResult:
        """Aggregate dwell cells and extra latency mass into a :class:`RoutingResult`.

        A cell ``(path, load, service, served, prompt, penalty)`` serves
        ``served`` queries on ``path``.  ``prompt`` of them see the cell's
        steady-state sample at ``load`` under ``service`` (``None``: the
        table's model) plus ``penalty`` seconds of warm-up; the other
        ``served - prompt`` were served late, deliver the path's quality and
        violate the SLA, and ``waits()`` returns their latencies (one query
        each).  ``shed`` queries were never served: they violate with ``inf``
        latency mass and zero quality.  A saturated cell counts all of its
        queries as violations and adds ``inf`` mass.  ``effective_quality``
        discounts every violating query to zero, so policies are ranked by
        quality *delivered within SLA*, not quality promised.

        The p99 is mass-first: the pool's finite and ``inf`` masses are
        totalled before any sample is pooled, and when
        :func:`~repro.serving.metrics.percentile_is_infinite` proves the
        pooled p99 ``inf`` no pool is built and ``waits`` is never called.
        Otherwise the pool is the cells' samples in decision order, then the
        waits, then the shed mass, through
        :func:`~repro.serving.metrics.weighted_percentile`.

        Parameters
        ----------
        policy : str
            Label recorded in the result.
        trace_name : str
            Name of the served trace.
        path_steps : sequence of int
            Active path index per decision (trace step or window).
        switch_steps : sequence of bool
            Marks the first decision of each new dwell segment.
        cells : sequence of tuple
            The dwell cells, in decision order.
        total_queries : float
            Queries offered; quality, violation rate and occupancy are
            fractions of it.
        waits : callable, optional
            Returns the latencies of the late-served queries; needed when
            some cell serves late, called only if the pool is built.
        shed : int
            Queries offered but never served.

        Returns
        -------
        RoutingResult
            Aggregated quality, p99, violation rate, switches, occupancy.
        """
        loads: dict[tuple, list[float]] = {}
        for index, load, service, *_ in cells:
            loads.setdefault((index, service), []).append(load)
        for (index, service), values in loads.items():
            self.prefill_dwell(index, values, service)

        violations = 0.0
        quality_mass = 0.0
        effective_mass = 0.0
        occupancy: dict[str, float] = {}
        # The pool's pieces in pool order, each (values, weight of each
        # value), and the masses and entry count the pool would hold.
        pieces: list[tuple[np.ndarray, float]] = []
        finite, late = 0.0, 0
        infinite = float(shed)
        entries = len(cells) + (1 if shed else 0)
        for index, load, service, served, prompt, penalty in cells:
            path = self.paths[index]
            quality_mass += served * path.quality
            occupancy[path.name] = occupancy.get(path.name, 0.0) + served
            late += served - prompt
            latencies = self.dwell_latencies(index, load, service)
            if latencies is None:  # saturated: every query violates, none delivers
                violations += served
                infinite += float(served)
                pieces.append((np.asarray([np.inf]), float(served)))
                entries += 1
                continue
            observed = latencies + penalty if penalty else latencies
            violating = float(np.mean(observed > self.sla_seconds))
            violations += prompt * violating + (served - prompt)
            effective_mass += prompt * path.quality * (1.0 - violating)
            finite += prompt
            pieces.append((observed, prompt / observed.size))
            entries += observed.size
        violations += shed
        if percentile_is_infinite(finite + late, infinite, entries + int(late), 99.0):
            p99 = float("inf")
        else:
            if late:
                sample = None if waits is None else waits()
                if sample is None or sample.size != late:
                    raise ValueError(f"waits must return the {late} late-served latencies")
                pieces.append((sample, 1.0))
            if shed:
                pieces.append((np.asarray([np.inf]), float(shed)))
            # Passed as temporaries: no name here keeps them alive, so the
            # percentile can free each one once it holds the sorted copy.
            p99 = weighted_percentile(
                np.concatenate([piece for piece, _ in pieces]),
                np.repeat([weight for _, weight in pieces], [piece.size for piece, _ in pieces]),
                99.0,
            )
        switch_steps = tuple(bool(s) for s in switch_steps)
        return RoutingResult(
            policy=policy,
            trace_name=trace_name,
            quality=quality_mass / total_queries,
            effective_quality=effective_mass / total_queries,
            p99_seconds=p99,
            violation_rate=violations / total_queries,
            num_switches=sum(switch_steps[1:]),
            total_queries=float(total_queries),
            path_steps=tuple(int(i) for i in path_steps),
            switch_steps=switch_steps,
            occupancy={name: mass / total_queries for name, mass in occupancy.items()},
        )

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

        Each step is one dwell cell (:meth:`score`): the active path serves
        a steady-state arrival window at the step's offered load, and every
        one of the step's expected queries is served promptly.  Steps
        flagged in ``switch_steps`` add ``switch_penalty_seconds`` to every
        query latency (path warm-up).

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
        service_steps = [None] * trace.num_steps if service_steps is None else list(service_steps)
        if len(service_steps) != trace.num_steps:
            raise ValueError("service_steps must cover every trace step")
        queries = trace.queries_per_step()
        cells = [
            (index, float(qps), service, weight, weight, switch_penalty_seconds if switch else 0.0)
            for index, qps, service, weight, switch in zip(
                path_steps, trace.qps, service_steps, queries, switch_steps
            )
        ]
        return self.score(policy, trace.name, path_steps, switch_steps, cells, float(queries.sum()))


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
    index = int(table.best_path_batch(np.array([provisioned]))[0])
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
    steps = table.best_path_batch(trace.qps).tolist()
    switches = [False] + [a != b for a, b in zip(steps, steps[1:])]
    return table.evaluate_route(
        trace, steps, switches, policy="oracle", service_steps=service_steps
    )


@dataclass
class MultiPathRouter:
    """The online policy: load forecasting, hysteresis, cost-aware switching.

    The router never sees the future: its load estimate for step ``t``
    comes from a strictly causal :class:`~repro.serving.estimators.LoadEstimator`
    that has observed only steps ``0 .. t-1`` (the default
    :class:`~repro.serving.estimators.WindowedMean` is the original
    behavior — the mean of the last few observed steps; predictive
    estimators extrapolate instead of chasing).  A switch is
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
    hysteresis_steps : int
        Consecutive identical proposals required before switching.
    switch_penalty_seconds : float
        Warm-up latency charged to every query of a switch step.
    estimator : LoadEstimator
        The load forecaster (default: ``WindowedMean()``;
        :func:`~repro.serving.estimators.make_estimator` builds one by
        name).  The router resets it at the start of every decision pass,
        so one instance can replay many traces.
    switch_cost_seconds : float
        Predicted p99 gain (seconds, accumulated over the expected dwell)
        a shedding switch must repay before it is committed; ``0`` disables
        the gate.
    """

    table: PathTable
    hysteresis_steps: int = 2
    switch_penalty_seconds: float = 0.0
    estimator: LoadEstimator = field(default_factory=WindowedMean)
    switch_cost_seconds: float = 0.0

    def __post_init__(self) -> None:
        """Validate the policy knobs."""
        if self.hysteresis_steps <= 0:
            raise ValueError("hysteresis_steps must be positive")
        if self.switch_penalty_seconds < 0:
            raise ValueError("switch_penalty_seconds must be non-negative")
        if self.switch_cost_seconds < 0:
            raise ValueError("switch_cost_seconds must be non-negative")

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
        there by construction: ``best_path_batch`` proposes the lowest-p99
        eligible path, whose p99 cannot exceed the current path's.
        """
        if self.switch_cost_seconds == 0:
            return True
        p99_current = float(self.table.p99_profile(current, qps))
        if p99_current <= self.table.sla_seconds:
            return True
        if np.isinf(p99_current):
            return True
        gain = p99_current - float(self.table.p99_profile(candidate, qps))
        return gain * float(max(streak, 1)) >= self.switch_cost_seconds

    def decide_from_estimates(self, estimates: np.ndarray) -> tuple[list[int], list[bool]]:
        """Run the hysteresis/cost state machine over precomputed estimates.

        The table's per-step candidate proposals come from one vectorized
        :meth:`PathTable.best_path_batch` call; the sequential part — the
        hysteresis streak and the cost gate — is inherently stateful and
        stays a scalar loop over cheap integer comparisons.  Both
        :meth:`decide` and the per-query frontend delegate here, so the step
        router and the frontend share one decision state machine by
        construction.

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
        log = active_log()
        candidates = self.table.best_path_batch(estimates)
        current = int(candidates[0])
        steps = [current]
        switches = [False]
        pending: int | None = None
        streak = 0
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
        return self.decide_from_estimates(self.estimate_over(trace.qps))

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
