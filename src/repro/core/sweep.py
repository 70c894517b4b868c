"""User-configurable design-space sweeps (behind ``recpipe sweep``).

The paper's figures fix the candidate pools, loads and SLAs to its
experimental setup; this module exposes the same methodology —
:func:`~repro.core.pipeline.enumerate_pipelines` x
:class:`~repro.core.scheduler.RecPipeScheduler` — with every knob
user-supplied: hardware platforms, QPS points, tail-latency SLA, quality
target, item ladders, stage count and simulation budget.

``platform`` is a swept axis, not a scalar: :class:`SweepConfig` takes a
tuple of platforms and :func:`run_sweep` evaluates every (platform, qps,
pipeline) cell in one invocation, the way the paper's headline comparison
(Figures 8–10) puts CPU, GPU, heterogeneous CPU-GPU and RPAccel on one
frontier.  Quality is load- and platform-independent, so it is evaluated
once per unique pipeline (:meth:`RecPipeScheduler.quality_map`) and reused
across all cells.

Performance simulation is batched by *column*: each (platform, pipeline)
pair builds its :class:`~repro.serving.resources.PipelinePlan` once and
simulates all of its QPS cells in one vectorized
:meth:`RecPipeScheduler.evaluate_grid` call (the closed-form engine from
:mod:`repro.serving.engine`; ``engine="event"`` keeps the discrete-event
reference).  With ``jobs > 1`` the columns fan out over a process pool.
Every column gets its own arrival-noise seed, derived deterministically
from ``SweepConfig.seed`` via :class:`np.random.SeedSequence` spawning, so
cells do not share correlated arrival noise while the same sweep config
still reproduces the same numbers.

The outcome carries the raw :class:`~repro.core.scheduler.EvaluatedConfig`
records plus per-platform cross-sections (Pareto frontier, best-under-SLA,
best-at-iso-quality) and the cross-platform cross-sections behind the
paper's Figure 10-style comparison: a combined frontier over all platforms
per load, the best platform under the SLA, and a speedup-vs-baseline column
(the first platform in ``platforms`` is the baseline).  Everything
serializes to plain rows for the CLI's JSON/CSV artifacts.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.pipeline import PipelineConfig, enumerate_pipelines
from repro.core.scheduler import EvaluatedConfig, RecPipeScheduler
from repro.events import active_log
from repro.models.zoo import ModelSpec
from repro.quality.evaluator import QualityEvaluator
from repro.serving.engine import ENGINES, spawn_seeds
from repro.serving.simulator import SimulationConfig

PLATFORMS = ("cpu", "gpu", "gpu-cpu", "baseline-accel", "rpaccel")

#: A (platform, qps) cell of the sweep grid.
Cell = tuple[str, float]


@dataclass(frozen=True)
class SweepConfig:
    """Everything a design-space sweep needs besides the workload itself.

    Parameters
    ----------
    platforms : tuple[str, ...]
        Hardware platforms as a swept axis (subset of :data:`PLATFORMS`);
        the first entry is the baseline every speedup is measured against.
        A lone platform name is normalized to a one-element axis and
        duplicates are dropped, order preserved.
    qps : tuple[float, ...]
        Offered loads to evaluate every (platform, pipeline) cell at.
    sla_ms : float
        Tail-latency SLA in milliseconds (``best_under_sla`` cross-sections).
    quality_target : float or None
        NDCG floor for the iso-quality cross-section (``None``: skip it).
    first_stage_items, later_stage_items : tuple[int, ...]
        Candidate-pool and survivor ladders fed to
        :func:`~repro.core.pipeline.enumerate_pipelines`.
    max_stages : int
        Deepest funnel to enumerate.
    serve_k : int
        Items the final stage must serve.
    num_queries : int
        Simulated arrivals per (platform, pipeline, qps) cell.
    seed : int
        Root seed; per-column arrival seeds derive from it
        (:func:`column_seeds`).
    num_tables : int
        Embedding tables of the workload (26 Criteo, 2 MovieLens).
    engine : str
        Serving engine, ``"analytic"`` (closed form, default) or
        ``"event"`` (discrete-event reference).
    """

    platforms: tuple[str, ...] = ("cpu",)
    qps: tuple[float, ...] = (500.0,)
    sla_ms: float = 25.0
    quality_target: float | None = None
    first_stage_items: tuple[int, ...] = (2048, 4096)
    later_stage_items: tuple[int, ...] = (128, 256, 512, 1024)
    max_stages: int = 3
    serve_k: int = 64
    num_queries: int = 1500
    seed: int = 0
    num_tables: int = 26
    engine: str = "analytic"

    def __post_init__(self) -> None:
        platforms = self.platforms
        if isinstance(platforms, str):  # a lone platform name is a 1-cell axis
            platforms = (platforms,)
        deduped = tuple(dict.fromkeys(platforms))
        object.__setattr__(self, "platforms", deduped)
        if not self.platforms:
            raise ValueError("platforms needs at least one platform")
        unknown = [p for p in self.platforms if p not in PLATFORMS]
        if unknown:
            raise ValueError(f"unknown platforms {unknown}; expected a subset of {PLATFORMS}")
        if not self.qps or not all(math.isfinite(q) and q > 0 for q in self.qps):
            raise ValueError(f"qps points must be positive and finite, got {self.qps}")
        # Dedup like platforms: a repeated load would double-count every
        # pipeline in its (platform, qps) cell when columns are transposed.
        # Loads are floats however given (a scenario file may hold integers).
        object.__setattr__(self, "qps", tuple(dict.fromkeys(float(q) for q in self.qps)))
        if not (math.isfinite(self.sla_ms) and self.sla_ms > 0):
            raise ValueError(f"sla_ms must be positive and finite, got {self.sla_ms}")
        if self.quality_target is not None and not math.isfinite(self.quality_target):
            raise ValueError(f"quality_target must be finite, got {self.quality_target}")
        if self.max_stages <= 0:
            raise ValueError("max_stages must be positive")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")

    @property
    def sla_seconds(self) -> float:
        """The tail-latency SLA converted to seconds."""
        return self.sla_ms / 1e3

    @property
    def baseline_platform(self) -> str:
        """The platform speedups are reported against (first in the axis)."""
        return self.platforms[0]

    def cells(self) -> list[Cell]:
        """The (platform, qps) grid in deterministic order."""
        return [(platform, qps) for platform in self.platforms for qps in self.qps]


@dataclass
class SweepOutcome:
    """All evaluations of one sweep plus the paper's cross-sections.

    Per-platform cross-sections (``frontier``, ``best_under_sla``,
    ``best_at_quality``) are keyed by (platform, qps) cell; the
    cross-platform cross-sections (``combined_frontier``,
    ``best_platform_under_sla``) pool every platform at one load and are
    keyed by qps alone.
    """

    config: SweepConfig
    pipelines: list[PipelineConfig]
    quality_by_pipeline: dict[str, float] = field(default_factory=dict)
    evaluated: dict[Cell, list[EvaluatedConfig]] = field(default_factory=dict)
    frontier: dict[Cell, list[EvaluatedConfig]] = field(default_factory=dict)
    best_under_sla: dict[Cell, EvaluatedConfig | None] = field(default_factory=dict)
    best_at_quality: dict[Cell, EvaluatedConfig | None] = field(default_factory=dict)
    combined_frontier: dict[float, list[EvaluatedConfig]] = field(default_factory=dict)
    best_platform_under_sla: dict[float, EvaluatedConfig | None] = field(default_factory=dict)
    _baseline_p99_cache: dict[tuple[str, float], float] | None = field(
        default=None, init=False, repr=False
    )

    def _baseline_p99(self) -> dict[tuple[str, float], float]:
        """(pipeline, qps) -> p99 on the baseline platform, saturated excluded.

        Computed once and cached: the evaluations never change after
        :func:`run_sweep` fills the outcome, and :meth:`speedup_vs_baseline`
        is called once per row/frontier member.
        """
        if self._baseline_p99_cache is None:
            baseline = self.config.baseline_platform
            p99: dict[tuple[str, float], float] = {}
            for qps in self.config.qps:
                for e in self.evaluated.get((baseline, qps), []):
                    if not e.saturated:
                        p99[(e.pipeline.name, qps)] = e.p99_latency
            self._baseline_p99_cache = p99
        return self._baseline_p99_cache

    def speedup_vs_baseline(self, e: EvaluatedConfig) -> float | None:
        """Speedup (p99) of ``e`` over the same pipeline on the baseline platform.

        ``None`` when either side is saturated (no finite latency to compare);
        baseline rows report 1.0 by construction.
        """
        if e.saturated:
            return None
        base = self._baseline_p99().get((e.pipeline.name, e.offered_qps))
        if base is None:
            return None
        return base / e.p99_latency

    def rows(self) -> list[dict]:
        """One JSON/CSV-ready row per (platform, pipeline, qps) evaluation."""
        rows = []
        for qps in self.config.qps:
            combined = {(e.platform, e.pipeline.name) for e in self.combined_frontier.get(qps, [])}
            platform_best = self.best_platform_under_sla.get(qps)
            for platform in self.config.platforms:
                cell = (platform, qps)
                frontier_names = {e.pipeline.name for e in self.frontier.get(cell, [])}
                sla_best = self.best_under_sla.get(cell)
                quality_best = self.best_at_quality.get(cell)
                for e in self.evaluated.get(cell, []):
                    rows.append(
                        {
                            "pipeline": e.pipeline.name,
                            "num_stages": e.pipeline.num_stages,
                            "platform": e.platform,
                            "engine": self.config.engine,
                            "qps": qps,
                            "quality_ndcg": e.quality,
                            "p99_ms": float("inf")
                            if e.saturated
                            else e.p99_latency * 1e3,
                            "unloaded_ms": e.unloaded_latency * 1e3,
                            "capacity_qps": e.throughput_capacity,
                            "saturated": e.saturated,
                            "meets_sla": e.meets(0.0, self.config.sla_seconds),
                            "speedup_vs_baseline": self.speedup_vs_baseline(e),
                            "on_frontier": e.pipeline.name in frontier_names,
                            "on_combined_frontier": (platform, e.pipeline.name)
                            in combined,
                            "best_under_sla": sla_best is not None
                            and e.pipeline.name == sla_best.pipeline.name,
                            "best_platform_under_sla": platform_best is not None
                            and platform == platform_best.platform
                            and e.pipeline.name == platform_best.pipeline.name,
                            "best_at_quality_target": quality_best is not None
                            and e.pipeline.name == quality_best.pipeline.name,
                        }
                    )
        return rows

    def platform_rows(
        self, platform: str, rows: Sequence[dict] | None = None
    ) -> list[dict]:
        """The subset of :meth:`rows` mapped onto one platform.

        Callers splitting one sweep into several per-platform views should
        compute ``rows = outcome.rows()`` once and pass it in.
        """
        if rows is None:
            rows = self.rows()
        return [row for row in rows if row["platform"] == platform]

    def frontier_rows(self) -> list[dict]:
        """The combined cross-platform frontier, one row per member per load.

        This is the Figure 10-style artifact: at each load, the
        quality/latency-optimal configurations pooled over every swept
        platform, with the winning platform and its speedup over the
        baseline platform spelled out.
        """
        rows = []
        for qps in self.config.qps:
            members = sorted(self.combined_frontier.get(qps, []), key=lambda e: e.p99_latency)
            for e in members:
                rows.append(
                    {
                        "qps": qps,
                        "platform": e.platform,
                        "engine": self.config.engine,
                        "pipeline": e.pipeline.name,
                        "num_stages": e.pipeline.num_stages,
                        "quality_ndcg": e.quality,
                        "p99_ms": e.p99_latency * 1e3,
                        "speedup_vs_baseline": self.speedup_vs_baseline(e),
                        "meets_sla": e.meets(0.0, self.config.sla_seconds),
                    }
                )
        return rows

    def summary_lines(self) -> list[str]:
        """Human-readable per-load summary (printed by the CLI)."""
        cfg = self.config
        lines = [
            f"{len(self.pipelines)} configurations x "
            f"{len(cfg.platforms)} platforms ({', '.join(cfg.platforms)}; "
            f"baseline {cfg.baseline_platform}; sla {cfg.sla_ms:.1f} ms, "
            f"engine {cfg.engine}, seed {cfg.seed})"
        ]
        for qps in cfg.qps:
            for platform in cfg.platforms:
                cell = (platform, qps)
                frontier = self.frontier.get(cell, [])
                lines.append(
                    f"{platform} @ qps {qps:g}: {len(frontier)} Pareto-optimal "
                    f"of {len(self.evaluated.get(cell, []))} evaluated"
                )
                best = self.best_under_sla.get(cell)
                if best is None:
                    lines.append(
                        f"{platform} @ qps {qps:g}: no configuration meets "
                        f"the {cfg.sla_ms:.1f} ms SLA"
                    )
                else:
                    lines.append(
                        f"{platform} @ qps {qps:g}: best under SLA = "
                        f"{best.pipeline.name} (ndcg {best.quality:.2f}, "
                        f"p99 {best.p99_latency * 1e3:.2f} ms)"
                    )
                if cfg.quality_target is not None:
                    best_q = self.best_at_quality.get(cell)
                    if best_q is None:
                        lines.append(
                            f"{platform} @ qps {qps:g}: no feasible configuration "
                            f"reaches quality {cfg.quality_target:.2f}"
                        )
                    else:
                        lines.append(
                            f"{platform} @ qps {qps:g}: fastest at "
                            f"quality>={cfg.quality_target:.2f} = "
                            f"{best_q.pipeline.name} "
                            f"(p99 {best_q.p99_latency * 1e3:.2f} ms)"
                        )
            combined = self.combined_frontier.get(qps, [])
            lines.append(
                f"qps {qps:g}: combined cross-platform frontier has "
                f"{len(combined)} configurations"
            )
            platform_best = self.best_platform_under_sla.get(qps)
            if platform_best is None:
                lines.append(f"qps {qps:g}: no platform meets the {cfg.sla_ms:.1f} ms SLA")
            else:
                speedup = self.speedup_vs_baseline(platform_best)
                speedup_note = (
                    f", {speedup:.2f}x vs {cfg.baseline_platform}"
                    if speedup is not None
                    else ""
                )
                lines.append(
                    f"qps {qps:g}: best platform under SLA = "
                    f"{platform_best.platform} with {platform_best.pipeline.name} "
                    f"(ndcg {platform_best.quality:.2f}, "
                    f"p99 {platform_best.p99_latency * 1e3:.2f} ms{speedup_note})"
                )
        return lines


def column_seeds(
    config: SweepConfig, pipelines: Sequence[PipelineConfig]
) -> dict[tuple[str, str], int]:
    """One arrival-noise seed per (platform, pipeline) column.

    Spawned from ``config.seed`` via
    :func:`repro.serving.engine.spawn_seeds` (the shared SeedSequence
    collapse, also used by router path tables): statistically independent
    streams per column (cells no longer share correlated arrival noise)
    that the same sweep config always re-derives identically.  Within a
    column, the draw is deliberately shared across the QPS axis (common
    random numbers make load curves smooth and let
    :func:`repro.serving.simulator.simulate` batch the whole column).
    """
    spawned = iter(spawn_seeds(config.seed, len(config.platforms) * len(pipelines)))
    return {
        (platform, pipeline.name): next(spawned)
        for platform in config.platforms
        for pipeline in pipelines
    }


#: Per-worker sweep state installed by :func:`_init_worker`.
_WORKER_STATE: dict = {}


def _init_worker(
    scheduler: RecPipeScheduler,
    pipelines: Sequence[PipelineConfig],
    qualities: dict[str, float],
    qps_values: Sequence[float],
    seeds: dict[tuple[str, str], int],
) -> None:
    """Install the per-worker sweep state once per process.

    Ships the scheduler (with its query workload) and the quality memo to a
    worker once, instead of re-pickling them with every column task.  Workers
    never re-run the quality simulation — the memo travels with them.
    """
    _WORKER_STATE["sweep"] = (scheduler, pipelines, qualities, qps_values, seeds)


def _evaluate_column_in_worker(platform: str, pipeline_index: int) -> list[EvaluatedConfig]:
    scheduler, pipelines, qualities, qps_values, seeds = _WORKER_STATE["sweep"]
    pipeline = pipelines[pipeline_index]
    return scheduler.evaluate_grid(
        pipeline,
        platform,
        qps_values,
        quality=qualities.get(pipeline.name),
        seed=seeds[(platform, pipeline.name)],
    )


def run_sweep(
    evaluator: QualityEvaluator,
    model_specs: Sequence[ModelSpec],
    config: SweepConfig,
    jobs: int = 1,
) -> SweepOutcome:
    """Enumerate, evaluate and cross-section the design space of ``config``.

    Quality is evaluated once per unique pipeline and shared across every
    (platform, qps) cell.  Performance is simulated per (platform, pipeline)
    column: the plan is built once and every QPS cell of the column runs in
    one vectorized call (:meth:`RecPipeScheduler.evaluate_grid`), each column
    seeded independently via :func:`column_seeds`.  With ``jobs > 1`` the
    columns run in up to ``jobs`` worker processes.
    """
    pipelines = enumerate_pipelines(
        model_specs,
        first_stage_items=config.first_stage_items,
        later_stage_items=config.later_stage_items,
        max_stages=config.max_stages,
        serve_k=config.serve_k,
    )
    if not pipelines:
        raise ValueError(
            "the item ladders admit no pipeline; widen --first-stage-items / "
            "--later-stage-items or lower --serve-k (items must be at least "
            f"serve_k={config.serve_k}, ladders strictly decreasing)"
        )
    scheduler = RecPipeScheduler(
        evaluator,
        simulation=SimulationConfig.with_budget(
            config.num_queries, seed=config.seed, engine=config.engine
        ),
        num_tables=config.num_tables,
    )
    # Quality depends only on the funnel, so hoist it out of the grid: one
    # evaluation per unique pipeline, reused by every (platform, qps) cell
    # (and shipped to worker processes instead of recomputed there).
    qualities = scheduler.quality_map(pipelines)
    seeds = column_seeds(config, pipelines)
    columns = [
        (platform, index) for platform in config.platforms for index in range(len(pipelines))
    ]
    log = active_log()

    def _column_done(column: tuple[str, int], evaluated: list[EvaluatedConfig]) -> None:
        # Progress observability: one event per finished (platform,
        # pipeline) column.  Workers cannot emit across process
        # boundaries, so the pool path reports from the parent as each
        # future resolves.
        if log is not None:
            platform, index = column
            log.emit(
                "sweep_column",
                platform=platform,
                pipeline=pipelines[int(index)].name,
                cells=len(evaluated),
                saturated=sum(1 for e in evaluated if e.saturated),
            )

    evaluated_columns: dict[tuple[str, int], list[EvaluatedConfig]] = {}
    if jobs <= 1 or len(columns) <= 1:
        for platform, index in columns:
            pipeline = pipelines[index]
            evaluated = scheduler.evaluate_grid(
                pipeline,
                platform,
                config.qps,
                quality=qualities.get(pipeline.name),
                seed=seeds[(platform, pipeline.name)],
            )
            evaluated_columns[(platform, index)] = evaluated
            _column_done((platform, index), evaluated)
    else:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(columns)),
            initializer=_init_worker,
            initargs=(scheduler, pipelines, qualities, config.qps, seeds),
        ) as pool:
            futures = {
                column: pool.submit(_evaluate_column_in_worker, *column) for column in columns
            }
            for column, future in futures.items():
                evaluated_columns[column] = future.result()
                _column_done(column, evaluated_columns[column])

    # Transpose columns back into the (platform, qps) cells the
    # cross-sections consume, preserving pipeline enumeration order.
    evaluated_cells: dict[Cell, list[EvaluatedConfig]] = {cell: [] for cell in config.cells()}
    for platform, index in columns:
        for position, qps in enumerate(config.qps):
            evaluated_cells[(platform, qps)].append(evaluated_columns[(platform, index)][position])

    outcome = SweepOutcome(config=config, pipelines=pipelines, quality_by_pipeline=qualities)
    for cell, evaluated in evaluated_cells.items():
        outcome.evaluated[cell] = evaluated
        outcome.frontier[cell] = scheduler.quality_latency_frontier(evaluated)
        outcome.best_under_sla[cell] = scheduler.best_quality_under_sla(
            evaluated, config.sla_seconds
        )
        if config.quality_target is not None:
            outcome.best_at_quality[cell] = scheduler.best_at_iso_quality(
                evaluated, config.quality_target
            )
    for qps in config.qps:
        pooled = [e for platform in config.platforms for e in outcome.evaluated[(platform, qps)]]
        outcome.combined_frontier[qps] = scheduler.quality_latency_frontier(pooled)
        outcome.best_platform_under_sla[qps] = scheduler.best_quality_under_sla(
            pooled, config.sla_seconds
        )
    return outcome
