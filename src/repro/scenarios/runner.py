"""Run scenario cells: the one code path behind every experiment run.

:func:`run_cell` runs a cell of any kind.  A *serving* cell replays each
of its traces under the static and oracle bounds plus one online policy
per listed estimator, served from a routing table compiled for the cell's
workload, platform set, service model and cluster mix.  ``mode`` selects
the online policy: ``per-step`` runs the
:class:`~repro.serving.router.MultiPathRouter` (one decision per trace
step), ``per-query`` the :class:`~repro.serving.frontend.StreamingFrontend`
(admission control and dynamic batching over individually arriving
queries).  A *sweep* cell is one :func:`~repro.core.sweep.run_sweep` call,
and a *capacity* cell one
:func:`~repro.experiments.capacity_planning.run_capacity` call.  The
registry's serving entries (``router``, ``frontend``, ``flashcrowd``,
``coldcache`` and the ``routergrid`` cells), ``sweepmp`` and ``capacity``,
and ``recpipe route``/``sweep``/``capacity`` all run through
:func:`run_cell`.

Table compilation dominates the cost of a cell, and trace/estimator/policy
parameters do not affect the table, so compiled tables are memoized per
table-shaping parameter tuple (:func:`_compiled_table`): a
``trace x estimator`` grid compiles exactly one table no matter how many
cells it expands into, and entries that serve the same workload share it.

:func:`~repro.experiments.registry.scenario_specs` turns expanded cells
into registry entries whose ``run`` is :func:`run_cell`; this module does
not import the registry.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Mapping

from repro.cluster.fleet import compose_fleet, fleet_nodes, fleet_tables
from repro.core.pipeline import enumerate_pipelines
from repro.core.sweep import SweepConfig, run_sweep
from repro.data.criteo import CANDIDATES_PER_QUERY, NUM_TABLES
from repro.experiments.capacity_planning import CapacityConfig, budget_bytes, run_capacity
from repro.experiments.common import (
    MOVIELENS_POOL,
    ExperimentResult,
    criteo_quality_evaluator,
    make_scheduler,
    movielens_quality_evaluator,
)
from repro.scenarios.config import ScenarioCell
from repro.scenarios.knobs import TRACE_SHAPE, listed, parse_mix
from repro.serving.estimators import make_estimator
from repro.serving.frontend import FrontendResult, FrontendSchedule, QueryStream, StreamingFrontend
from repro.serving.router import (
    MultiPathRouter,
    PathTable,
    RoutingResult,
    route_oracle,
    route_static,
)
from repro.serving.service_times import SERVICE_MODELS
from repro.serving.trace import LoadTrace, diurnal_trace, ramp_trace, spike_trace

#: Table-shaping parameter names: two cells whose values agree on all of
#: these share one compiled table (trace/estimator axes are not in it).
TABLE_PARAMS = (
    "dataset",
    "platforms",
    "qps_grid",
    "sla_ms",
    "quality_target",
    "first_stage_items",
    "later_stage_items",
    "max_stages",
    "serve_k",
    "num_queries",
    "pool",
    "service_model",
    "nodes",
    "budget_gb",
    "num_tables",
    "embedding_scale",
)


def dataset_tables(dataset: str) -> int:
    """The ``num_tables`` a dataset's runs record: Criteo's 26, else 2 (no NeuMF plan reads it)."""
    return NUM_TABLES if dataset == "criteo" else 2


def workload(dataset: str, pool: int):
    """(evaluator, model specs, embedding-table count) for one dataset.

    Parameters
    ----------
    dataset : str
        One of the scenario datasets (``criteo``, ``movielens-*``).
    pool : int
        Candidates per ranking query.

    Returns
    -------
    tuple
        ``(evaluator, model_specs, num_tables)``.
    """
    from repro.models.zoo import criteo_model_specs, movielens_model_specs

    tables = dataset_tables(dataset)
    if dataset == "criteo":
        return criteo_quality_evaluator(pool), criteo_model_specs(), tables
    preset = dataset.split("-", 1)[1]
    return movielens_quality_evaluator(preset, pool), movielens_model_specs(), tables


def default_pool(dataset: str, pool: int | None, criteo_pool: int = CANDIDATES_PER_QUERY) -> int:
    """``pool``, or the dataset default when unset (MovieLens catalogues are smaller)."""
    if pool is not None:
        return pool
    return criteo_pool if dataset == "criteo" else MOVIELENS_POOL


def platform_names(value) -> tuple[str, ...]:
    """A platform set as a tuple of names, from ``+``-joined text or a sequence."""
    return tuple(value.split("+")) if isinstance(value, str) else tuple(value)


def cell_config(cell: ScenarioCell, seed: int | None = None) -> SweepConfig | CapacityConfig:
    """The :class:`SweepConfig` or :class:`CapacityConfig` a sweep or capacity cell runs.

    The cell's parameters that are the config's fields fill it, ``seed``
    overriding; a sweep takes its dataset's embedding-table count.
    """
    params = cell.params
    config_class = SweepConfig if cell.kind == "sweep" else CapacityConfig
    fields = {name: params[name] for name in config_class.__dataclass_fields__ if name in params}
    fields["platforms"] = platform_names(params["platforms"])
    if seed is not None:
        fields["seed"] = seed
    if cell.kind == "sweep":
        fields["num_tables"] = dataset_tables(params["dataset"])
    return config_class(**fields)


@lru_cache(maxsize=8)
def _compiled_table(key: tuple, seed: int):
    """Compile (and memoize) the routing table for one table-param tuple.

    Parameters
    ----------
    key : tuple
        The cell's :data:`TABLE_PARAMS` values, in that order.
    seed : int
        Compile seed (arrival noise of the table's dwell simulations).

    Returns
    -------
    PathTable or ClusterTable
        A single-node path table, or — when the ``nodes`` mix names more
        than one node — the fleet table ``compose_fleet`` composes over
        per-platform tables, sharded table-wise, on the cell's QPS grid
        scaled by the node count.
    """
    params = dict(zip(TABLE_PARAMS, key))
    evaluator, specs, num_tables = workload(params["dataset"], params["pool"])
    scheduler = make_scheduler(
        evaluator,
        num_queries=params["num_queries"],
        num_tables=num_tables,
        seed=seed,
        service=SERVICE_MODELS[params["service_model"]],
    )
    pipelines = enumerate_pipelines(
        specs,
        first_stage_items=params["first_stage_items"],
        later_stage_items=params["later_stage_items"],
        max_stages=params["max_stages"],
        serve_k=params["serve_k"],
    )
    if not pipelines:
        raise ValueError(
            "the item ladders admit no pipeline; widen first_stage_items / "
            "later_stage_items (--first-stage-items / --later-stage-items) "
            "or lower serve_k (--serve-k)"
        )

    def compile_table(platforms: tuple[str, ...]) -> PathTable:
        return PathTable.compile(
            scheduler,
            pipelines,
            platforms,
            params["qps_grid"],
            sla_ms=params["sla_ms"],
            quality_target=params["quality_target"],
            seed=seed,
        )

    if params["nodes"] == "1":
        return compile_table(platform_names(params["platforms"]))
    mix = parse_mix(params["nodes"])
    platform_tables = {platform: compile_table((platform,)) for platform in dict.fromkeys(mix)}
    nodes = fleet_nodes(mix, budget_bytes(params["budget_gb"]))
    return compose_fleet(
        nodes,
        platform_tables,
        tuple(float(q) * len(nodes) for q in params["qps_grid"]),
        fleet_tables(params["num_tables"], params["embedding_scale"]),
    )


def compiled_table(params: Mapping, seed: int):
    """The memoized routing table a cell with these parameters serves from.

    Parameters
    ----------
    params : Mapping
        The cell's resolved parameters (only :data:`TABLE_PARAMS` matter).
    seed : int
        Compile seed.

    Returns
    -------
    PathTable or ClusterTable
        The compiled table, shared by every cell with equal table params.
    """
    return _compiled_table(tuple(params[name] for name in TABLE_PARAMS), seed)


def build_trace(params: Mapping, item, seed: int) -> LoadTrace:
    """One of a cell's load traces.

    Parameters
    ----------
    params : Mapping
        The cell's resolved parameters; their :data:`TRACE_SHAPE` keys are
        the shape every trace shares.
    item : str or Mapping
        A trace name, or a table with a ``name`` whose other keys override
        the shared shape for this trace alone.
    seed : int
        Trace noise seed.

    Returns
    -------
    LoadTrace
        The generated trace.

    Raises
    ------
    ValueError
        When the trace name has no base/peak load mapping here (a generator
        added to :data:`~repro.serving.trace.TRACES` needs one).
    """
    item = dict(item) if isinstance(item, Mapping) else {"name": item}
    shape = {**{key: params[key] for key in TRACE_SHAPE}, **item}
    common = dict(
        num_steps=shape["steps"],
        step_seconds=shape["step_seconds"],
        noise=shape["noise"],
        seed=seed,
    )
    base, peak = shape["base_qps"], shape["peak_qps"]
    if shape["name"] == "diurnal":
        return diurnal_trace(base_qps=base, peak_qps=peak, **common)
    if shape["name"] == "spike":
        return spike_trace(base_qps=base, spike_qps=peak, **common)
    if shape["name"] == "ramp":
        return ramp_trace(start_qps=base, end_qps=peak, **common)
    raise ValueError(
        f"trace {shape['name']!r} has no base/peak load mapping; add one to "
        "repro.scenarios.runner.build_trace"
    )


def build_router(table, params: Mapping, estimator: str) -> MultiPathRouter:
    """The online policy a cell runs for one of its listed estimators.

    Parameters
    ----------
    table : PathTable or ClusterTable
        The cell's compiled table.
    params : Mapping
        The cell's resolved parameters (router and estimator knobs).
    estimator : str
        The load estimator's name.

    Returns
    -------
    MultiPathRouter
        A router in its initial state.
    """
    return MultiPathRouter(
        table,
        hysteresis_steps=params["hysteresis"],
        switch_penalty_seconds=params["switch_penalty_ms"] / 1e3,
        estimator=make_estimator(estimator, params["window"], params["ewma_alpha"]),
        switch_cost_seconds=params["switch_cost_ms"] / 1e3,
    )


def service_steps(params: Mapping, num_steps: int) -> list | None:
    """Per-step cache states of a cell's ``service_schedule``.

    Steps before the schedule's ``start`` serve the cell's (warm) cached
    model.  From ``start`` on the Zipf head is rotated by ``shift_items``
    rows and, when ``rewarm_steps`` is positive, the cache restarts cold
    and re-warms linearly: ``warm_fraction = min(1, (t - start) /
    rewarm_steps)``.  A popularity shift persists past the spike that
    brought it, and a reset cache ends fully warm again.

    Parameters
    ----------
    params : Mapping
        The cell's resolved parameters.
    num_steps : int
        Length of the served trace.

    Returns
    -------
    list of CachedServiceConfig or None
        One service model per step, or ``None`` without a schedule.
    """
    schedule = params["service_schedule"]
    if schedule is None:
        return None
    base = SERVICE_MODELS[params["service_model"]]
    start, rewarm = schedule["start"], schedule["rewarm_steps"]
    steps = []
    for t in range(num_steps):
        if t < start:
            steps.append(base)
        else:
            warm = min(1.0, (t - start) / rewarm) if rewarm else 1.0
            steps.append(replace(base, shift_items=schedule["shift_items"], warm_fraction=warm))
    return steps


def result_row(trace: LoadTrace, routing: RoutingResult, estimator: str = "-") -> dict:
    """One JSON/CSV-ready row per (trace, policy, estimator) evaluation."""
    leader = max(routing.occupancy.items(), key=lambda item: item[1])
    return {
        "trace": trace.name,
        "policy": routing.policy,
        "estimator": estimator,
        "quality_ndcg": routing.quality,
        "effective_quality": routing.effective_quality,
        "p99_ms": routing.p99_seconds * 1e3,
        "sla_violation_rate": routing.violation_rate,
        "num_switches": routing.num_switches,
        "paths_used": len(routing.occupancy),
        "dominant_path": leader[0],
        "dominant_share": leader[1],
        "total_queries": routing.total_queries,
    }


def frontend_row(trace: LoadTrace, result: FrontendResult, estimator: str) -> dict:
    """One row per (trace, estimator) frontend evaluation, admission included."""
    schedule = result.schedule
    row = result_row(trace, result.routing, estimator=estimator)
    row.update(
        shed_rate=schedule.shed_rate,
        defer_rate=schedule.defer_rate,
        mean_batch_size=schedule.mean_batch_size,
        max_queue_depth=schedule.max_queue_depth,
    )
    return row


def bound_row(trace: LoadTrace, routing: RoutingResult) -> dict:
    """A bounds row padded with the frontend-only columns (no admission)."""
    row = result_row(trace, routing)
    row.update(shed_rate=0.0, defer_rate=0.0, mean_batch_size="-", max_queue_depth=0)
    return row


def violation_note(label: str, static: RoutingResult, online: RoutingResult, detail: str) -> str:
    """The one-line static-vs-online summary of one online run."""
    return (
        f"{label}: SLA-violation rate static {static.violation_rate:.3f} "
        f"-> {online.policy} {online.violation_rate:.3f} ({detail})"
    )


def hit_rate_notes(table: PathTable, sampled: set) -> list[str]:
    """Report the measured and closed-form hit rate of each sampled cache state.

    The measured rate counts simulated cache hits
    (:attr:`~repro.serving.service_times.ServiceTimeSampler.measured_hit_rate`),
    the analytic rate is the Zipf closed form; reporting both keeps any
    drift between the model and the formula visible.  Tallies of paths
    sharing a cache state are pooled into one line per state.  Only the
    ``(path index, service model)`` pairs in ``sampled`` count: a memoized
    table also holds the samplers of every cell that ran on it before, and
    a cell's notes must not depend on run order.
    """
    wanted = {(table.paths[index].name, service) for index, service in sampled}
    pooled: dict[tuple[int, float], tuple[int, int, float]] = {}
    for row in table.service_stats():
        config = row["service"]
        if (row["path"], config) not in wanted:
            continue
        key = (config.shift_items, config.warm_fraction)
        accesses, hits, _ = pooled.get(key, (0, 0, 0.0))
        pooled[key] = (accesses + row["accesses"], hits + row["hits"], row["analytic_hit_rate"])
    lines = []
    for (shift, warm), (accesses, hits, analytic) in sorted(pooled.items()):
        measured = hits / accesses if accesses else 0.0
        lines.append(
            f"hit rate [shift={shift}, warm={warm:.2f}]: measured {measured:.4f} "
            f"over {accesses} simulated lookups vs Zipf closed form {analytic:.4f}"
        )
    return lines


def _step_log(table, trace: LoadTrace, router: MultiPathRouter, online: RoutingResult) -> list:
    """The online router's per-step decision log (``route_steps``)."""
    estimates = router.estimate_over(trace.qps)
    rows = []
    for step, (index, switched) in enumerate(zip(online.path_steps, online.switch_steps)):
        path = table.paths[index]
        rows.append(
            {
                "trace": trace.name,
                "step": step,
                "qps": float(trace.qps[step]),
                "estimated_qps": float(estimates[step]),
                "platform": path.platform,
                "pipeline": path.pipeline.name,
                "path": path.name,
                "switch": bool(switched),
            }
        )
    return rows


def _window_log(table, trace: LoadTrace, schedule: FrontendSchedule) -> list:
    """The frontend's per-window admission log (``route_steps``)."""
    return [
        {
            "trace": trace.name,
            "window": w,
            "estimated_qps": float(schedule.estimates[w]),
            "path": table.paths[int(schedule.window_paths[w])].name,
            "switch": bool(schedule.window_switches[w]),
            "arrivals": int(schedule.window_arrivals[w]),
            "admitted": int(schedule.window_admitted[w]),
            "deferred": int(schedule.window_deferred[w]),
            "shed": int(schedule.window_shed[w]),
            "shed_reason": str(schedule.window_shed_reason[w]),
            "batch_size": int(schedule.window_batch[w]),
        }
        for w in range(schedule.num_windows)
    ]


def run_cell(
    cell: ScenarioCell, seed: int | None = None, companions: dict | None = None
) -> ExperimentResult:
    """Execute one scenario cell of any kind; return its main table, named after the cell.

    ``seed`` overrides the cell's (``recpipe run --seed`` forwards it).
    ``companions``, when given, receives the cell's companion tables by
    suffix, each named ``<cell id>_<suffix>``: ``steps`` for a serving
    cell, one table per platform plus ``frontier`` for a sweep, and
    ``frontier`` for a capacity plan.
    """
    seed = cell.params["seed"] if seed is None else seed
    kinds = {"serving": _serving_cell, "sweep": _sweep_cell, "capacity": _capacity_cell}
    return kinds[cell.kind](cell, seed, companions)


def _sweep_cell(cell: ScenarioCell, seed: int, companions: dict | None) -> ExperimentResult:
    """One design-space sweep: every (platform, qps, pipeline) row.

    Notes give each load's combined cross-platform frontier, then the
    sweep's summary lines.  Companions: one breakdown per platform, and
    ``frontier``, the combined frontier per load.
    """
    params = cell.params
    config = cell_config(cell, seed)
    dataset = params["dataset"]
    evaluator, specs, _ = workload(dataset, default_pool(dataset, params["pool"]))
    outcome = run_sweep(evaluator, specs, config, jobs=params["jobs"])
    rows = outcome.rows()
    result = ExperimentResult(name=cell.id, rows=rows)
    for qps in config.qps:
        frontier = outcome.combined_frontier[qps]
        result.note(
            f"qps {qps:g}: combined frontier spans "
            f"{len({e.platform for e in frontier})} platform(s), "
            f"{len(frontier)} configuration(s)"
        )
    for line in outcome.summary_lines():
        result.note(line)
    if companions is not None:
        for platform in config.platforms:
            companions[platform] = ExperimentResult(
                name=f"{cell.id}_{platform}", rows=outcome.platform_rows(platform, rows)
            )
        companions["frontier"] = ExperimentResult(
            name=f"{cell.id}_frontier", rows=outcome.frontier_rows()
        )
    return result


def _capacity_cell(cell: ScenarioCell, seed: int, companions: dict | None) -> ExperimentResult:
    """One capacity plan over the diurnal trace :func:`build_trace` shapes.

    The per-mix table comes back; ``frontier`` is its cost/QPS frontier.
    """
    config = cell_config(cell, seed)
    shape = {
        **cell.params,
        "base_qps": config.resolved_base_qps,
        "peak_qps": config.resolved_peak_qps,
    }
    result, frontier = run_capacity(config, build_trace(shape, "diurnal", seed))
    result.name, frontier.name = cell.id, f"{cell.id}_frontier"
    if companions is not None:
        companions["frontier"] = frontier
    return result


def _serving_cell(cell: ScenarioCell, seed: int, companions: dict | None) -> ExperimentResult:
    """Static vs oracle vs online on every trace of a serving cell.

    Per trace: the static and oracle rows, then one online row per
    estimator (prefixed with the scenario name and axis assignment when
    the cell is a grid point), and one violation note per online run.
    Cells with a ``service_schedule`` add measured-vs-closed-form hit-rate
    notes.  Companion ``steps`` is the decision log of every online run,
    in run order: one row per trace step (``per-step``) or decision window
    (``per-query``).
    """
    params = cell.params
    table = compiled_table(params, seed)
    estimators = listed(params["estimator"])
    per_query = params["mode"] == "per-query"
    prefix = {"scenario": cell.scenario, **cell.axes} if cell.axes else {}
    result = ExperimentResult(name=cell.id)
    log = None
    if companions is not None:
        log = companions["steps"] = ExperimentResult(name=f"{cell.id}_steps")
    if cell.axes:
        result.note(f"cell {cell.id}: {cell.label}")
    sampled: set = set()
    for item in listed(params["trace"]):
        trace = build_trace(params, item, seed)
        steps = service_steps(params, trace.num_steps)
        static = route_static(
            table, trace, planning_qps=params["planning_qps"], service_steps=steps
        )
        oracle = route_oracle(table, trace, service_steps=steps)
        for bound in (static, oracle):
            row = bound_row(trace, bound) if per_query else result_row(trace, bound)
            result.add(**{**prefix, **row})
        routings = [static, oracle]
        # One stream per trace, shared by every estimator: its counts are
        # drawn once and each arrival block at most once, and ``del stream``
        # frees the realized blocks before the next trace.
        stream = (
            QueryStream.from_trace(trace, seed=seed, process=params["arrival_process"])
            if per_query
            else None
        )
        for estimator in estimators:
            router = build_router(table, params, estimator)
            if per_query:
                frontend = StreamingFrontend(
                    router,
                    window_seconds=params["window_seconds"],
                    max_batch=params["max_batch"],
                    batching=params["batching"],
                    defer_windows=params["defer_windows"],
                )
                served = frontend.serve(trace, stream)
                online, schedule = served.routing, served.schedule
                row = frontend_row(trace, served, estimator)
                detail = (
                    f"shed {schedule.shed_rate:.3f}, defer {schedule.defer_rate:.3f}, "
                    f"mean batch {schedule.mean_batch_size:.1f}"
                )
            else:
                online = router.route(trace, service_steps=steps)
                row = result_row(trace, online, estimator=estimator)
                detail = f"{online.num_switches} switches"
            result.add(**{**prefix, **row})
            label = trace.name if len(estimators) == 1 else f"{trace.name} [{estimator}]"
            result.note(violation_note(label, static, online, detail))
            routings.append(online)
            if log is not None:
                log.rows.extend(
                    _window_log(table, trace, schedule)
                    if per_query
                    else _step_log(table, trace, router, online)
                )
        del stream
        if steps is not None:
            for routing in routings:
                sampled.update(zip(routing.path_steps, steps))
    if params["service_schedule"] is not None:
        for line in hit_rate_notes(table, sampled):
            result.note(line)
    return result
