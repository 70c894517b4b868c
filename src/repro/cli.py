"""The ``recpipe`` command-line interface.

Subcommands::

    recpipe list [--format markdown]  # every registered experiment + metadata
    recpipe run [--only IDS] [--tag TAGS] [--jobs N] [--seed S] [--output-dir D]
    recpipe sweep --platform cpu --qps 250,500 --sla-ms 25 [--output-dir D]
    recpipe route --trace spike --sla-ms 25 [--output-dir D]
    recpipe route --mode per-query --trace spike [--output-dir D]
    recpipe route --service-model cached --trace spike [--output-dir D]
    recpipe capacity --platforms cpu,rpaccel --max-nodes 4 [--output-dir D]
    recpipe report --output-dir D     # re-render the tables of a previous run
    recpipe compare RUN_A RUN_B       # markdown diff of two --output-dir runs

``run`` executes registered experiments (process-parallel with
``--jobs``); ``sweep`` exposes the :mod:`repro.core.sweep` design-space
exploration with user-supplied loads and latency targets instead of the
paper's presets; ``route`` translates its flags into a one-cell scenario
(:mod:`repro.scenarios`), the same runner behind the registry's serving
entries: it compiles a :class:`~repro.serving.router.PathTable` and replays
time-varying load traces under static / oracle / online path selection
(:mod:`repro.serving.router`) — or, with ``--mode per-query``, under the
streaming frontend's per-query admission control and dynamic batching
(:mod:`repro.serving.frontend`); ``capacity`` sweeps every
(node count × platform mix) fleet of the cluster layer
(:mod:`repro.cluster`) and emits the cost/QPS frontier of the mixes that
serve a diurnal trace within the p99 SLA.  With ``--output-dir`` all of them
write per-experiment JSON + CSV artifacts and a ``manifest.json`` (config,
seed, resolved knobs, wall-clock per experiment), which ``report`` reads
back and ``compare`` diffs pairwise into a markdown report.  ``run
--scenario FILE`` expands a declarative scenario config
(:mod:`repro.scenarios`) into registered runs for the invocation, and
``--events FILE`` streams structured run events (route decisions, admission
windows, shard gathers, sweep columns) to JSONL.  ``list --format
markdown`` emits the registry table embedded in ``docs/experiments.md``
(checked by CI).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.experiments import artifacts
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import (
    ExperimentRegistry,
    UnknownExperimentError,
    UnknownTagError,
    default_registry,
)

PROG = "recpipe"

#: Workloads the sweep subcommand can target.
SWEEP_DATASETS = ("criteo", "movielens-1m", "movielens-20m")


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    # Policy knob defaults are read from the router/frontend dataclasses so
    # the CLI, the registry experiments and the library cannot drift apart.
    from repro.experiments import capacity_planning
    from repro.serving.estimators import EWMA, ESTIMATORS
    from repro.serving.frontend import ARRIVAL_PROCESSES, StreamingFrontend
    from repro.serving.router import MultiPathRouter
    from repro.serving.service_times import SERVICE_MODELS

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="RecPipe reproduction: run experiments and design-space sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list registered experiments")
    list_parser.add_argument("--tag", default="", help="comma-separated tags to filter by")
    list_parser.add_argument(
        "--scenario",
        default="",
        help="also expand a scenario config (TOML/JSON) into listed entries",
    )
    list_parser.add_argument(
        "--format",
        default="table",
        choices=("table", "markdown"),
        help="plain-text table (default) or the markdown table docs/experiments.md embeds",
    )

    run_parser = sub.add_parser("run", help="run registered experiments")
    run_parser.add_argument(
        "--only", default="", help="comma-separated experiment ids (e.g. fig01,fig07)"
    )
    run_parser.add_argument("--tag", default="", help="comma-separated tags (e.g. accel,criteo)")
    run_parser.add_argument(
        "--jobs", type=int, default=1, help="run experiments in N parallel processes"
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="seed forwarded to harnesses that take one"
    )
    run_parser.add_argument(
        "--output-dir", default="", help="write JSON/CSV artifacts and a manifest here"
    )
    run_parser.add_argument(
        "--scenario",
        default="",
        help=(
            "expand a scenario config (TOML/JSON) into registered runs for "
            "this invocation; its cell ids become selectable via --only/--tag"
        ),
    )
    run_parser.add_argument(
        "--events",
        default="",
        help="stream structured run events to this JSONL file (in-process runs only)",
    )
    run_parser.add_argument("--quiet", action="store_true", help="suppress the plain-text tables")

    sweep_parser = sub.add_parser("sweep", help="design-space sweep with user-supplied targets")
    sweep_parser.add_argument(
        "--dataset", default="criteo", choices=SWEEP_DATASETS, help="workload to sweep"
    )
    sweep_parser.add_argument(
        "--platform",
        default="cpu",
        help=(
            "comma-separated hardware platforms to compare in one sweep "
            "(cpu, gpu, gpu-cpu, baseline-accel, rpaccel), or 'all'; the "
            "first platform is the speedup baseline"
        ),
    )
    sweep_parser.add_argument(
        "--qps", default="500", help="comma-separated offered loads, e.g. 250,500,1000"
    )
    sweep_parser.add_argument(
        "--sla-ms", type=float, default=25.0, help="tail-latency SLA in milliseconds"
    )
    sweep_parser.add_argument(
        "--quality-target",
        type=float,
        default=None,
        help="also report the fastest configuration at this NDCG or better",
    )
    sweep_parser.add_argument(
        "--first-stage-items", default="2048,4096", help="candidate pool sizes"
    )
    sweep_parser.add_argument(
        "--later-stage-items", default="128,256,512,1024", help="later-stage item grid"
    )
    sweep_parser.add_argument(
        "--max-stages", type=int, default=3, help="maximum number of funnel stages"
    )
    sweep_parser.add_argument(
        "--serve-k", type=int, default=64, help="items the last stage must serve"
    )
    sweep_parser.add_argument(
        "--num-queries", type=int, default=1500, help="simulated queries per load point"
    )
    sweep_parser.add_argument(
        "--pool",
        type=int,
        default=None,
        help="candidates per ranking query (default: 4096 criteo, 1024 movielens)",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="evaluate (platform, pipeline) columns in N parallel processes",
    )
    sweep_parser.add_argument(
        "--engine",
        default="analytic",
        choices=("analytic", "event"),
        help=(
            "simulation engine: 'analytic' (closed-form, vectorized, default) "
            "or 'event' (discrete-event reference)"
        ),
    )
    sweep_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    sweep_parser.add_argument(
        "--output-dir", default="", help="write JSON/CSV artifacts and a manifest here"
    )
    sweep_parser.add_argument("--quiet", action="store_true", help="suppress the plain-text table")

    route_parser = sub.add_parser(
        "route", help="online multi-path routing over time-varying load traces"
    )
    route_parser.add_argument(
        "--dataset", default="criteo", choices=SWEEP_DATASETS, help="workload to route"
    )
    route_parser.add_argument(
        "--platform",
        default="cpu,gpu-cpu",
        help="comma-separated platforms whose (platform, pipeline) paths enter the table",
    )
    route_parser.add_argument(
        "--qps-grid",
        default="100,250,1000,2500,4000,5500,6000",
        help="swept loads backing the table's interpolated p99 curves",
    )
    route_parser.add_argument(
        "--sla-ms", type=float, default=25.0, help="tail-latency SLA in milliseconds"
    )
    route_parser.add_argument(
        "--quality-target",
        type=float,
        default=None,
        help="minimum NDCG a path needs to be routable",
    )
    route_parser.add_argument(
        "--first-stage-items", default="512", help="candidate pool sizes"
    )
    route_parser.add_argument(
        "--later-stage-items", default="128,256", help="later-stage item grid"
    )
    route_parser.add_argument(
        "--max-stages", type=int, default=2, help="maximum number of funnel stages"
    )
    route_parser.add_argument(
        "--serve-k", type=int, default=64, help="items the last stage must serve"
    )
    route_parser.add_argument(
        "--num-queries", type=int, default=800, help="simulated queries per dwell cell"
    )
    route_parser.add_argument(
        "--pool",
        type=int,
        default=None,
        help="candidates per ranking query (default: 512 criteo, 1024 movielens)",
    )
    route_parser.add_argument(
        "--trace",
        default="all",
        help="comma-separated trace names (diurnal, spike, ramp) or 'all'",
    )
    route_parser.add_argument(
        "--steps", type=int, default=120, help="number of trace steps"
    )
    route_parser.add_argument(
        "--step-seconds", type=float, default=60.0, help="width of one trace step"
    )
    route_parser.add_argument(
        "--base-qps",
        type=float,
        default=150.0,
        help="trough load (diurnal base, spike base, ramp start)",
    )
    route_parser.add_argument(
        "--peak-qps",
        type=float,
        default=5500.0,
        help="peak load (diurnal peak, spike plateau, ramp end)",
    )
    route_parser.add_argument(
        "--noise", type=float, default=0.03, help="relative per-step load noise"
    )
    route_parser.add_argument(
        "--estimator",
        default="windowed",
        choices=tuple(ESTIMATORS),
        help=(
            "online load estimator: reactive windowed mean (default), "
            "EWMA, or Holt level+trend (predictive)"
        ),
    )
    route_parser.add_argument(
        "--window",
        type=int,
        default=MultiPathRouter.window,
        help="sliding-window length of the windowed-mean load estimator",
    )
    route_parser.add_argument(
        "--ewma-alpha",
        type=float,
        default=EWMA.alpha,
        help="EWMA smoothing factor in (0, 1] (used with --estimator ewma)",
    )
    route_parser.add_argument(
        "--hysteresis",
        type=int,
        default=MultiPathRouter.hysteresis_steps,
        help="consecutive identical proposals required before switching",
    )
    route_parser.add_argument(
        "--switch-penalty-ms",
        type=float,
        default=5.0,
        help="warm-up latency charged to every query of a switch step",
    )
    route_parser.add_argument(
        "--switch-cost-ms",
        type=float,
        default=MultiPathRouter.switch_cost_seconds * 1e3,
        help=(
            "predicted p99 gain (ms, accumulated over the expected dwell) a "
            "shedding switch must repay before it is committed; 0 disables the gate"
        ),
    )
    route_parser.add_argument(
        "--planning-qps",
        type=float,
        default=None,
        help=(
            "provision the static baseline for this load instead of the "
            "trace's median (must be positive)"
        ),
    )
    route_parser.add_argument(
        "--service-model",
        default="deterministic",
        help=(
            "per-query service-time model: 'deterministic' (every query "
            "costs the same) or 'cached' (Zipf-skewed lookups against the "
            "tiered cache/DRAM/SSD hierarchy); validated against "
            f"{sorted(SERVICE_MODELS)}"
        ),
    )
    route_parser.add_argument(
        "--mode",
        default="per-step",
        choices=("per-step", "per-query"),
        help=(
            "per-step: one decision per dwell step (the original router); "
            "per-query: the streaming frontend with admission control and "
            "dynamic batching over individually arriving queries"
        ),
    )
    route_parser.add_argument(
        "--window-seconds",
        type=float,
        default=None,
        help="per-query decision-window width (default: the trace's step width)",
    )
    route_parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help=(
            "upper clamp on the per-query frontend's dynamic batch size "
            f"(default {StreamingFrontend.max_batch}; conflicts with --no-batching)"
        ),
    )
    route_parser.add_argument(
        "--no-batching",
        action="store_true",
        help="pin every per-query batch to size 1",
    )
    route_parser.add_argument(
        "--defer-windows",
        type=float,
        default=StreamingFrontend.defer_windows,
        help=(
            "defer-queue capacity in multiples of one window's admission "
            "cap; 0 disables deferral (admit or shed only)"
        ),
    )
    route_parser.add_argument(
        "--arrival-process",
        default="poisson",
        choices=ARRIVAL_PROCESSES,
        help="arrival realization for per-query mode (poisson or deterministic paced)",
    )
    route_parser.add_argument("--seed", type=int, default=0, help="simulation + trace seed")
    route_parser.add_argument(
        "--output-dir", default="", help="write JSON/CSV artifacts and a manifest here"
    )
    route_parser.add_argument(
        "--events",
        default="",
        help="stream structured routing/admission events to this JSONL file",
    )
    route_parser.add_argument("--quiet", action="store_true", help="suppress the plain-text table")

    capacity_parser = sub.add_parser(
        "capacity",
        help="capacity-planning sweep over (node count x platform mix) fleets",
    )
    capacity_parser.add_argument(
        "--platforms",
        default=",".join(capacity_planning.PLATFORMS),
        help="comma-separated platforms a node may run",
    )
    capacity_parser.add_argument(
        "--max-nodes",
        type=int,
        default=capacity_planning.MAX_NODES,
        help="largest platform multiset the planner considers",
    )
    capacity_parser.add_argument(
        "--users",
        type=int,
        default=capacity_planning.USERS,
        help="served user base (peak load derives from it unless --peak-qps is set)",
    )
    capacity_parser.add_argument(
        "--peak-qps", type=float, default=None, help="diurnal peak load override"
    )
    capacity_parser.add_argument(
        "--base-qps", type=float, default=None, help="diurnal trough load override"
    )
    capacity_parser.add_argument(
        "--steps",
        type=int,
        default=capacity_planning.TRACE_STEPS,
        help="number of diurnal trace steps",
    )
    capacity_parser.add_argument(
        "--step-seconds",
        type=float,
        default=capacity_planning.STEP_SECONDS,
        help="width of one trace step",
    )
    capacity_parser.add_argument(
        "--noise",
        type=float,
        default=capacity_planning.TRACE_NOISE,
        help="relative per-step load noise",
    )
    capacity_parser.add_argument(
        "--sla-ms",
        type=float,
        default=capacity_planning.SLA_MS,
        help="tail-latency SLA in milliseconds",
    )
    capacity_parser.add_argument(
        "--strategy",
        default="tablewise",
        choices=("tablewise", "rowwise"),
        help="embedding sharding strategy (greedy bin-packing or row-wise hash)",
    )
    capacity_parser.add_argument(
        "--embedding-scale",
        type=float,
        default=capacity_planning.EMBEDDING_SCALE,
        help="embedding-tier scale-up over RMlarge's reference storage",
    )
    capacity_parser.add_argument(
        "--budget-gb",
        type=float,
        default=capacity_planning.BUDGET_GB,
        help="per-node embedding memory budget in GiB",
    )
    capacity_parser.add_argument(
        "--num-tables",
        type=int,
        default=capacity_planning.NUM_TABLES,
        help="logical embedding tables to shard",
    )
    capacity_parser.add_argument(
        "--num-queries",
        type=int,
        default=capacity_planning.NUM_QUERIES,
        help="simulated queries per dwell cell",
    )
    capacity_parser.add_argument(
        "--pool",
        type=int,
        default=capacity_planning.POOL,
        help="candidates per ranking query",
    )
    capacity_parser.add_argument("--seed", type=int, default=0, help="simulation + trace seed")
    capacity_parser.add_argument(
        "--output-dir", default="", help="write JSON/CSV artifacts and a manifest here"
    )
    capacity_parser.add_argument(
        "--quiet", action="store_true", help="suppress the plain-text tables"
    )

    report_parser = sub.add_parser(
        "report", help="re-render the tables of a previous --output-dir run"
    )
    report_parser.add_argument(
        "--output-dir", required=True, help="directory holding manifest.json"
    )

    compare_parser = sub.add_parser(
        "compare", help="diff two --output-dir runs into a markdown report"
    )
    compare_parser.add_argument("run_a", help="first run directory (holds manifest.json)")
    compare_parser.add_argument("run_b", help="second run directory (holds manifest.json)")
    compare_parser.add_argument(
        "--output", default="", help="write the markdown report here instead of stdout"
    )

    return parser


def _parse_csv(text: str) -> list[str] | None:
    items = [item.strip() for item in text.split(",") if item.strip()]
    return items or None


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(item) for item in _parse_csv(text) or ())
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(item) for item in _parse_csv(text) or ())
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


# --------------------------------------------------------------------------- #
# Scenario expansion and event capture (shared by list/run/route)
# --------------------------------------------------------------------------- #
def _registry_with_scenario(registry: ExperimentRegistry, scenario_path: str):
    """A merged copy of ``registry`` with a scenario file's cells registered.

    Returns ``(merged_registry, config)``; the input registry is untouched
    so one process can serve many invocations.  Scenario load/validation
    errors surface as ``ValueError`` (exit 2 via ``main``).
    """
    from repro.scenarios import load_scenario, register_scenario

    config = load_scenario(Path(scenario_path))
    merged = ExperimentRegistry()
    for spec in registry:
        merged.register(spec)
    register_scenario(merged, config)
    return merged, config


def _maybe_capture(events_path: str):
    """A ``capture`` context streaming to ``events_path``, or a no-op one."""
    from contextlib import nullcontext

    if not events_path:
        return nullcontext(None)
    from repro.core.events import EventLog, capture

    return capture(EventLog(path=Path(events_path)))


def _events_entry(events_path: str, log) -> dict | None:
    """The manifest's ``events`` record for a captured run (None when off)."""
    if log is None:
        return None
    return {"path": str(events_path), "num_events": len(log), "counts": log.counts()}


# --------------------------------------------------------------------------- #
# recpipe list
# --------------------------------------------------------------------------- #
def format_markdown_listing(specs) -> str:
    """The registry as a GitHub-flavoured markdown table (docs/experiments.md)."""
    lines = [
        "| id | title | paper ref | tags | module |",
        "| --- | --- | --- | --- | --- |",
    ]
    for spec in specs:
        lines.append(
            f"| `{spec.id}` | {spec.title} | {spec.paper_ref} | "
            f"`{','.join(spec.tags)}` | `{spec.module}` |"
        )
    return "\n".join(lines)


def cmd_list(args: argparse.Namespace, registry: ExperimentRegistry) -> int:
    if getattr(args, "scenario", ""):
        registry, _ = _registry_with_scenario(registry, args.scenario)
    specs = registry.select(tags=_parse_csv(args.tag))
    if getattr(args, "format", "table") == "markdown":
        print(format_markdown_listing(specs))
        return 0
    id_width = max((len(s.id) for s in specs), default=2)
    ref_width = max((len(s.paper_ref) for s in specs), default=3)
    tag_width = max((len(",".join(s.tags)) for s in specs), default=4)
    print(f"{'id'.ljust(id_width)}  {'ref'.ljust(ref_width)}  " f"{'tags'.ljust(tag_width)}  title")
    for spec in specs:
        print(
            f"{spec.id.ljust(id_width)}  {spec.paper_ref.ljust(ref_width)}  "
            f"{','.join(spec.tags).ljust(tag_width)}  {spec.title}"
        )
    print(f"\n{len(specs)} experiments; tags: {', '.join(registry.tags())}")
    return 0


# --------------------------------------------------------------------------- #
# recpipe run
# --------------------------------------------------------------------------- #
def _timed_execute(
    registry: ExperimentRegistry, exp_id: str, seed: int | None
) -> tuple[str, ExperimentResult, float]:
    spec = registry.get(exp_id)
    start = time.perf_counter()
    result = spec.execute(seed=seed)
    return exp_id, result, time.perf_counter() - start


def _execute_entry(exp_id: str, seed: int | None) -> tuple[str, ExperimentResult, float]:
    """Top-level worker so ``--jobs`` can dispatch it to other processes.

    Workers re-resolve from the process-wide default registry, so ids
    registered dynamically in the parent (``--scenario``) are serial-only.
    """
    return _timed_execute(default_registry(), exp_id, seed)


def run_experiments(
    registry: ExperimentRegistry,
    only: list[str] | None = None,
    tags: list[str] | None = None,
    jobs: int = 1,
    seed: int | None = None,
) -> list[tuple[str, ExperimentResult, float]]:
    """Run the selected experiments, optionally across ``jobs`` processes."""
    specs = registry.select(only=only, tags=tags)
    ids = [spec.id for spec in specs]
    if jobs <= 1 or len(ids) <= 1:
        return [_timed_execute(registry, exp_id, seed) for exp_id in ids]
    with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
        futures = {exp_id: pool.submit(_execute_entry, exp_id, seed) for exp_id in ids}
        return [futures[exp_id].result() for exp_id in ids]


def format_report(outputs: list[tuple[str, ExperimentResult, float]]) -> str:
    lines = ["RecPipe reproduction — regenerated tables and figures", ""]
    for name, result, elapsed in outputs:
        lines.append(f"[{name}] ({elapsed:.1f} s)")
        lines.append(result.format_table())
        lines.append("")
    return "\n".join(lines)


def _write_run_artifacts(
    output_dir: Path,
    registry: ExperimentRegistry,
    outputs: list[tuple[str, ExperimentResult, float]],
    config: dict,
    seed: int | None,
    resolved: dict | None = None,
    events: dict | None = None,
) -> Path:
    entries = []
    for exp_id, result, elapsed in outputs:
        meta = registry.get(exp_id).to_dict()
        entries.append(
            artifacts.write_experiment_artifacts(
                output_dir, meta, result, seed=seed, wall_clock_seconds=elapsed
            )
        )
    return artifacts.write_manifest(
        output_dir, "run", config, entries, seed=seed, resolved=resolved, events=events
    )


def cmd_run(args: argparse.Namespace, registry: ExperimentRegistry) -> int:
    only = _parse_csv(args.only)
    tags = _parse_csv(args.tag)
    scenario_config = None
    if args.scenario:
        if args.jobs > 1:
            raise ValueError(
                "--scenario registers its cells in this process only; "
                "worker processes cannot see them, so drop --jobs"
            )
        registry, scenario_config = _registry_with_scenario(registry, args.scenario)
    if args.events and args.jobs > 1:
        raise ValueError("--events captures in-process only; drop --jobs to use it")
    with _maybe_capture(args.events) as event_log:
        outputs = run_experiments(registry, only=only, tags=tags, jobs=args.jobs, seed=args.seed)
    if not args.quiet:
        print(format_report(outputs))
    if args.output_dir:
        config = {
            "only": only or [],
            "tag": tags or [],
            "jobs": args.jobs,
            "scenario": args.scenario,
            "experiments": [exp_id for exp_id, _, _ in outputs],
        }
        executed = {exp_id for exp_id, _, _ in outputs}
        cell_axes = {
            spec.id: dict(spec.metadata["axes"])
            for spec in registry
            if spec.id in executed and spec.metadata.get("axes")
        }
        resolved = {"experiments": sorted(executed)}
        if scenario_config is not None:
            resolved["scenario"] = scenario_config.name
        if cell_axes:
            resolved["cell_axes"] = cell_axes
        manifest = _write_run_artifacts(
            Path(args.output_dir),
            registry,
            outputs,
            config,
            args.seed,
            resolved=resolved,
            events=_events_entry(args.events, event_log),
        )
        print(f"wrote {len(outputs)} experiment artifact pairs + {manifest}")
    return 0


# --------------------------------------------------------------------------- #
# recpipe sweep
# --------------------------------------------------------------------------- #
def _default_pool(args: argparse.Namespace, criteo_pool: int) -> int:
    """``--pool``, or the dataset default (MovieLens catalogues are smaller)."""
    if args.pool is not None:
        return args.pool
    return criteo_pool if args.dataset == "criteo" else 1024


def _parse_platforms(text: str) -> tuple[str, ...]:
    """``--platform`` as a swept axis: a comma-separated list or ``all``."""
    from repro.core.sweep import PLATFORMS

    items = _parse_csv(text)
    if not items:
        raise ValueError("--platform needs at least one platform (or 'all')")
    if len(items) == 1 and items[0].lower() == "all":
        return PLATFORMS
    return tuple(items)


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweep import SweepConfig, run_sweep
    from repro.scenarios.runner import workload

    pool = _default_pool(args, criteo_pool=4096)
    evaluator, specs, num_tables = workload(args.dataset, pool)
    config = SweepConfig(
        platforms=_parse_platforms(args.platform),
        qps=_parse_floats(args.qps, "--qps"),
        sla_ms=args.sla_ms,
        quality_target=args.quality_target,
        first_stage_items=_parse_ints(args.first_stage_items, "--first-stage-items"),
        later_stage_items=_parse_ints(args.later_stage_items, "--later-stage-items"),
        max_stages=args.max_stages,
        serve_k=args.serve_k,
        num_queries=args.num_queries,
        seed=args.seed,
        num_tables=num_tables,
        engine=args.engine,
    )
    start = time.perf_counter()
    outcome = run_sweep(evaluator, specs, config, jobs=args.jobs)
    elapsed = time.perf_counter() - start

    rows = outcome.rows()
    result = ExperimentResult(name=f"sweep_{args.dataset}")
    for row in rows:
        result.add(**row)
    for line in outcome.summary_lines():
        result.note(line)

    frontier_result = ExperimentResult(name=f"sweep_{args.dataset}_frontier")
    for row in outcome.frontier_rows():
        frontier_result.add(**row)

    if not args.quiet:
        print(result.format_table())
        print()
        print(frontier_result.format_table())
    if args.output_dir:
        platforms_label = ",".join(config.platforms)
        meta = {
            "id": "sweep",
            "title": f"Design-space sweep ({args.dataset} on {platforms_label})",
            "paper_ref": "Figures 7/8/10/12 methodology",
            "tags": ["sweep", args.dataset, *config.platforms],
            "module": "repro.core.sweep",
        }
        per_platform = {}
        for platform in config.platforms:
            breakdown = ExperimentResult(name=f"sweep_{args.dataset}_{platform}")
            for row in outcome.platform_rows(platform, rows):
                breakdown.add(**row)
            per_platform[platform] = breakdown
        cli_config = {
            "dataset": args.dataset,
            "platforms": list(config.platforms),
            "baseline_platform": config.baseline_platform,
            "qps": list(config.qps),
            "sla_ms": config.sla_ms,
            "quality_target": config.quality_target,
            "first_stage_items": list(config.first_stage_items),
            "later_stage_items": list(config.later_stage_items),
            "max_stages": config.max_stages,
            "serve_k": config.serve_k,
            "num_tables": config.num_tables,
            "num_queries": config.num_queries,
            "pool": pool,
            "jobs": args.jobs,
            "engine": config.engine,
        }
        entries = artifacts.write_sweep_artifacts(
            Path(args.output_dir),
            meta,
            result,
            per_platform,
            frontier_result,
            seed=args.seed,
            wall_clock_seconds=elapsed,
        )
        resolved = {
            "engine": config.engine,
            "estimator": None,
            "service_model": "deterministic",
            "cluster": "single-node",
            "platforms": list(config.platforms),
        }
        manifest = artifacts.write_manifest(
            Path(args.output_dir), "sweep", cli_config, entries, seed=args.seed, resolved=resolved
        )
        print(f"wrote {len(entries)} sweep artifact pairs + {manifest}")
    return 0


# --------------------------------------------------------------------------- #
# recpipe route
# --------------------------------------------------------------------------- #
#: Cell parameters ``route`` records verbatim in its manifest config.
_ROUTE_CONFIG_KEYS = (
    "steps",
    "step_seconds",
    "base_qps",
    "peak_qps",
    "noise",
    "estimator",
    "window",
    "ewma_alpha",
    "hysteresis",
    "switch_penalty_ms",
    "switch_cost_ms",
    "planning_qps",
    "num_queries",
    "pool",
    "service_model",
    "mode",
    "window_seconds",
    "max_batch",
    "batching",
    "defer_windows",
    "arrival_process",
)


def _route_trace_names(text: str) -> tuple[str, ...]:
    """``--trace`` as a list of trace names (``all`` expands to every trace)."""
    from repro.serving.trace import TRACES

    names = _parse_csv(text)
    if not names:
        raise ValueError("--trace needs at least one trace name (or 'all')")
    if len(names) == 1 and names[0].lower() == "all":
        return tuple(TRACES)
    unknown = [name for name in names if name not in TRACES]
    if unknown:
        raise ValueError(f"unknown traces {unknown}; expected a subset of {sorted(TRACES)}")
    return tuple(names)


def cmd_route(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioConfig, run_cell
    from repro.serving.frontend import StreamingFrontend
    from repro.serving.service_times import SERVICE_MODELS

    # Validate the cheap-to-check knobs before the expensive table compile
    # so a typo fails in milliseconds, not minutes.
    if args.service_model not in SERVICE_MODELS:
        raise ValueError(
            f"unknown --service-model {args.service_model!r}; "
            f"expected one of {sorted(SERVICE_MODELS)}"
        )
    if args.window_seconds is not None and args.window_seconds <= 0:
        raise ValueError(f"--window-seconds must be positive, got {args.window_seconds}")
    if args.no_batching and args.max_batch is not None:
        raise ValueError(
            "--no-batching pins every batch to size 1 and conflicts with "
            "--max-batch; drop one of the two flags"
        )
    if args.max_batch is not None and args.max_batch < 1:
        raise ValueError(f"--max-batch must be >= 1, got {args.max_batch}")
    max_batch = StreamingFrontend.max_batch if args.max_batch is None else args.max_batch
    # A smaller default pool than sweep's: routing tables pair it with the
    # default 512-item first stage, like the `router` registry experiment.
    pool = _default_pool(args, criteo_pool=512)
    platforms = _parse_platforms(args.platform)
    qps_grid = _parse_floats(args.qps_grid, "--qps-grid")
    traces = _route_trace_names(args.trace)

    # The flags become one scenario cell; the runner is the same one the
    # registry's serving entries go through.
    config = ScenarioConfig(
        name="route",
        base={
            "dataset": args.dataset,
            "platforms": "+".join(platforms),
            "qps_grid": qps_grid,
            "sla_ms": args.sla_ms,
            "quality_target": args.quality_target,
            "first_stage_items": _parse_ints(args.first_stage_items, "--first-stage-items"),
            "later_stage_items": _parse_ints(args.later_stage_items, "--later-stage-items"),
            "max_stages": args.max_stages,
            "serve_k": args.serve_k,
            "num_queries": args.num_queries,
            "pool": pool,
            "trace": traces,
            "steps": args.steps,
            "step_seconds": args.step_seconds,
            "base_qps": args.base_qps,
            "peak_qps": args.peak_qps,
            "noise": args.noise,
            "estimator": args.estimator,
            "window": args.window,
            "ewma_alpha": args.ewma_alpha,
            "hysteresis": args.hysteresis,
            "switch_penalty_ms": args.switch_penalty_ms,
            "switch_cost_ms": args.switch_cost_ms,
            "planning_qps": args.planning_qps,
            "service_model": args.service_model,
            "mode": args.mode,
            "window_seconds": args.window_seconds,
            "max_batch": max_batch,
            "batching": not args.no_batching,
            "defer_windows": args.defer_windows,
            "arrival_process": args.arrival_process,
            "seed": args.seed,
        },
    )
    (cell,) = config.expand()
    steps_result = ExperimentResult(name=f"route_{args.dataset}_steps")
    start = time.perf_counter()
    with _maybe_capture(args.events) as event_log:
        result = run_cell(cell, log=steps_result)
    result.name = f"route_{args.dataset}"
    elapsed = time.perf_counter() - start

    if not args.quiet:
        print(result.format_table())
    if args.output_dir:
        meta = {
            "id": "route",
            "title": f"Online multi-path routing ({args.dataset} on {args.platform})",
            "paper_ref": "MP-Rec-style serving-time path selection",
            "tags": ["serving-online", args.dataset],
            "module": "repro.serving.router",
        }
        cli_config = {
            "dataset": args.dataset,
            "platforms": list(platforms),
            "qps_grid": list(qps_grid),
            "sla_ms": args.sla_ms,
            "quality_target": args.quality_target,
            "traces": list(traces),
            **{key: cell.params[key] for key in _ROUTE_CONFIG_KEYS},
        }
        entries = [
            artifacts.write_experiment_artifacts(
                Path(args.output_dir), meta, result, seed=args.seed, wall_clock_seconds=elapsed
            )
        ]
        steps_meta = dict(meta)
        steps_meta["id"] = "route_steps"
        steps_meta["title"] = (
            f"{meta['title']} — "
            + (
                "frontend per-window admission log"
                if args.mode == "per-query"
                else "online per-step decision log"
            )
        )
        entries.append(
            artifacts.write_experiment_artifacts(
                Path(args.output_dir), steps_meta, steps_result, seed=args.seed
            )
        )
        resolved = {
            "engine": "analytic",
            "estimator": args.estimator,
            "service_model": args.service_model,
            "cluster": "single-node",
            "platforms": list(platforms),
            "mode": args.mode,
        }
        manifest = artifacts.write_manifest(
            Path(args.output_dir),
            "route",
            cli_config,
            entries,
            seed=args.seed,
            resolved=resolved,
            events=_events_entry(args.events, event_log),
        )
        print(f"wrote {len(entries)} route artifact pairs + {manifest}")
    return 0


# --------------------------------------------------------------------------- #
# recpipe capacity
# --------------------------------------------------------------------------- #
def cmd_capacity(args: argparse.Namespace) -> int:
    from repro.experiments.capacity_planning import CapacityConfig, run_capacity

    platforms = _parse_csv(args.platforms)
    if not platforms:
        raise ValueError("--platforms needs at least one platform")
    config = CapacityConfig(
        platforms=tuple(platforms),
        max_nodes=args.max_nodes,
        users=args.users,
        peak_qps=args.peak_qps,
        base_qps=args.base_qps,
        steps=args.steps,
        step_seconds=args.step_seconds,
        noise=args.noise,
        sla_ms=args.sla_ms,
        strategy=args.strategy,
        embedding_scale=args.embedding_scale,
        num_tables=args.num_tables,
        budget_gb=args.budget_gb,
        num_queries=args.num_queries,
        pool=args.pool,
        seed=args.seed,
    )
    start = time.perf_counter()
    result, frontier = run_capacity(config)
    elapsed = time.perf_counter() - start

    if not args.quiet:
        print(result.format_table())
        print()
        print(frontier.format_table())
    if args.output_dir:
        meta = {
            "id": "capacity",
            "title": f"Fleet capacity planning ({','.join(platforms)}, <= {args.max_nodes} nodes)",
            "paper_ref": "Fleet-scale extension (scale-in / MicroRec)",
            "tags": ["cluster", "capacity", *platforms],
            "module": "repro.experiments.capacity_planning",
        }
        cli_config = {
            "platforms": list(platforms),
            "max_nodes": args.max_nodes,
            "users": args.users,
            "peak_qps": config.resolved_peak_qps,
            "base_qps": config.resolved_base_qps,
            "steps": args.steps,
            "step_seconds": args.step_seconds,
            "noise": args.noise,
            "sla_ms": args.sla_ms,
            "strategy": args.strategy,
            "embedding_scale": args.embedding_scale,
            "budget_gb": args.budget_gb,
            "num_tables": args.num_tables,
            "num_queries": args.num_queries,
            "pool": args.pool,
        }
        entries = [
            artifacts.write_experiment_artifacts(
                Path(args.output_dir), meta, result, seed=args.seed, wall_clock_seconds=elapsed
            )
        ]
        frontier_meta = dict(meta)
        frontier_meta["id"] = "capacity_frontier"
        frontier_meta["title"] = f"{meta['title']} — cost/QPS frontier"
        entries.append(
            artifacts.write_experiment_artifacts(
                Path(args.output_dir), frontier_meta, frontier, seed=args.seed
            )
        )
        resolved = {
            "engine": "analytic",
            "estimator": None,
            "service_model": "deterministic",
            "cluster": f"up to {args.max_nodes} nodes ({args.strategy} sharding)",
            "platforms": list(platforms),
        }
        manifest = artifacts.write_manifest(
            Path(args.output_dir),
            "capacity",
            cli_config,
            entries,
            seed=args.seed,
            resolved=resolved,
        )
        print(f"wrote {len(entries)} capacity artifact pairs + {manifest}")
    return 0


# --------------------------------------------------------------------------- #
# recpipe report
# --------------------------------------------------------------------------- #
def cmd_report(args: argparse.Namespace) -> int:
    output_dir = Path(args.output_dir)
    manifest = artifacts.load_manifest(output_dir)
    print(
        f"RecPipe '{manifest['command']}' artifacts — seed {manifest['seed']}, "
        f"{len(manifest['experiments'])} experiments"
    )
    print("")
    for entry in manifest["experiments"]:
        payload = artifacts.load_result_json(output_dir / entry["json"])
        result = artifacts.payload_to_result(payload)
        elapsed = entry.get("wall_clock_seconds")
        timing = f" ({elapsed:.1f} s)" if isinstance(elapsed, float) else ""
        print(f"[{entry['id']}] {entry.get('paper_ref', '')}{timing}")
        print(result.format_table())
        print("")
    return 0


# --------------------------------------------------------------------------- #
# recpipe compare
# --------------------------------------------------------------------------- #
def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.compare import compare_runs

    report = compare_runs(Path(args.run_a), Path(args.run_b))
    if args.output:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(report, encoding="utf-8")
        print(f"wrote {output}")
    else:
        print(report, end="")
    return 0


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    registry = default_registry()
    try:
        if args.command == "list":
            return cmd_list(args, registry)
        if args.command == "run":
            return cmd_run(args, registry)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "route":
            return cmd_route(args)
        if args.command == "capacity":
            return cmd_capacity(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "compare":
            return cmd_compare(args)
    except (UnknownExperimentError, UnknownTagError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"{PROG}: error: {message}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"{PROG}: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `recpipe report | head`
        devnull = open(os.devnull, "w")  # keep the fd alive past the flush at exit
        sys.stdout = devnull
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
