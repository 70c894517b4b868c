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
``--jobs``).  ``sweep``, ``route`` and ``capacity`` each translate their
flags into a one-cell scenario (:mod:`repro.scenarios`) of their kind and
run it through the same runner as the registry's entries: ``sweep`` is the
:mod:`repro.core.sweep` design-space exploration with user-supplied loads
and latency targets instead of the paper's presets; ``route`` compiles a
:class:`~repro.serving.router.PathTable` and replays time-varying load
traces under static / oracle / online path selection
(:mod:`repro.serving.router`) — or, with ``--mode per-query``, under the
streaming frontend's per-query admission control and dynamic batching
(:mod:`repro.serving.frontend`); ``capacity`` sweeps every
(node count × platform mix) fleet of the cluster layer
(:mod:`repro.cluster`) and emits the cost/QPS frontier of the mixes that
serve a diurnal trace within the p99 SLA.  With ``--output-dir`` all of them
write per-experiment JSON + CSV artifacts and a ``manifest.json`` (config,
seed, resolved knobs, wall-clock per experiment), which ``report`` reads
back and ``compare`` diffs pairwise into a markdown report.  ``run
--scenario FILE`` expands a declarative scenario config into registered
runs for the invocation, and ``--events FILE`` streams structured run
events (route decisions, admission windows, shard gathers, sweep columns)
to JSONL.  ``list --format
markdown`` emits the registry table embedded in ``docs/experiments.md``
(checked by CI).  Every knob flag is declared once in
:mod:`repro.scenarios.knobs` and typed and range-checked before any work
runs; a malformed value exits 2 with a message naming the flag.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from repro.data.criteo import CANDIDATES_PER_QUERY, ROUTING_CANDIDATES_PER_QUERY
from repro.events import EventLog, capture
from repro.experiments import artifacts
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import (
    ExperimentRegistry,
    UnknownExperimentError,
    UnknownTagError,
    default_registry,
    register_scenario,
)
from repro.scenarios import ScenarioConfig, knobs, load_scenario, run_cell
from repro.scenarios.config import validate_fleet_tables
from repro.scenarios.runner import cell_config, default_pool

PROG = "recpipe"


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def _add_output_flags(parser: argparse.ArgumentParser, events: str = "") -> None:
    """``--output-dir``, optionally ``--events`` (with this help), and ``--quiet``."""
    parser.add_argument(
        "--output-dir", default="", help="write JSON/CSV artifacts and a manifest here"
    )
    if events:
        parser.add_argument("--events", default="", help=events)
    parser.add_argument("--quiet", action="store_true", help="suppress the plain-text tables")


def build_parser() -> argparse.ArgumentParser:
    # Every knob flag comes from the knob table (repro.scenarios.knobs), so
    # the CLI, the scenario files and the library defaults cannot drift apart.
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
    knobs.add_flags(run_parser, "run")
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
    knobs.add_flags(sweep_parser, "sweep")
    _add_output_flags(sweep_parser)

    route_parser = sub.add_parser(
        "route", help="online multi-path routing over time-varying load traces"
    )
    knobs.add_flags(route_parser, "route")
    _add_output_flags(
        route_parser, events="stream structured routing/admission events to this JSONL file"
    )

    capacity_parser = sub.add_parser(
        "capacity",
        help="capacity-planning sweep over (node count x platform mix) fleets",
    )
    knobs.add_flags(capacity_parser, "capacity")
    _add_output_flags(capacity_parser)

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
    return knobs.csv_items(text) or None


def _config_record(values, omit: tuple[str, ...] = (), **resolved) -> dict:
    """A manifest ``config`` record: the command's knobs, then what it resolved.

    The seed is left out (the manifest records it beside the config), as is
    every knob in ``omit``; ``resolved`` adds or replaces values the command
    derived.
    """
    record = {
        name: value for name, value in vars(values).items() if name != "seed" and name not in omit
    }
    return {**record, **resolved}


# --------------------------------------------------------------------------- #
# Scenario expansion and event capture (shared by list/run/route)
# --------------------------------------------------------------------------- #
def _registry_with_scenario(
    registry: ExperimentRegistry, config: ScenarioConfig
) -> ExperimentRegistry:
    """A merged copy of ``registry`` with a scenario's cells registered.

    The input registry is untouched so one process can serve many
    invocations.
    """
    merged = ExperimentRegistry()
    for spec in registry:
        merged.register(spec)
    register_scenario(merged, config)
    return merged


def _maybe_capture(events_path: str):
    """A ``capture`` context streaming to ``events_path``, or a no-op one."""
    if not events_path:
        return nullcontext(None)
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
        registry = _registry_with_scenario(registry, load_scenario(args.scenario))
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


def _execute_entry(
    exp_id: str, seed: int | None, scenario: ScenarioConfig | None = None
) -> tuple[str, ExperimentResult, float]:
    """Top-level worker so ``--jobs`` can dispatch it to other processes.

    Workers resolve ``exp_id`` from the process-wide default registry, with
    the cells of the invocation's ``--scenario`` registered on top.
    """
    registry = default_registry()
    if scenario is not None:
        registry = _registry_with_scenario(registry, scenario)
    return _timed_execute(registry, exp_id, seed)


def run_experiments(
    registry: ExperimentRegistry,
    only: list[str] | None = None,
    tags: list[str] | None = None,
    jobs: int = 1,
    seed: int | None = None,
    scenario: ScenarioConfig | None = None,
) -> list[tuple[str, ExperimentResult, float]]:
    """Run the selected experiments, optionally across ``jobs`` processes.

    ``scenario`` is the invocation's scenario, already registered in
    ``registry``; worker processes register its cells again.
    """
    specs = registry.select(only=only, tags=tags)
    ids = [spec.id for spec in specs]
    if jobs <= 1 or len(ids) <= 1:
        return [_timed_execute(registry, exp_id, seed) for exp_id in ids]
    with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
        futures = {exp_id: pool.submit(_execute_entry, exp_id, seed, scenario) for exp_id in ids}
        return [futures[exp_id].result() for exp_id in ids]


def format_report(outputs: list[tuple[str, ExperimentResult, float]]) -> str:
    lines = ["RecPipe reproduction — regenerated tables and figures", ""]
    for name, result, elapsed in outputs:
        lines.append(f"[{name}] ({elapsed:.1f} s)")
        lines.append(result.format_table())
        lines.append("")
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace, registry: ExperimentRegistry) -> int:
    values = knobs.from_args("run", args)
    only = _parse_csv(args.only)
    tags = _parse_csv(args.tag)
    scenario = load_scenario(args.scenario) if args.scenario else None
    if scenario is not None:
        registry = _registry_with_scenario(registry, scenario)
    if args.events and values.jobs > 1:
        raise ValueError("--events captures in-process only; drop --jobs to use it")
    with _maybe_capture(args.events) as event_log:
        outputs = run_experiments(registry, only, tags, values.jobs, values.seed, scenario)
    if not args.quiet:
        print(format_report(outputs))
    if args.output_dir:
        config = {
            "only": only or [],
            "tag": tags or [],
            "jobs": values.jobs,
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
        if scenario is not None:
            resolved["scenario"] = scenario.name
        if cell_axes:
            resolved["cell_axes"] = cell_axes
        output_dir, seed = Path(args.output_dir), values.seed
        entries = [
            artifacts.write_experiment_artifacts(
                output_dir, registry.get(exp_id).to_dict(), result, seed, elapsed
            )
            for exp_id, result, elapsed in outputs
        ]
        events = _events_entry(args.events, event_log)
        manifest = artifacts.write_manifest(
            output_dir, "run", config, entries, seed, resolved, events
        )
        print(f"wrote {len(outputs)} experiment artifact pairs + {manifest}")
    return 0


# --------------------------------------------------------------------------- #
# recpipe sweep / route / capacity
# --------------------------------------------------------------------------- #
#: The scenario kind each one-cell command runs.
CELL_KINDS = {"sweep": "sweep", "route": "serving", "capacity": "capacity"}


def _cell_records(command: str, args, values, cell) -> tuple[dict, dict, dict, dict]:
    """What a one-cell command writes besides its tables.

    Returns the artifact ``meta``, what each companion table shows (by
    suffix), the manifest's ``resolved`` record and its ``config`` record.
    """
    platforms, cluster = values.platforms, "single-node"
    if command == "sweep":
        config = cell_config(cell)
        platforms = config.platforms
        meta = {
            "id": "sweep",
            "title": f"Design-space sweep ({values.dataset} on {','.join(platforms)})",
            "paper_ref": "Figures 7/8/10/12 methodology",
            "tags": ["sweep", values.dataset, *platforms],
            "module": "repro.core.sweep",
        }
        shows = {platform: f"{platform} breakdown" for platform in platforms}
        shows["frontier"] = "combined cross-platform frontier"
        record = _config_record(
            values,
            # SweepConfig drops repeated platforms and loads.
            platforms=platforms,
            qps=config.qps,
            baseline_platform=config.baseline_platform,
            num_tables=config.num_tables,
        )
    elif command == "route":
        meta = {
            "id": "route",
            "title": f"Online multi-path routing ({values.dataset} on {args.platform})",
            "paper_ref": "MP-Rec-style serving-time path selection",
            "tags": ["serving-online", values.dataset],
            "module": "repro.serving.router",
        }
        per_query = values.mode == "per-query"
        log = "frontend per-window admission log" if per_query else "online per-step decision log"
        shows = {"steps": log}
        # The route manifest records its traces as `traces` and leaves the
        # item ladders out.
        record = _config_record(
            values,
            omit=("trace", "first_stage_items", "later_stage_items", "max_stages", "serve_k"),
            traces=values.trace,
        )
    else:
        config = cell_config(cell)
        cluster = f"up to {values.max_nodes} nodes ({values.strategy} sharding)"
        meta = {
            "id": "capacity",
            "title": (
                f"Fleet capacity planning ({','.join(platforms)}, <= {values.max_nodes} nodes)"
            ),
            "paper_ref": "Fleet-scale extension (scale-in / MicroRec)",
            "tags": ["cluster", "capacity", *platforms],
            "module": "repro.experiments.capacity_planning",
        }
        shows = {"frontier": "cost/QPS frontier"}
        record = _config_record(
            values, peak_qps=config.resolved_peak_qps, base_qps=config.resolved_base_qps
        )
    # What the run used: the command's knob, or what the command fixes.
    resolved = {
        "engine": getattr(values, "engine", "analytic"),
        "estimator": getattr(values, "estimator", None),
        "service_model": getattr(values, "service_model", "deterministic"),
        "cluster": cluster,
        "platforms": list(platforms),
    }
    if command == "route":
        resolved["mode"] = values.mode
    return meta, shows, resolved, record


def cmd_cell(args: argparse.Namespace) -> int:
    """``recpipe sweep``, ``route`` and ``capacity``: the flags as a one-cell scenario.

    The cell runs through the same runner as the registry's entries; the
    command writes its result plus the cell's companion tables.
    """
    command = args.command
    # Every knob is checked before the expensive work, so a typo fails in
    # milliseconds, not minutes.
    values = knobs.from_args(command, args)
    if command == "route":
        if not values.batching and values.max_batch is not None:
            raise ValueError(
                "--no-batching pins every batch to size 1 and conflicts with "
                "--max-batch; drop one of the two flags"
            )
        if values.max_batch is None:
            values.max_batch = knobs.KNOBS["max_batch"].default
    if command == "capacity":
        validate_fleet_tables(vars(values), label="--embedding-scale")
    else:
        # Route's default pool is smaller than sweep's: routing tables pair
        # it with a first stage that ranks it whole, like the `router` entry.
        criteo_pool = ROUTING_CANDIDATES_PER_QUERY if command == "route" else CANDIDATES_PER_QUERY
        values.pool = default_pool(values.dataset, values.pool, criteo_pool)
    base = {**vars(values), "platforms": "+".join(values.platforms)}
    (cell,) = ScenarioConfig(name=command, kind=CELL_KINDS[command], base=base).expand()
    events_path = getattr(args, "events", "")
    companions: dict = {}
    start = time.perf_counter()
    with _maybe_capture(events_path) as event_log:
        result = run_cell(cell, companions=companions)
    elapsed = time.perf_counter() - start
    if command != "capacity":
        result.name = f"{command}_{values.dataset}"
        for suffix, table in companions.items():
            table.name = f"{result.name}_{suffix}"

    if not args.quiet:
        print(result.format_table())
        if "frontier" in companions:
            print()
            print(companions["frontier"].format_table())
    if args.output_dir:
        output_dir = Path(args.output_dir)
        meta, shows, resolved, record = _cell_records(command, args, values, cell)
        tables = {suffix: (shows[suffix], table) for suffix, table in companions.items()}
        entries = artifacts.write_sweep_artifacts(
            output_dir, meta, result, tables, seed=values.seed, wall_clock_seconds=elapsed
        )
        events = _events_entry(events_path, event_log)
        manifest = artifacts.write_manifest(
            output_dir, command, record, entries, values.seed, resolved, events
        )
        print(f"wrote {len(entries)} {command} artifact pairs + {manifest}")
    return 0


# --------------------------------------------------------------------------- #
# recpipe report
# --------------------------------------------------------------------------- #
def cmd_report(args: argparse.Namespace) -> int:
    output_dir = Path(args.output_dir)
    manifest = artifacts.load_manifest(output_dir)
    print(
        f"RecPipe '{manifest['command']}' artifacts — seed {manifest.get('seed')}, "
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
        if args.command in CELL_KINDS:
            return cmd_cell(args)
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
