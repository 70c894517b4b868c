"""The four benchmark workloads: their ``recpipe`` invocations and output checks.

Each workload is one real ``recpipe`` invocation, run back to back.  Its
check reads the artifacts the invocation wrote (or public API) after the
timed call and returns the units of work done, a few simulated statistics
for the printed digest, and every violated invariant.  ``tiny`` shrinks an
invocation to smoke-test size; the checks are the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Registry entries the ``registry`` workload leaves out: ``bench-sim`` is a
#: benchmark itself and writes ``BENCH_simulator.json`` into the working
#: directory.
EXCLUDED_ENTRIES = ("bench-sim",)
#: Slack for float rates and shares that should lie in [0, 1].
RATE_SLACK = 1e-9
#: Engine agreement tolerance (seconds) between the analytic and event engines.
ENGINE_TOLERANCE = 1e-9
#: (platform, pipeline) columns of each sweep iteration re-simulated on the
#: event engine.
EVENT_COLUMNS = 2


@dataclass
class Outcome:
    """What one iteration's check found."""

    work: int = 0
    stats: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """A named ``recpipe`` invocation and the check of its artifacts.

    ``observe`` optionally names a function whose results are collected
    during the timed call (``(target, extract)``), for invariants that no
    artifact records.  ``min_iterations`` keeps a slow workload's median
    from resting on a single sample.
    """

    name: str
    why: str
    work_unit: str
    argv: Callable[[int, bool], list[str]]
    check: Callable[[dict, int, int, list], Outcome]
    observe: tuple[str, Callable] | None = None
    min_iterations: int = 1


# --------------------------------------------------------------------------- #
# Artifacts
# --------------------------------------------------------------------------- #
def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token} in artifact")


def load_artifacts(directory: Path) -> dict[str, dict]:
    """Parse every ``*.json`` artifact of a run, rejecting non-finite values.

    Raises ``ValueError`` when an artifact does not parse or the manifest
    names a file that is missing.
    """
    artifacts = {
        path.name: json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        for path in sorted(Path(directory).glob("*.json"))
    }
    manifest = artifacts.get("manifest.json")
    if manifest is None:
        raise ValueError("no manifest.json written")
    for entry in manifest["experiments"]:
        for kind in ("json", "csv"):
            if not (Path(directory) / entry[kind]).is_file():
                raise ValueError(f"manifest names missing artifact {entry[kind]}")
    return artifacts


def _without_timing(value):
    if isinstance(value, dict):
        return {k: _without_timing(v) for k, v in value.items() if k != "wall_clock_seconds"}
    if isinstance(value, list):
        return [_without_timing(v) for v in value]
    return value


def digest(artifacts: dict[str, dict]) -> str:
    """Return the SHA-256 of every artifact with wall-clock fields removed."""
    canonical = json.dumps(_without_timing(artifacts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _rows(artifacts: dict, name: str) -> list[dict]:
    return artifacts[name]["rows"]


def _monotone_frontier(rows: list[dict], key: Callable[[dict], object], label: str) -> list[str]:
    """Check that quality falls as p99 falls along each frontier group."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    problems = []
    for group, members in groups.items():
        members = sorted(members, key=lambda row: (row["p99_ms"], row["quality_ndcg"]))
        for low, high in zip(members, members[1:]):
            if high["quality_ndcg"] < low["quality_ndcg"]:
                problems.append(f"{label} {group}: quality falls as p99 rises")
                break
    return problems


# --------------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------------- #
SWEEP = "sweep --platform all --qps 250,500,1000,2000"
SWEEP_TINY = (
    "sweep --platform cpu,rpaccel --qps 100,1000 --first-stage-items 512 "
    "--later-stage-items 128 --max-stages 2 --num-queries 300 --pool 512"
)


def _sweep_argv(seed: int, tiny: bool) -> list[str]:
    return [*(SWEEP_TINY if tiny else SWEEP).split(), "--seed", str(seed)]


def _event_columns(artifacts: dict, rows: list[dict], sample: random.Random) -> list[str]:
    """Re-simulate sampled (platform, pipeline) columns on the event engine."""
    from repro.core.pipeline import enumerate_pipelines
    from repro.core.scheduler import RecPipeScheduler
    from repro.core.sweep import SweepConfig, column_seeds
    from repro.models.zoo import criteo_model_specs
    from repro.serving.simulator import SimulationConfig

    manifest = artifacts["manifest.json"]
    cfg = manifest["config"]
    config = SweepConfig(
        platforms=tuple(cfg["platforms"]),
        qps=tuple(cfg["qps"]),
        sla_ms=cfg["sla_ms"],
        quality_target=cfg["quality_target"],
        first_stage_items=tuple(cfg["first_stage_items"]),
        later_stage_items=tuple(cfg["later_stage_items"]),
        max_stages=cfg["max_stages"],
        serve_k=cfg["serve_k"],
        num_queries=cfg["num_queries"],
        seed=manifest["seed"],
        num_tables=cfg["num_tables"],
        engine="event",
    )
    pipelines = enumerate_pipelines(
        criteo_model_specs(),
        first_stage_items=config.first_stage_items,
        later_stage_items=config.later_stage_items,
        max_stages=config.max_stages,
        serve_k=config.serve_k,
    )
    seeds = column_seeds(config, pipelines)
    # Quality is passed in, so the scheduler never consults an evaluator.
    simulation = SimulationConfig.with_budget(config.num_queries, seed=config.seed, engine="event")
    scheduler = RecPipeScheduler(None, simulation=simulation, num_tables=config.num_tables)
    by_cell = {(row["platform"], row["pipeline"], row["qps"]): row for row in rows}
    columns = [(platform, pipeline) for platform in config.platforms for pipeline in pipelines]
    problems = []
    for platform, pipeline in sample.sample(columns, min(EVENT_COLUMNS, len(columns))):
        quality = by_cell[(platform, pipeline.name, config.qps[0])]["quality_ndcg"]
        seed = seeds[(platform, pipeline.name)]
        evaluated = scheduler.evaluate_grid(
            pipeline, platform, config.qps, quality=quality, seed=seed
        )
        for event in evaluated:
            row = by_cell[(platform, pipeline.name, event.offered_qps)]
            mismatch = event.saturated != row["saturated"]
            if not (mismatch or event.saturated):
                mismatch = abs(event.p99_latency - row["p99_ms"] / 1e3) > ENGINE_TOLERANCE
            if mismatch:
                cell = f"{platform}:{pipeline.name}@{event.offered_qps:g}"
                problems.append(f"event engine disagrees on {cell}")
    return problems


def _check_sweep(artifacts: dict, seed: int, iteration: int, observed: list) -> Outcome:
    rows = _rows(artifacts, "sweep.json")
    frontier = _rows(artifacts, "sweep_frontier.json")
    outcome = Outcome(work=len(rows))
    for row in rows:
        if row["saturated"]:
            continue
        p99 = row["p99_ms"]
        if not isinstance(p99, (int, float)) or not math.isfinite(p99):
            outcome.problems.append(f"non-finite p99 on live cell {row['pipeline']}")
        elif p99 < row["unloaded_ms"] * (1 - RATE_SLACK):
            outcome.problems.append(f"p99 below unloaded latency on {row['pipeline']}")
    outcome.problems += _monotone_frontier(frontier, lambda row: row["qps"], "frontier at qps")
    outcome.problems += _monotone_frontier(
        [row for row in rows if row["on_frontier"]],
        lambda row: (row["platform"], row["qps"]),
        "platform frontier",
    )
    outcome.problems += _event_columns(artifacts, rows, random.Random(f"{seed}:{iteration}"))
    outcome.stats = {
        "cells": len(rows),
        "saturated": sum(row["saturated"] for row in rows),
        "meets_sla": sum(row["meets_sla"] for row in rows),
        "frontier": len(frontier),
    }
    return outcome


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #
SERVE = "route --mode per-query --trace diurnal,spike --service-model cached"
SERVE_TINY = "--steps 40 --num-queries 200 --pool 256 --qps-grid 100,1000,2500,4000,5500,6000"


def _serve_argv(seed: int, tiny: bool) -> list[str]:
    return [*SERVE.split(), *(SERVE_TINY.split() if tiny else ()), "--seed", str(seed)]


def _conservation(trace: str, windows: list[dict], frontend: dict) -> list[str]:
    """Check the per-window admission log against the frontend's summary rates.

    Every offered query is served once (promptly or after deferral) or shed;
    queries still deferred when the stream ends count as shed.
    """
    backlog = 0
    for window in windows:
        fresh = window["arrivals"] - window["deferred"] - window["shed"]
        drained = window["admitted"] - fresh
        if fresh < 0 or not 0 <= drained <= backlog:
            return [f"{trace}: window {window['window']} admits queries it never received"]
        backlog += window["deferred"] - drained
    offered = sum(window["arrivals"] for window in windows)
    shed = sum(window["shed"] for window in windows) + backlog
    deferred_served = sum(window["deferred"] for window in windows) - backlog
    problems = []
    if round(frontend["shed_rate"] * offered) != shed:
        problems.append(f"{trace}: shed rate disagrees with the admission log")
    if round(frontend["defer_rate"] * offered) != deferred_served:
        problems.append(f"{trace}: defer rate disagrees with the admission log")
    return problems


def _check_serve(artifacts: dict, seed: int, iteration: int, observed: list) -> Outcome:
    rows = _rows(artifacts, "route.json")
    steps = _rows(artifacts, "route_steps.json")
    outcome = Outcome(work=sum(window["arrivals"] for window in steps))
    for row in rows:
        for key in ("sla_violation_rate", "shed_rate", "defer_rate", "dominant_share"):
            value = row.get(key)
            if isinstance(value, (int, float)) and not -RATE_SLACK <= value <= 1 + RATE_SLACK:
                where = f"{row['trace']}/{row['policy']}"
                outcome.problems.append(f"{where}: {key} {value} outside [0, 1]")
    for row in rows:
        if row["policy"] == "frontend":
            windows = [window for window in steps if window["trace"] == row["trace"]]
            outcome.problems += _conservation(row["trace"], windows, row)
            outcome.stats[row["trace"]] = {
                "violation": round(row["sla_violation_rate"], 6),
                "shed": round(row["shed_rate"], 6),
                "defer": round(row["defer_rate"], 6),
            }
        elif row["policy"] == "static":
            outcome.stats[f"{row['trace']}_static_violation"] = round(row["sla_violation_rate"], 6)
    if not any(row["policy"] == "frontend" for row in rows):
        outcome.problems.append("no frontend policy row")
    return outcome


# --------------------------------------------------------------------------- #
# fleet
# --------------------------------------------------------------------------- #
FLEET = "capacity --max-nodes 8 --strategy rowwise"
FLEET_TINY = (
    "capacity --platforms cpu,rpaccel --max-nodes 2 --users 300000 --steps 16 "
    "--num-queries 200 --strategy rowwise"
)


def _fleet_argv(seed: int, tiny: bool) -> list[str]:
    return [*(FLEET_TINY if tiny else FLEET).split(), "--seed", str(seed)]


def _check_fleet(artifacts: dict, seed: int, iteration: int, observed: list) -> Outcome:
    rows = _rows(artifacts, "capacity.json")
    frontier = _rows(artifacts, "capacity_frontier.json")
    outcome = Outcome(work=len(rows))
    if not observed:
        outcome.problems.append("no ClusterTable was composed")
    for weights in observed:
        if (weights <= 0).any() or abs(weights.sum(axis=1) - 1.0).max() > RATE_SLACK:
            outcome.problems.append("ClusterTable node weights do not sum to 1")
            break
    if not frontier:
        outcome.problems.append("empty capacity frontier")
    for low, high in zip(frontier, frontier[1:]):
        if not (low["cost_usd"] <= high["cost_usd"] and low["sla_qps"] < high["sla_qps"]):
            outcome.problems.append(f"frontier not cost-sorted, sla_qps rising at {high['mix']}")
            break
    notes = artifacts["capacity.json"]["notes"]
    winners = [note.split(" routed")[0] for note in notes if note.startswith("winner ")]
    if not winners:
        outcome.problems.append("no winning mix reported")
    outcome.stats = {
        "mixes": len(rows),
        "frontier": [row["mix"] for row in frontier],
        "winner": winners[0] if winners else None,
    }
    return outcome


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
REGISTRY_TINY = ("fig01", "fig05", "fig11")


def _registry_argv(seed: int, tiny: bool) -> list[str]:
    from repro.experiments.registry import default_registry

    ids = [spec.id for spec in default_registry() if spec.id not in EXCLUDED_ENTRIES]
    return ["run", "--only", ",".join(REGISTRY_TINY if tiny else ids), "--seed", str(seed)]


def _check_registry(artifacts: dict, seed: int, iteration: int, observed: list) -> Outcome:
    entries = artifacts["manifest.json"]["experiments"]
    rows = sum(entry["num_rows"] for entry in entries)
    return Outcome(work=len(entries), stats={"entries": len(entries), "rows": rows})


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "sweep",
            "Quality funnel, plan build, the kernel's scalar-service path, latency "
            "reporting and Pareto cross-sections dominate; router, frontend and cluster idle.",
            "cells",
            _sweep_argv,
            _check_sweep,
        ),
        Workload(
            "serve",
            "Per-query stream, frontend schedule/serve, router decide, dwell cells and "
            "sampled service times; the kernel runs its array-service path.",
            "routed_queries",
            _serve_argv,
            _check_serve,
            min_iterations=5,
        ),
        Workload(
            "fleet",
            "Sharding, gather pricing, ClusterTable composition and the p99-profile SLA "
            "scan; the only workload where the cluster layer is a real share.",
            "mixes",
            _fleet_argv,
            _check_fleet,
            observe=(
                "repro.cluster.fleet:build_cluster_table",
                lambda table: table.node_weights.copy(),
            ),
        ),
        Workload(
            "registry",
            "Full recpipe run minus bench-sim: tab01 training and the experiment "
            "harnesses, with the engine used one load per call.",
            "entries",
            _registry_argv,
            _check_registry,
            min_iterations=2,
        ),
    )
}
