"""Capacity planning: the cheapest fleet that serves a million users in SLA.

The cluster layer (:mod:`repro.cluster`) makes node count and platform mix
a swept axis.  This harness asks the question a capacity planner asks:
over every platform multiset of at most ``max_nodes`` nodes, which fleet

* fits the sharded embedding tables in its nodes' memory budgets,
* serves the diurnal million-user trace's peak load within the p99 SLA,
* and costs the least (nodes priced from die area + power via
  :func:`repro.cluster.fleet.node_cost_usd`)?

Every mix becomes one row: cost, aggregate capacity, maximum SLA-feasible
load (scanned on the composed :class:`~repro.cluster.fleet.ClusterTable`),
worst-node gather latency, and a fixed half-capacity p99 probe that makes
sharding's gather tax directly comparable across fleet sizes.  The
``(cost, sla_qps)`` Pareto frontier — the cost/QPS frontier artifact — is
emitted alongside, and the cheapest serving mix is routed end-to-end over
the trace (static + oracle policies on the cluster table) to confirm the
planner's pick actually serves.

The headline claim: the diurnal peak exceeds every single node's
SLA-feasible load, so the cheapest serving fleet is a *multi-node* mix —
capacity must come from scale-out, and the planner finds the cheapest way
to buy it.

:func:`run_capacity` is what a ``capacity`` scenario cell runs
(:func:`repro.scenarios.runner.run_cell` builds its diurnal trace); fleets
come from :func:`repro.cluster.fleet.compose_fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from repro.cluster.fleet import (
    ITEMS_PER_QUERY,
    STRATEGIES,
    ClusterTable,
    compose_fleet,
    fleet_nodes,
    fleet_tables,
    mix_label,
)
from repro.cluster.sharding import ShardingError
from repro.core.pareto import pareto_frontier
from repro.core.pipeline import PipelineConfig, enumerate_pipelines
from repro.core.scheduler import RecPipeScheduler
from repro.core.sweep import SLA_MS
from repro.data.criteo import NUM_TABLES, ROUTING_CANDIDATES_PER_QUERY
from repro.experiments.common import ExperimentResult, criteo_quality_evaluator, make_scheduler
from repro.models.cost import GiB
from repro.models.zoo import criteo_model_specs
from repro.serving.router import PathTable, route_oracle, route_static
from repro.serving.trace import LoadTrace

#: Size of the served user base; peak load derives from it.
USERS = 1_000_000
#: Peak offered load per user (diurnal maximum), in QPS.
PEAK_QPS_PER_USER = 0.025
#: Trough-to-peak ratio of the diurnal cycle.
BASE_FRACTION = 0.1
#: Platforms a node may run.
PLATFORMS = ("cpu", "baseline-accel", "rpaccel")
#: Largest fleet the planner considers.
MAX_NODES = 4
#: Embedding-tier scale-up over RMlarge's reference storage (fleet tables).
EMBEDDING_SCALE = 3.0
#: Per-node embedding memory budget in GiB.
BUDGET_GB = 32.0
#: Engine budget per dwell simulation.
NUM_QUERIES = 600
#: Diurnal trace shape (one day at 15-minute steps).
TRACE_STEPS = 96
STEP_SECONDS = 900.0
TRACE_NOISE = 0.03
#: Fractions of a table's top capacity swept into its p99 grid.
GRID_FRACTIONS = (0.05, 0.15, 0.3, 0.45, 0.6, 0.72, 0.82, 0.9, 0.96, 1.02)
#: Resolution of the SLA-feasible-load scan over a cluster's profile.
SLA_SCAN_POINTS = 400
#: Load fraction of the fixed sharding-tax probe (p99 at half capacity).
PROBE_FRACTION = 0.5


@dataclass(frozen=True)
class CapacityConfig:
    """Knobs of one capacity-planning sweep (CLI flags mirror these).

    Parameters
    ----------
    platforms : tuple[str, ...]
        Platforms a node may run.
    max_nodes : int
        Largest platform multiset considered.
    users : int
        Served user base; the default peak load is
        ``users * PEAK_QPS_PER_USER``.
    peak_qps : float or None
        Diurnal peak load override (``None``: derive from ``users``).
    base_qps : float or None
        Diurnal trough override (``None``: ``BASE_FRACTION`` of peak).
    steps : int
        Trace steps.
    step_seconds : float
        Trace step duration.
    noise : float
        Multiplicative trace noise.
    sla_ms : float
        Tail-latency SLA in milliseconds.
    strategy : str
        Sharding strategy: ``tablewise`` or ``rowwise``.
    embedding_scale : float
        Embedding-tier scale-up over RMlarge's reference storage.
    num_tables : int
        Logical embedding tables to shard.
    budget_gb : float
        Per-node embedding memory budget in GiB.
    num_queries : int
        Engine budget per dwell simulation.
    pool : int
        Candidate-pool size of the workload.
    seed : int
        Root seed (engine draws and trace noise).
    """

    platforms: tuple[str, ...] = PLATFORMS
    max_nodes: int = MAX_NODES
    users: int = USERS
    peak_qps: float | None = None
    base_qps: float | None = None
    steps: int = TRACE_STEPS
    step_seconds: float = STEP_SECONDS
    noise: float = TRACE_NOISE
    sla_ms: float = SLA_MS
    strategy: str = "tablewise"
    embedding_scale: float = EMBEDDING_SCALE
    num_tables: int = NUM_TABLES
    budget_gb: float = BUDGET_GB
    num_queries: int = NUM_QUERIES
    pool: int = ROUTING_CANDIDATES_PER_QUERY
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the sweep knobs."""
        if not self.platforms:
            raise ValueError("at least one platform is required")
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown sharding strategy {self.strategy!r}")

    @property
    def resolved_peak_qps(self) -> float:
        """The diurnal peak load the fleet must survive."""
        return float(self.peak_qps) if self.peak_qps is not None else self.users * PEAK_QPS_PER_USER

    @property
    def resolved_base_qps(self) -> float:
        """The diurnal trough load."""
        if self.base_qps is not None:
            return float(self.base_qps)
        return self.resolved_peak_qps * BASE_FRACTION


def budget_bytes(budget_gb: float) -> int:
    """A per-node embedding budget given in GiB, in bytes."""
    return int(budget_gb * GiB)


def build_pipelines(pool: int = ROUTING_CANDIDATES_PER_QUERY) -> list[PipelineConfig]:
    """The two candidate funnels every node compiles (fast + high-quality)."""
    wanted = {
        f"RMsmall@{pool} -> RMlarge@128",
        f"RMsmall@{pool} -> RMlarge@{ITEMS_PER_QUERY}",
    }
    pipelines = [
        p
        for p in enumerate_pipelines(
            criteo_model_specs(),
            first_stage_items=(pool,),
            later_stage_items=(128, ITEMS_PER_QUERY),
            max_stages=2,
        )
        if p.name in wanted
    ]
    if len(pipelines) != len(wanted):
        raise ValueError(f"expected funnels {sorted(wanted)} in the enumerated space")
    return pipelines


def node_qps_grid(
    scheduler: RecPipeScheduler, pipelines: list[PipelineConfig], platform: str
) -> tuple[float, ...]:
    """A platform's swept node loads: fixed fractions of its top capacity."""
    top = max(scheduler.plan_for(p, platform).throughput_capacity() for p in pipelines)
    return tuple(round(fraction * top, 1) for fraction in GRID_FRACTIONS)


def compile_platform_tables(
    config: CapacityConfig, scheduler: RecPipeScheduler, pipelines: list[PipelineConfig]
) -> dict[str, PathTable]:
    """One single-node :class:`PathTable` per platform, compiled once."""
    return {
        platform: PathTable.compile(
            scheduler,
            pipelines,
            [platform],
            node_qps_grid(scheduler, pipelines, platform),
            sla_ms=config.sla_ms,
            seed=config.seed,
        )
        for platform in config.platforms
    }


def sla_feasible_qps(table: ClusterTable, sla_seconds: float) -> float:
    """The largest scanned load at which some path's p99 meets the SLA."""
    top = max(path.capacity_qps for path in table.paths)
    loads = np.linspace(top / SLA_SCAN_POINTS, top * 1.05, SLA_SCAN_POINTS)
    feasible = np.zeros(loads.shape, dtype=bool)
    for index in range(len(table.paths)):
        feasible |= table.p99_profile(index, loads) <= sla_seconds
    return float(loads[feasible].max()) if feasible.any() else 0.0


def probe_p99_seconds(table: ClusterTable) -> float:
    """The fixed sharding-tax probe: path-0 p99 at half aggregate capacity.

    Per-node load at the probe is the same ``PROBE_FRACTION`` of each
    node's capacity regardless of fleet size, so the only difference
    between a homogeneous N-node fleet and its single node is the gather
    latency — the quantity the CI smoke asserts is non-negative.
    """
    return float(table.p99_profile(0, PROBE_FRACTION * table.paths[0].capacity_qps))


def run_capacity(
    config: CapacityConfig, trace: LoadTrace
) -> tuple[ExperimentResult, ExperimentResult]:
    """Sweep every platform mix and emit the mix table + cost/QPS frontier.

    Parameters
    ----------
    config : CapacityConfig
        The sweep's knobs.
    trace : LoadTrace
        The diurnal trace the winning fleet must serve.

    Returns
    -------
    tuple[ExperimentResult, ExperimentResult]
        The per-mix capacity table (every platform multiset up to
        ``max_nodes``, frontier membership flagged) and the cost/QPS
        frontier rows alone.
    """
    scheduler = make_scheduler(
        criteo_quality_evaluator(config.pool), num_queries=config.num_queries, seed=config.seed
    )
    pipelines = build_pipelines(config.pool)
    platform_tables = compile_platform_tables(config, scheduler, pipelines)
    tables = fleet_tables(config.num_tables, config.embedding_scale)
    peak_offered = float(np.max(trace.qps))
    sla_seconds = config.sla_ms / 1e3

    result = ExperimentResult(name="capacity")
    clusters: dict[str, ClusterTable] = {}
    # Every node gets the same budget, so the mixes of one fleet size share
    # a budget vector: the composer shards once per vector and reuses the
    # plan, or the infeasibility, for every mix.
    placements: dict = {}
    for size in range(1, config.max_nodes + 1):
        for mix in combinations_with_replacement(config.platforms, size):
            nodes = fleet_nodes(mix, budget_bytes(config.budget_gb))
            label = mix_label(nodes)
            row = {
                "mix": label,
                "num_nodes": size,
                "cost_usd": round(sum(node.cost_usd for node in nodes), 2),
                "strategy": config.strategy,
                "table_gb": round(sum(t.total_bytes for t in tables) / GiB, 2),
                "memory_ok": True,
            }
            total_capacity = max(
                sum(platform_tables[p].paths[k].capacity_qps for p in mix)
                for k in range(len(pipelines))
            )
            cluster_grid = tuple(
                round(fraction * total_capacity, 1) for fraction in GRID_FRACTIONS
            )
            try:
                cluster = compose_fleet(
                    nodes, platform_tables, cluster_grid, tables, config.strategy, placements
                )
            except ShardingError:
                row.update(
                    memory_ok=False, capacity_qps=0.0, sla_qps=0.0, gather_max_us=float("nan"),
                    probe_p99_ms=float("nan"), serves_peak=False,
                    cost_per_sla_kqps=float("inf"),
                )
                result.add(**row)
                continue
            sla_qps = sla_feasible_qps(cluster, sla_seconds)
            row.update(
                capacity_qps=round(max(p.capacity_qps for p in cluster.paths), 1),
                sla_qps=round(sla_qps, 1),
                gather_max_us=round(float(cluster.node_gather.max()) * 1e6, 2),
                probe_p99_ms=round(probe_p99_seconds(cluster) * 1e3, 4),
                serves_peak=bool(sla_qps >= peak_offered),
                cost_per_sla_kqps=(
                    round(row["cost_usd"] / (sla_qps / 1e3), 2) if sla_qps > 0 else float("inf")
                ),
            )
            result.add(**row)
            clusters[label] = cluster

    feasible = [row for row in result.rows if row["memory_ok"] and row["sla_qps"] > 0]
    frontier_rows = pareto_frontier(
        feasible,
        objectives=lambda row: (row["cost_usd"], row["sla_qps"]),
        minimize=(True, False),
    )
    frontier_keys = {row["mix"] for row in frontier_rows}
    for row in result.rows:
        row["on_frontier"] = row["mix"] in frontier_keys

    frontier = ExperimentResult(name="capacity_frontier")
    for row in sorted(frontier_rows, key=lambda r: r["cost_usd"]):
        frontier.add(**row)

    singles = [row for row in result.rows if row["num_nodes"] == 1 and row["memory_ok"]]
    serving = [row for row in result.rows if row["serves_peak"]]
    result.note(
        f"diurnal trace: {config.users:,} users, offered peak {peak_offered:.0f} QPS, "
        f"SLA p99 <= {config.sla_ms:.1f} ms, sharding {config.strategy}"
    )
    if singles:
        cheapest_single = min(singles, key=lambda row: row["cost_usd"])
        result.note(
            f"cheapest single node {cheapest_single['mix']} (${cheapest_single['cost_usd']:.0f}) "
            f"sustains {cheapest_single['sla_qps']:.0f} QPS in SLA; "
            f"serves peak: {cheapest_single['serves_peak']}"
        )
    if serving:
        winner_row = min(serving, key=lambda row: (row["cost_usd"], row["num_nodes"]))
        winner = clusters[winner_row["mix"]]
        static = route_static(winner, trace, planning_qps=peak_offered)
        oracle = route_oracle(winner, trace)
        result.note(
            f"winner {winner_row['mix']} (${winner_row['cost_usd']:.0f}, "
            f"{winner_row['num_nodes']} nodes) routed end-to-end: "
            f"static violation rate {static.violation_rate:.4f} "
            f"(p99 {static.p99_seconds * 1e3:.2f} ms), "
            f"oracle violation rate {oracle.violation_rate:.4f}"
        )
        multi_beats_single = bool(
            winner_row["num_nodes"] > 1
            and (not singles or not any(row["serves_peak"] for row in singles))
        )
        result.note(f"multi-node mix required to serve peak: {multi_beats_single}")
    else:
        result.note("no mix serves the offered peak within SLA; raise max_nodes")
    frontier.notes.extend(result.notes)
    return result, frontier
