"""Compose per-node ``PathTable``s into one routed, priced cluster.

The single-node serving layer compiles a
:class:`~repro.serving.router.PathTable` per platform; this module scales
it out:

* :class:`NodeSpec` — one node of the fleet: a platform (which single-node
  table it runs) and a memory budget (what the sharding plan may place on
  it);
* :func:`node_cost_usd` — a node's lifetime cost, priced through the
  platform table from the die area and power of its devices or its
  accelerator plus a host base cost — the objective the capacity planner
  minimizes;
* :class:`ClusterTable` — a :class:`~repro.serving.router.PathTable`
  whose dwell cells are *composed* from the per-node tables: offered load
  splits across replicas proportionally to capacity, each node simulates
  its share on the analytic engine's Lindley grid (batched, memoized),
  its sharding-induced gather latency is added, and the per-node samples
  are pooled into one capacity-weighted mixture.  The router and the
  streaming frontend consume a ``ClusterTable`` unchanged — the whole
  fleet stays one vectorized table;
* :func:`compose_fleet` — the one fleet composer, behind a serving cell's
  ``nodes`` axis and the capacity planner alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.accel.embedding_cache import EmbeddingCacheConfig
from repro.cluster.sharding import (
    EmbeddingTableSpec,
    ShardingError,
    ShardingPlan,
    shard_row_wise,
    shard_table_wise,
    tables_from_cost,
)
from repro.cluster.topology import InterconnectLink, gather_seconds_per_node
from repro.core.mapping import PLATFORMS
from repro.events import active_log
from repro.models.zoo import RM_LARGE
from repro.serving.metrics import sorted_quantiles
from repro.serving.resources import PipelinePlan, StageResource
from repro.serving.router import PathTable, ServingPath

__all__ = [
    "ClusterTable",
    "NodeSpec",
    "build_cluster_table",
    "compose_fleet",
    "fleet_nodes",
    "fleet_tables",
    "mix_label",
    "node_cost_usd",
]

#: Amortized silicon cost per mm^2 of die area (packaging + yield folded in).
AREA_DOLLARS_PER_MM2 = 20.0
#: Lifetime energy + cooling cost per sustained watt (3-year TCO horizon).
TCO_DOLLARS_PER_WATT = 60.0
#: Chassis, DRAM, NIC and assembly — paid once per node regardless of chip.
HOST_BASE_COST_USD = 3000.0

#: Items per query whose embedding rows a fleet's sharded tier serves
#: (the backend stage of the highest-quality candidate funnel).
ITEMS_PER_QUERY = 256
#: Embedding sharding strategies: greedy table-wise bin-packing or row-wise hash.
STRATEGIES = ("tablewise", "rowwise")

#: Fixed (die mm^2, sustained W) figures of the CPU/GPU platforms' devices.
_DEVICE_DIE = {"cpu": (450.0, 250.0), "gpu": (545.0, 70.0)}


@lru_cache(maxsize=8)
def node_cost_usd(platform: str) -> float:
    """Lifetime cost of one node of ``platform``, in dollars.

    The node is priced through :data:`repro.core.mapping.PLATFORMS`: die
    area at :data:`AREA_DOLLARS_PER_MM2` plus sustained power at
    :data:`TCO_DOLLARS_PER_WATT`, summed over a CPU/GPU platform's distinct
    devices or taken from an accelerator's
    :class:`~repro.accel.area_power.AreaPowerModel` breakdown.  Every node
    also pays :data:`HOST_BASE_COST_USD` for the host itself.  The price is
    computed once per platform.

    Parameters
    ----------
    platform : str
        A key of :data:`repro.core.mapping.PLATFORMS`.

    Returns
    -------
    float
        Dollars per node over the fleet's planning horizon.
    """
    if platform not in PLATFORMS:
        raise ValueError(f"unknown platform {platform!r}: no cost model")
    entry = PLATFORMS[platform]
    if isinstance(entry, tuple):
        devices = dict.fromkeys(entry)  # distinct: an all-CPU node has one CPU
        area_mm2 = sum(_DEVICE_DIE[device][0] for device in devices)
        power_w = sum(_DEVICE_DIE[device][1] for device in devices)
    else:
        breakdown = entry.area_power()
        area_mm2, power_w = breakdown.total_area_mm2, breakdown.total_power_w
    return HOST_BASE_COST_USD + area_mm2 * AREA_DOLLARS_PER_MM2 + power_w * TCO_DOLLARS_PER_WATT


@dataclass(frozen=True)
class NodeSpec:
    """One node of the fleet.

    Parameters
    ----------
    name : str
        Stable node label used in artifacts.
    platform : str
        The scheduler platform this node runs (selects its per-node table).
    memory_budget_bytes : int
        Embedding-table bytes the sharding plan may place on this node.
    """

    name: str
    platform: str
    memory_budget_bytes: int

    def __post_init__(self) -> None:
        """Validate the node description."""
        if not self.name:
            raise ValueError("a node needs a non-empty name")
        if self.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")

    @property
    def cost_usd(self) -> float:
        """Lifetime cost of this node (see :func:`node_cost_usd`)."""
        return node_cost_usd(self.platform)


def mix_label(nodes: Sequence[NodeSpec]) -> str:
    """Canonical label of a platform mix, e.g. ``1xcpu+2xrpaccel``."""
    counts = Counter(node.platform for node in nodes)
    return "+".join(f"{counts[p]}x{p}" for p in sorted(counts))


def _mixture_counts(weights: np.ndarray, size: int) -> np.ndarray:
    """Largest-remainder split of ``size`` samples across mixture weights.

    The counts sum to exactly ``size`` (``size`` must be at least the
    number of positive-weight components), remainder ties break toward the
    lower index (stable sort), and every positive-weight component keeps at
    least one sample so no node's tail disappears from the pooled
    distribution — a starved component's floor sample is taken back from
    the largest allocation.
    """
    raw = weights * size
    counts = np.floor(raw).astype(np.int64)
    remainder_order = np.argsort(-(raw - counts), kind="stable")
    for k in range(size - int(counts.sum())):
        counts[remainder_order[k % counts.size]] += 1
    counts[(weights > 0) & (counts == 0)] = 1
    for _ in range(int(counts.sum()) - size):
        counts[np.argmax(counts)] -= 1
    return counts


@dataclass
class ClusterTable(PathTable):
    """A routing table whose dwell cells are composed across fleet nodes.

    The table presents the fleet as ordinary paths — one per pipeline, at
    the summed capacity of all replicas — so
    :class:`~repro.serving.router.MultiPathRouter` and the streaming
    frontend route over it unchanged.  What changes is *how a dwell cell
    simulates*: offered load ``q`` on path ``k`` splits into per-node
    shares ``q * node_weights[k, i]``, each node's single-node table
    simulates its share on the shared analytic Lindley grid (batched and
    memoized per node), the node's cross-shard gather latency is added to
    every sample, and the per-node samples pool into one capacity-weighted
    mixture via evenly spaced quantiles.  A cell is saturated as soon as
    *any* node's share saturates — replicas cannot absorb each other's
    overflow without re-balancing, which the weight split already did.

    Parameters
    ----------
    nodes : tuple[NodeSpec, ...]
        The fleet members, in node order.
    node_tables : tuple[PathTable, ...]
        Each node's single-node table, aligned with ``nodes``; nodes of
        one platform may share a table object (and its dwell cache).
    node_weights : np.ndarray
        ``(num_paths, num_nodes)`` load split, rows summing to 1.
    node_gather : np.ndarray
        Per-node cross-shard gather seconds added to every query.
    """

    nodes: tuple[NodeSpec, ...] = ()
    node_tables: tuple[PathTable, ...] = ()
    node_weights: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    node_gather: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        """Validate the composition on top of the base-table validation."""
        super().__post_init__()
        if not self.nodes:
            raise ValueError("a cluster table needs at least one node")
        if len(self.node_tables) != len(self.nodes):
            raise ValueError("need one node table per node")
        self.node_weights = np.asarray(self.node_weights, dtype=np.float64)
        self.node_gather = np.asarray(self.node_gather, dtype=np.float64)
        shape = (len(self.paths), len(self.nodes))
        if self.node_weights.shape != shape:
            raise ValueError(f"node_weights must be {shape}, got {self.node_weights.shape}")
        if np.any(self.node_weights <= 0):
            raise ValueError("node_weights must be strictly positive")
        if not np.allclose(self.node_weights.sum(axis=1), 1.0):
            raise ValueError("node_weights rows must sum to 1")
        if self.node_gather.shape != (len(self.nodes),):
            raise ValueError("node_gather needs one entry per node")
        if np.any(self.node_gather < 0):
            raise ValueError("node_gather must be non-negative")
        for table in self.node_tables:
            if len(table.paths) != len(self.paths):
                raise ValueError("every node table must hold the cluster's path set")

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the fleet."""
        return len(self.nodes)

    def total_cost_usd(self) -> float:
        """Summed lifetime cost of every node."""
        return float(sum(node.cost_usd for node in self.nodes))

    def prefill_dwell(self, path_index, qps_values, service=None) -> None:
        """Compose every missing cluster dwell cell from per-node cells.

        Per-node simulation goes through each node table's own batched,
        memoized fill, so replicas sharing a platform table also share its
        Lindley kernel calls.  Each node simulates under its *own* default
        service model (the one the fleet was compiled with); per-step
        service overrides cannot be pushed through the composed mixture, so
        any override other than the table default is rejected rather than
        silently ignored.
        """
        if service is not None and service != self.simulation.service:
            raise NotImplementedError(
                "per-step service overrides are not supported on cluster tables; "
                "compile the fleet with the service model instead"
            )
        service, missing = self._missing_dwell(path_index, qps_values, service)
        if not missing:
            return
        weights = self.node_weights[path_index]
        for node_index, table in enumerate(self.node_tables):
            table.prefill_dwell(path_index, [q * weights[node_index] for q in missing])
        cfg = self.simulation
        pool_size = max(cfg.num_queries - cfg.warmup_queries, self.num_nodes)
        counts = _mixture_counts(weights, pool_size)
        for q in missing:
            samples: list[np.ndarray] = []
            for node_index, table in enumerate(self.node_tables):
                latencies = table.dwell_latencies(path_index, q * weights[node_index])
                if latencies is None:
                    samples = []
                    break
                samples.append(latencies + self.node_gather[node_index])
            key = (path_index, q, service)
            if not samples:
                self._segments[key] = None
                continue
            pooled = [
                sorted_quantiles(np.sort(sample), (np.arange(count) + 0.5) / count)
                for sample, count in zip(samples, counts)
                if count > 0
            ]
            self._segments[key] = np.concatenate(pooled)


def build_cluster_table(
    nodes: Sequence[NodeSpec],
    platform_tables: Mapping[str, PathTable],
    qps_grid: Sequence[float],
    sharding_plan: ShardingPlan,
    link: InterconnectLink,
    cache: EmbeddingCacheConfig | None = None,
) -> ClusterTable:
    """Compose per-node tables, a sharding plan and a fabric into a fleet.

    Per path, load splits across nodes proportionally to each node's path
    capacity; the cluster's p99 grid cell at load ``q`` is the
    max-over-nodes of each node's frontier p99 at its share plus its
    gather latency (the replica whose tail lands last defines the fleet's
    tail), with ``inf`` propagating when any share saturates.  Each
    (path, platform) pair is looked up once over the whole grid through
    :meth:`~repro.serving.router.PathTable.p99_profile`: replicas of one
    platform share its table and so its load weight and profile, and
    ``p99 + gather`` is monotone in the gather, so only the replica with
    the largest gather can set the max.  The
    cluster's per-path capacity is the sum of node capacities, surfaced
    through a synthetic one-stage aggregate plan so
    :attr:`~repro.serving.router.ServingPath.capacity_qps` and the
    router's shedding tie-breaks keep working.

    Parameters
    ----------
    nodes : sequence of NodeSpec
        The fleet members.
    platform_tables : mapping of str to PathTable
        One compiled single-node table per platform appearing in
        ``nodes``; all must share one path set (pipelines, SLA, engine
        budget, grid may differ).
    qps_grid : sequence of float
        Cluster-level loads backing the composed p99 curves.
    sharding_plan : ShardingPlan
        The embedding placement (one entry per node, in node order).
    link : InterconnectLink
        The fabric the gather model prices.
    cache : EmbeddingCacheConfig, optional
        Optional per-node hot-remote-row cache shrinking gather payloads.

    Returns
    -------
    ClusterTable
        The composed fleet table.
    """
    nodes = tuple(nodes)
    if not nodes:
        raise ValueError("a cluster needs at least one node")
    if sharding_plan.num_nodes != len(nodes):
        raise ValueError(
            f"sharding plan covers {sharding_plan.num_nodes} nodes, fleet has {len(nodes)}"
        )
    missing = sorted({n.platform for n in nodes} - set(platform_tables))
    if missing:
        raise ValueError(f"no compiled table for platforms: {missing}")
    node_tables = tuple(platform_tables[n.platform] for n in nodes)
    reference = node_tables[0]
    num_paths = len(reference.paths)
    for table in node_tables[1:]:
        if len(table.paths) != num_paths:
            raise ValueError("every platform table must compile the same pipelines")
        for a, b in zip(reference.paths, table.paths):
            if a.pipeline.name != b.pipeline.name:
                raise ValueError("platform tables disagree on pipeline order")
        if table.sla_seconds != reference.sla_seconds:
            raise ValueError("platform tables disagree on the SLA")

    gather = gather_seconds_per_node(sharding_plan, link, cache)
    capacities = np.array(
        [[table.paths[k].capacity_qps for table in node_tables] for k in range(num_paths)]
    )
    weights = capacities / capacities.sum(axis=1, keepdims=True)

    label = mix_label(nodes)
    log = active_log()
    if log is not None:
        log.emit(
            "shard_gather",
            mix=label,
            num_nodes=len(nodes),
            gather_us=[float(g) * 1e6 for g in gather],
        )
    replicas: dict[str, list[int]] = {}
    for i, node in enumerate(nodes):
        replicas.setdefault(node.platform, []).append(i)
    grid = tuple(float(q) for q in qps_grid)
    grid_qps = np.array(grid, dtype=np.float64)
    paths: list[ServingPath] = []
    p99_rows = np.empty((num_paths, len(grid)))
    for k in range(num_paths):
        total_capacity = float(capacities[k].sum())
        aggregate = PipelinePlan(
            platform=label,
            stages=[
                StageResource(
                    name="fleet",
                    num_servers=len(nodes),
                    service_seconds=len(nodes) / total_capacity,
                )
            ],
            description=f"{label} aggregate of {reference.paths[k].pipeline.name}",
        )
        paths.append(
            ServingPath(
                platform=label,
                pipeline=reference.paths[k].pipeline,
                plan=aggregate,
                quality=reference.paths[k].quality,
            )
        )
        p99_rows[k] = np.max(
            [
                node_tables[members[0]].p99_profile(k, grid_qps * weights[k, members[0]])
                + gather[members].max()
                for members in replicas.values()
            ],
            axis=0,
        )
    return ClusterTable(
        paths=paths,
        qps_grid=grid,
        p99_grid=p99_rows,
        sla_seconds=reference.sla_seconds,
        quality_target=reference.quality_target,
        simulation=reference.simulation,
        seed=reference.seed,
        nodes=nodes,
        node_tables=node_tables,
        node_weights=weights,
        node_gather=gather,
    )


def fleet_nodes(mix: Sequence[str], budget_bytes: int) -> tuple[NodeSpec, ...]:
    """One node per platform of ``mix``, named ``n{i}-{platform}``, each with ``budget_bytes``."""
    return tuple(
        NodeSpec(name=f"n{i}-{platform}", platform=platform, memory_budget_bytes=budget_bytes)
        for i, platform in enumerate(mix)
    )


def fleet_tables(num_tables: int, embedding_scale: float) -> list[EmbeddingTableSpec]:
    """RMlarge's embedding tier, scaled up and split into ``num_tables`` logical tables."""
    cost = RM_LARGE.reference_cost(num_tables).scaled(embedding_scale)
    return tables_from_cost(cost, num_tables, items_per_query=float(ITEMS_PER_QUERY))


def compose_fleet(
    nodes: Sequence[NodeSpec],
    platform_tables: Mapping[str, PathTable],
    qps_grid: Sequence[float],
    tables: Sequence[EmbeddingTableSpec],
    strategy: str = "tablewise",
    placements: dict | None = None,
) -> ClusterTable:
    """Shard ``tables`` over ``nodes`` by ``strategy`` and compose the fleet's table.

    The fleet runs over the default interconnect and embedding cache.  A
    placement depends only on the tables and the budget vector, so a caller
    composing many mixes passes one ``placements`` dict (budget vector ->
    plan or :class:`ShardingError`) to every call: each vector is sharded
    once.  Raises :class:`ShardingError` when the tables do not fit.
    """
    placements = {} if placements is None else placements
    budgets = tuple(node.memory_budget_bytes for node in nodes)
    if budgets not in placements:
        shard = shard_row_wise if strategy == "rowwise" else shard_table_wise
        try:
            placements[budgets] = shard(tables, budgets)
        except ShardingError as error:
            placements[budgets] = error
    plan = placements[budgets]
    if isinstance(plan, ShardingError):
        raise ShardingError(str(plan))
    return build_cluster_table(
        nodes, platform_tables, qps_grid, plan, InterconnectLink(), EmbeddingCacheConfig()
    )
