"""Reference implementations the capacity planner's cluster layer is checked against.

These are the per-shard and per-grid-point forms the cluster layer used
before :class:`~repro.cluster.sharding.ShardingPlan` accumulated per-node
aggregates in its validating pass, kept verbatim in logic:

* :func:`reference_node_bytes`, :func:`reference_node_lookup_fraction`,
  :func:`reference_remote_bytes_per_query`, :func:`reference_remote_rows`
  and :func:`reference_remote_bytes` — one walk over every shard per call
  (and per home node);
* :func:`reference_remote_cache_hit_rate` and
  :func:`reference_gather_seconds_per_node` — the topology model priced on
  top of those walks;
* :func:`reference_p99_grid` — one scalar
  :func:`~tests.router_reference.reference_p99_at` per (path, grid point,
  node) with a Python ``max`` over nodes (the fleet composes each path over
  the whole grid with ``p99_profile``, once per platform);
* :func:`reference_pooled_dwell` — a composed dwell cell pooled with one
  ``np.quantile`` per node sample (the fleet sorts each sample once and
  interpolates numpy's way).

The equivalence suite in ``tests/test_cluster.py`` requires the cluster
layer to reproduce all of them exactly.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.fleet import _mixture_counts
from repro.cluster.topology import gather_seconds
from repro.data.distributions import approx_zipf_hit_rate
from tests.router_reference import reference_p99_at


def reference_node_bytes(plan) -> np.ndarray:
    """Bytes held per node, accumulated shard by shard."""
    held = np.zeros(plan.num_nodes, dtype=np.float64)
    for shard in plan.assignments:
        held[shard.node] += shard.num_rows * plan.tables[shard.table_index].row_bytes
    return held


def reference_node_lookup_fraction(plan) -> np.ndarray:
    """Lookup share per node, accumulated shard by shard and normalised."""
    lookups = np.zeros(plan.num_nodes, dtype=np.float64)
    for shard in plan.assignments:
        table = plan.tables[shard.table_index]
        lookups[shard.node] += table.lookups_per_query * (shard.num_rows / table.num_rows)
    total = lookups.sum()
    return lookups / total if total > 0 else lookups


def reference_remote_bytes_per_query(plan, home: int) -> np.ndarray:
    """Per-source-node gather payload of a ``home`` query, skipping home shards."""
    payload = np.zeros(plan.num_nodes, dtype=np.float64)
    for shard in plan.assignments:
        if shard.node == home:
            continue
        table = plan.tables[shard.table_index]
        share = shard.num_rows / table.num_rows
        payload[shard.node] += table.lookups_per_query * share * table.row_bytes
    return payload


def reference_remote_rows(plan, home: int) -> float:
    """Rows held away from ``home``, summed over every remote shard."""
    return float(sum(shard.num_rows for shard in plan.assignments if shard.node != home))


def reference_remote_bytes(plan, home: int) -> float:
    """Bytes held away from ``home``, summed over every remote shard."""
    return float(
        sum(
            shard.num_rows * plan.tables[shard.table_index].row_bytes
            for shard in plan.assignments
            if shard.node != home
        )
    )


def reference_remote_cache_hit_rate(plan, home: int, cache) -> float:
    """The hot-remote-row cache hit rate priced on the per-shard walks."""
    rows_remote = reference_remote_rows(plan, home)
    if rows_remote <= 0:
        return 1.0
    row_bytes = reference_remote_bytes(plan, home) / rows_remote
    cached_rows = cache.static_bytes / row_bytes
    return approx_zipf_hit_rate(int(rows_remote), cached_rows, cache.zipf_alpha)


def reference_gather_seconds_per_node(plan, link, cache=None) -> np.ndarray:
    """Per-home gather latency, re-walking the shards for every home node."""
    gather = np.zeros(plan.num_nodes, dtype=np.float64)
    for home in range(plan.num_nodes):
        payloads = reference_remote_bytes_per_query(plan, home)
        if cache is not None:
            payloads = payloads * (1.0 - reference_remote_cache_hit_rate(plan, home, cache))
        gather[home] = gather_seconds(link, payloads)
    return gather


def reference_p99_grid(node_tables, qps_grid, gather) -> np.ndarray:
    """The fleet p99 grid from one scalar ``reference_p99_at`` per (path, load, node).

    Load splits across nodes proportionally to each node's path capacity.
    """
    num_paths = len(node_tables[0].paths)
    capacities = np.array(
        [[table.paths[k].capacity_qps for table in node_tables] for k in range(num_paths)]
    )
    weights = capacities / capacities.sum(axis=1, keepdims=True)
    grid = tuple(float(q) for q in qps_grid)
    p99_rows = np.empty((num_paths, len(grid)))
    for k in range(num_paths):
        for column, q in enumerate(grid):
            p99_rows[k, column] = max(
                reference_p99_at(table, k, q * weights[k, i]) + gather[i]
                for i, table in enumerate(node_tables)
            )
    return p99_rows


def reference_pooled_dwell(cluster, path_index: int, qps: float) -> np.ndarray | None:
    """One composed dwell cell: ``np.quantile`` of each node's sample plus its gather.

    Reads each node's memoized dwell cell at its load share; ``None`` when
    any share saturates.
    """
    weights = cluster.node_weights[path_index]
    cfg = cluster.simulation
    pool_size = max(cfg.num_queries - cfg.warmup_queries, cluster.num_nodes)
    counts = _mixture_counts(weights, pool_size)
    samples: list[np.ndarray] = []
    for node_index, table in enumerate(cluster.node_tables):
        latencies = table.dwell_latencies(path_index, qps * weights[node_index])
        if latencies is None:
            return None
        samples.append(latencies + cluster.node_gather[node_index])
    pooled = [
        np.quantile(sample, (np.arange(count) + 0.5) / count)
        for sample, count in zip(samples, counts)
        if count > 0
    ]
    return np.concatenate(pooled)
